"""Output checks for the registry query pass.

The measured pass reads the fixed query tables in ``perfbench/data/sf0.01``
(the TPC-H-like star schema plus ``events``, ``documents`` and
``embeddings``, one parquet file each).  ``QueryChecker`` compares each result with the
DuckDB oracle SQL from ``__ray_entry__.oracle_sql()``.  ``minhash_lsh_pairs``
and ``embedding_dedup`` have no SQL oracle; their pair counts on these
tables are pinned in ``PINNED_PAIRS``, and every ``embedding_dedup`` pair
must also be an exact-cosine pair of the ``embedding_dedup_exact`` oracle.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

# pair counts of the two LSH queries on perfbench/data/sf0.01
PINNED_PAIRS = {"minhash_lsh_pairs": 25, "embedding_dedup": 248}


def to_pandas(result) -> pd.DataFrame:
    """Materialize a registry result (Dataset, arrow Table or DataFrame)."""
    import ray.data

    if isinstance(result, (ray.data.Dataset, pa.Table)):
        return result.to_pandas()
    return result


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)


def _frames_equal(got: pd.DataFrame, exp: pd.DataFrame) -> bool:
    got, exp = _normalize(got), _normalize(exp)
    if list(got.columns) != list(exp.columns) or len(got) != len(exp):
        return False
    for c in got.columns:
        g, e = got[c], exp[c]
        if np.issubdtype(g.dtype, np.floating) or np.issubdtype(e.dtype, np.floating):
            if not np.allclose(g.astype(float), e.astype(float), rtol=1e-9,
                               atol=1e-9, equal_nan=True):
                return False
        elif g.tolist() != e.tolist():
            return False
    return True


class QueryChecker:
    """Expected outputs of the query pass over one query-table directory,
    computed once, untimed, in the benchmark process."""

    def __init__(self, sf_dir: str, oracle_sql: dict, names: list[str]):
        import duckdb

        con = duckdb.connect()
        try:
            for f in sorted(os.listdir(sf_dir)):
                if f.endswith(".parquet"):
                    path = os.path.join(sf_dir, f)
                    con.execute(f"CREATE VIEW {f[:-8]} AS "
                                f"SELECT * FROM read_parquet('{path}')")
            self.expected = {n: con.sql(oracle_sql[n]).df()
                             for n in names if n not in PINNED_PAIRS}
            exact = con.sql(oracle_sql["embedding_dedup_exact"]).df()
            self.exact_pairs = {(int(a), int(b)) for a, b in zip(exact["a"], exact["b"])}
        finally:
            con.close()

    def matches(self, name: str, df: pd.DataFrame) -> bool:
        if name in PINNED_PAIRS:
            pairs = {(int(a), int(b)) for a, b in zip(df["a"], df["b"])}
            if name == "embedding_dedup" and not pairs <= self.exact_pairs:
                return False
            return (len(pairs) == len(df) == PINNED_PAIRS[name]
                    and all(a < b for a, b in pairs))
        return _frames_equal(df, self.expected[name])
