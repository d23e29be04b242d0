"""Driver-gate rehearsal: run every registry query at sf0.001 and compare to
its DuckDB oracle — row count, column names, and values (order-insensitive,
float-tolerant).  Mirrors what the driver does at sf0.01."""

import os

import sys

import duckdb
import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, "/root/repo")
import __ray_entry__ as _entry

QUERIES = _entry.queries()
ORACLE_SQL = _entry.oracle_sql()

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{os.path.join(SF_DIR, t + '.parquet')}')"
        )
    return c


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object and len(df) and isinstance(df[c].iloc[0], bytes):
            df[c] = df[c].map(lambda b: b.hex())
    sort_cols = [c for c in df.columns if df[c].dtype != float]
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


@pytest.mark.parametrize("name", sorted(ORACLE_SQL))
def test_query_matches_oracle(name, con):
    got = normalize(to_pandas(QUERIES[name](SF_DIR)))
    exp = normalize(con.sql(ORACLE_SQL[name]).df())
    assert list(got.columns) == list(exp.columns), f"{name}: columns {list(got.columns)} vs {list(exp.columns)}"
    assert len(got) == len(exp), f"{name}: rows {len(got)} vs {len(exp)}"
    for c in got.columns:
        g, e = got[c], exp[c]
        if np.issubdtype(g.dtype, np.floating) or np.issubdtype(e.dtype, np.floating):
            assert np.allclose(
                g.astype(float), e.astype(float), rtol=1e-9, atol=1e-9, equal_nan=True
            ), f"{name}.{c} float mismatch"
        else:
            assert g.tolist() == e.tolist(), f"{name}.{c} value mismatch"


@pytest.mark.parametrize("name", sorted(set(QUERIES) - set(ORACLE_SQL) - {
    n for n in QUERIES if n.startswith("maint_")  # covered in test_maintenance.py
}))
def test_rows_only_queries_run(name):
    # entries without oracle SQL must still run and return rows
    df = to_pandas(QUERIES[name](SF_DIR))
    assert len(df) > 0, name


def test_auto_join_plans_equivalent(monkeypatch):
    # auto_join must give identical results whichever plan the size rule
    # picks: force broadcast and shuffle and compare (J1 stays exercised
    # even though the bench-scale tables all fall under the broadcast cap).
    from ocel_ocpn_lakehouse_ray.pipelines import queries

    results = {}
    for mode, cap in (("broadcast", 1 << 62), ("shuffle", -1)):
        monkeypatch.setattr(queries, "BROADCAST_BYTES", cap)
        results[mode] = normalize(to_pandas(QUERIES["revenue_by_nation"](SF_DIR)))
    pd.testing.assert_frame_equal(results["broadcast"], results["shuffle"])
