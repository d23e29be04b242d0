"""Budget matrix for every budget-guarded driver path: each caller runs
with its budget constant left as it is (driver path) and patched to 0
(fallback path), and both must return the same frame — on the registry
queries (their grouped transforms, ``bucketed_groups``, included), on
empty input, and with upstream executed once per block.  The byte bound
alone also forces the fallback."""

from __future__ import annotations

import uuid

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

import __ray_entry__ as entry
from ocel_ocpn_lakehouse_ray.pipelines import image_dedup, queries, queries_extra

SF = "/root/testdata/sf0.001"

CONVERTED = [
    "pricing_summary", "orders_by_segment", "revenue_by_nation",
    "direct_follows", "variants", "next_activity", "sessionize",
    "executive_kpis", "conformance", "minhash_lsh_pairs", "embedding_dedup",
]
CASES = [(n, queries, "FOLD_BUDGET") for n in CONVERTED] + [
    ("semi_join", queries_extra, "MAX_DRIVER_KEYS"),
    ("anti_join", queries_extra, "MAX_DRIVER_KEYS"),
    ("image_near_dup", image_dedup, "MAX_DRIVER_EDGES"),
]


def _norm(res) -> pd.DataFrame:
    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    cols = sorted(df.columns)
    return (df[cols].sort_values(cols).reset_index(drop=True)
            .round(9))


@pytest.mark.parametrize("name,module,budget", CASES, ids=[c[0] for c in CASES])
def test_budget_fallback_identical(name, module, budget, monkeypatch):
    reg = entry.queries()
    base = _norm(reg[name](SF))
    monkeypatch.setattr(module, budget, 0)
    fb = _norm(reg[name](SF))
    pd.testing.assert_frame_equal(base, fb, check_dtype=False)
    assert len(base) > 0


EMPTY_COLUMNS = {
    "pricing_summary": ["avg_qty", "count_order", "l_linestatus",
                        "l_returnflag", "sum_base_price", "sum_disc_price",
                        "sum_qty"],
    "minhash_lsh_pairs": ["a", "b"],
    "direct_follows": ["dst", "n", "src"],
}


@pytest.mark.parametrize("name", sorted(EMPTY_COLUMNS))
@pytest.mark.parametrize("budget", [0, None], ids=["fallback", "driver"])
def test_empty_input_on_both_paths(name, budget, tmp_path, monkeypatch):
    """Zero-row source tables give the same typed empty result either way."""
    for t in ("lineitem", "documents", "events"):
        src = pq.read_table(f"{SF}/{t}.parquet")
        pq.write_table(src.schema.empty_table(), tmp_path / f"{t}.parquet")
    if budget is not None:
        monkeypatch.setattr(queries, "FOLD_BUDGET", budget)
    out = _norm(entry.queries()[name](str(tmp_path)))
    assert len(out) == 0 and list(out.columns) == EMPTY_COLUMNS[name]
    assert queries.bounded_fold(
        ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())})),
        ["k"], lambda g: g) is None


@pytest.mark.parametrize("name", ["embedding_dedup", "minhash_lsh_pairs",
                                  "direct_follows"])
def test_byte_bound_alone_forces_the_buckets(name, monkeypatch):
    """Under the row budget but past BROADCAST_BYTES, grouped transforms
    take the hash buckets, and return what the driver path returns."""
    reg = entry.queries()
    base = _norm(reg[name](SF))
    calls = []
    real = queries._hash_buckets

    def counted(*a, **kw):
        calls.append(a[1])
        return real(*a, **kw)

    monkeypatch.setattr(queries, "_hash_buckets", counted)
    reg[name](SF)
    assert calls == []  # the row and byte budgets both hold at sf0.001
    monkeypatch.setattr(queries, "BROADCAST_BYTES", 0)
    fb = _norm(reg[name](SF))
    assert calls  # every fold and grouped transform took the buckets
    pd.testing.assert_frame_equal(base, fb, check_dtype=False)
    assert len(base) > 0


def _counted_source(tmp_path, table: pa.Table, blocks: int):
    """``table`` in ``blocks`` blocks behind a UDF that leaves one file in a
    fresh directory per call, so the calls can be counted afterwards."""
    calls = tmp_path / uuid.uuid4().hex
    calls.mkdir()

    def udf(b: pa.Table) -> pa.Table:
        (calls / uuid.uuid4().hex).touch()
        return b

    ds = ray.data.from_arrow(table).repartition(blocks)
    return ds.map_batches(udf, batch_format="pyarrow"), calls


def test_forced_fallback_runs_upstream_once(tmp_path, monkeypatch):
    monkeypatch.setattr(queries, "FOLD_BUDGET", 0)
    monkeypatch.setattr(queries_extra, "MAX_DRIVER_KEYS", 0)
    keys = pa.array([1, None, 2, None, 1, 3, None], pa.int64())
    src = pa.table({"k": keys, "s": pa.array(range(7), pa.int64())})

    ds, calls = _counted_source(tmp_path, src, 3)
    out = queries.fold_partials(ds, ["k"], ["s"])
    sums = {None if k is None else int(k): s
            for k, s in zip(out["k"].to_pylist(), out["s"].to_pylist())}
    assert sums == {None: 10, 1: 4, 2: 2, 3: 5}
    assert len(list(calls.iterdir())) == 3

    build, calls = _counted_source(
        tmp_path, pa.table({"bk": pa.array([2, 2, 4, 9, 4], pa.int64())}), 3)
    probe = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "v": ["a", "b", "c", "d", "e"]}))
    semi = queries_extra._key_semi_join(probe, "k", build, "bk").to_pandas()
    assert sorted(semi["k"]) == [2, 4]
    assert list(semi.columns) == ["k", "v"]
    assert len(list(calls.iterdir())) == 3
