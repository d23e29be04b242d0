"""Round-4 VERDICT items: cow-merge routing through the one key probe
(``merge.probe_keys``, checked against a brute-force per-(key, fragment)
reference), plus follow-on round-4 operator upgrades."""

from __future__ import annotations

import numpy as np
import pytest

from ocel_ocpn_lakehouse_ray.functions import bloom
from ocel_ocpn_lakehouse_ray.stages.merge import probe_keys


def _frag(mn, mx, bits=None):
    # probe descriptor (min, max, bloom_bits, k)
    return (mn, mx, bits, bloom.NUM_HASHES)


def brute_force(frags, keys) -> dict[int, list[int]]:
    """fragment index → rows whose key is in the fragment's range (any key
    without stats) and passes its bloom, one (key, fragment) pair at a time."""
    out = {}
    for i, (mn, mx, bits, k) in enumerate(frags):
        rows = [j for j, key in enumerate(keys)
                if (mn is None or mn <= key <= mx)
                and (bits is None or bloom.might_contain(bits, [key], k)[0])]
        if rows:
            out[i] = rows
    return out


def _probe(frags, keys) -> dict[int, list[int]]:
    got = {i: sorted(rows.tolist()) for i, rows in probe_keys(frags, keys)}
    assert list(got) == sorted(got)  # one fragment at a time, in order
    return got


def test_probe_keys_matches_brute_force_random_overlap():
    rng = np.random.default_rng(7)
    frags = []
    for _ in range(200):
        lo = int(rng.integers(0, 10_000))
        hi = lo + int(rng.integers(0, 400))
        frags.append(_frag(f"k{lo:06d}", f"k{hi:06d}"))
    frags.append(_frag(None, None))  # stat-less → probed over every key
    keys = np.array(
        [f"k{int(v):06d}" for v in rng.integers(0, 11_000, size=500)],
        dtype=object)
    got = _probe(frags, keys)
    assert got == brute_force(frags, keys)
    assert got[len(frags) - 1] == list(range(len(keys)))


def test_probe_keys_finds_3_hits_among_1200_disjoint_fragments():
    """1200 disjoint fragments, a batch touching 3 of them: exactly those 3
    yield, each with its one row."""
    F = 1200
    frags = [_frag(f"k{i * 100:08d}", f"k{i * 100 + 99:08d}") for i in range(F)]
    keys = np.array(["k" + s for s in
                     ("00000350", "00065010", "00119999", "99999999")],
                    dtype=object)  # frags 3, 650, 1199; last key beyond all
    got = _probe(frags, keys)
    assert got == {3: [0], 650: [1], 1199: [2]} == brute_force(frags, keys)


def test_probe_keys_nested_ranges():
    # fragment i spans [k000000, k{i}]: every pair of ranges overlaps
    frags = [_frag("k000000", f"k{i:06d}") for i in range(200)]
    keys = np.array(["k000100", "k000000", "k000199", "k000200"], dtype=object)
    got = _probe(frags, keys)
    assert got == brute_force(frags, keys)
    assert set(got) == set(range(200))
    assert got[100] == [0, 1] and got[99] == [1] and got[199] == [0, 1, 2]


def test_probe_keys_bloom_bits_and_empty_batch():
    """Bloom bits drop in-range keys a fragment does not hold (also for a
    fragment without range stats); no key, no fragment."""
    evens = [f"k{i:06d}" for i in range(0, 400, 2)]
    odds = [f"k{i:06d}" for i in range(1, 400, 2)]
    frags = [_frag(evens[0], evens[-1], bloom.build(evens)),
             _frag(odds[0], odds[-1], bloom.build(odds)),
             _frag(None, None, bloom.build(odds)),
             _frag(odds[0], odds[-1])]  # no sidecar: range-only
    keys = np.array(evens[:50] + odds[100:120] + ["k999999"], dtype=object)
    np.random.default_rng(3).shuffle(keys)
    got = _probe(frags, keys)
    assert got == brute_force(frags, keys)
    rows_of = {k: j for j, k in enumerate(keys)}
    assert got[3] == sorted(rows_of[k] for k in evens[1:50] + odds[100:120])
    assert _probe(frags, np.array([], dtype=object)) == {}
    assert _probe([], keys) == {}


@pytest.mark.parametrize("mode", ["cow"])
def test_merge_when_matched_then_delete(tmp_path, mode):
    """MERGE with delete markers (WHEN MATCHED THEN DELETE): matched target
    rows vanish, markers never insert, unmatched markers are no-ops —
    pinned by a DuckDB oracle."""
    import duckdb
    import pyarrow as pa
    import ray

    from ocel_ocpn_lakehouse_ray.sources.generator import (
        create_image_table,
        gen_batch,
        gen_update_batch,
    )
    from ocel_ocpn_lakehouse_ray.stages.merge import run_merge
    from ocel_ocpn_lakehouse_ray.stages.verify import scan_equivalence

    n, seed = 300, 21
    t = create_image_table(str(tmp_path / mode), n, num_fragments=8, seed=seed)
    upd_ids = np.arange(0, 60, 4)            # 15 updates
    del_ids = np.arange(1, 41, 4)            # 10 matched deletes (disjoint)
    ghost_ids = np.arange(3) + 7 * 10**11    # unmatched delete markers: no-ops
    new_ids = np.arange(12) + 9 * 10**11     # 12 inserts

    def flag(tbl, v):
        return tbl.append_column("__del", pa.array([v] * tbl.num_rows))

    src_tbl = pa.concat_tables([
        flag(gen_update_batch(upd_ids, seed), False),
        flag(gen_batch(new_ids, seed + 7), False),
        flag(gen_batch(del_ids, seed), True),
        flag(gen_batch(ghost_ids, seed + 9), True),
    ])
    t2, rep = run_merge(t, ray.data.from_arrow(src_tbl),
                        job_id=f"mdel-{mode}", delete_col="__del")
    assert rep["deletes"] == len(del_ids)
    assert rep["inserts"] == len(new_ids)
    assert rep["updates"] == len(upd_ids)

    # duckdb oracle over the deterministic generator inputs
    con = duckdb.connect()
    con.register("tgt", gen_batch(np.arange(n), seed)
                 .select(["image_id", "caption"]))
    con.register("src", src_tbl.select(["image_id", "caption", "__del"]))
    oracle = con.sql("""
        SELECT image_id, caption FROM tgt
        WHERE image_id NOT IN (SELECT image_id FROM src)
        UNION ALL
        SELECT image_id, caption FROM src WHERE NOT __del
        ORDER BY image_id
    """).arrow()
    got = (t2.to_dataset(columns=["image_id", "caption"]).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    assert got["image_id"].tolist() == oracle["image_id"].to_pylist()
    assert got["caption"].tolist() == oracle["caption"].to_pylist()

    # full-bytes scan equivalence against the expected surviving rows
    ids = np.arange(n)
    survive = ids[~np.isin(ids, np.concatenate([upd_ids, del_ids]))]
    expect = pa.concat_tables([
        gen_batch(survive, seed),
        gen_update_batch(upd_ids, seed),
        gen_batch(new_ids, seed + 7),
    ])
    se = scan_equivalence(t2.to_dataset(), ray.data.from_arrow(expect),
                          num_parts=4)
    assert se["passed"], se


def test_levenshtein_banded_matches_exact_and_prunes():
    import random

    from ocel_ocpn_lakehouse_ray.pipelines.predictive import (
        levenshtein,
        levenshtein_banded,
    )

    rng = random.Random(11)
    alpha = "abcdefg"
    for _ in range(300):
        a = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 30)))
        b = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 30)))
        d = levenshtein(a, b)
        for cutoff in (0, 1, 3, d, d + 2, 50):
            got = levenshtein_banded(a, b, cutoff)
            if d <= cutoff:
                assert got == d, (a, b, cutoff)
            else:
                assert got > cutoff, (a, b, cutoff)
    assert levenshtein_banded("xyz", "xyz", None) == 0
    assert levenshtein_banded("abc", "abd", None) == 1


def test_levenshtein_banded_long_trace_stress():
    """Corpus-scale long traces: the banded DP with a small cutoff must be
    orders of magnitude cheaper than the full DP (the top-k radius prune)."""
    import time

    from ocel_ocpn_lakehouse_ray.pipelines.predictive import (
        levenshtein,
        levenshtein_banded,
    )

    a = "ab" * 4000                      # 8000 chars
    b = "ab" * 3999 + "cd"               # close to a
    t0 = time.perf_counter()
    d = levenshtein_banded(a, b, 16)
    banded_s = time.perf_counter() - t0
    assert d == levenshtein(a, b) <= 16
    # far apart: early exit well before the full DP finishes
    c = "zq" * 4000
    t0 = time.perf_counter()
    assert levenshtein_banded(a, c, 16) > 16
    early_s = time.perf_counter() - t0
    assert banded_s < 2.0 and early_s < 2.0  # full DP is 64M cells — seconds


def test_similar_cases_single_events_scan(monkeypatch):
    """VERDICT r3 #4: q_similar_cases derives the query trace, min user, and
    all distances from ONE events read."""
    import ocel_ocpn_lakehouse_ray.pipelines.predictive as pred

    calls = []
    real = pred._read

    def counting(sf_dir, table, **kw):
        calls.append(table)
        return real(sf_dir, table, **kw)

    monkeypatch.setattr(pred, "_read", counting)
    out = pred.q_similar_cases("/root/testdata/sf0.001").to_pandas()
    assert calls == ["events"]
    assert 0 < len(out) <= pred.TOP_K_SIMILAR  # sf0.001 has few users
    assert out["distance"].is_monotonic_increasing


def test_stream_append_exactly_once_with_resume(tmp_path):
    """Micro-batch streaming ingest: bounded manifest commits, exact row
    counts, and an interrupted stream resumes with zero duplicates and
    zero lost batches."""
    from ocel_ocpn_lakehouse_ray.config import TableConfig
    from ocel_ocpn_lakehouse_ray.pipelines.streaming import stream_append
    from ocel_ocpn_lakehouse_ray.sources.generator import gen_batch
    from ocel_ocpn_lakehouse_ray.table import IMAGE_SCHEMA, LakeTable

    t = LakeTable.create(str(tmp_path / "t"), IMAGE_SCHEMA,
                         TableConfig(target_fragment_bytes=1 << 20))
    v0 = t.version

    def stream():
        for i in range(20):
            yield gen_batch(np.arange(10) + i * 10, 5)

    # interrupted at batch 12: some micro-batches journaled, one commit done
    with pytest.raises(RuntimeError, match="failpoint"):
        stream_append(t, stream(), job_id="s1", commit_every=5, failpoint=12)
    t1 = LakeTable.load(t.root)
    assert t1.manifest.total_rows in (50, 100)  # full commits only

    # resume: same job, same stream — exactly-once
    t2, rep = stream_append(LakeTable.load(t.root), stream(), job_id="s1",
                            commit_every=5)
    assert rep["rows"] == 200 and rep["resumed_skips"] >= 10
    assert t2.manifest.total_rows == 200
    ids = t2.to_arrow(columns=["image_id"])["image_id"].to_pylist()
    assert len(ids) == len(set(ids)) == 200
    # bounded manifest churn: at most ceil(20/5)+1 commits across both runs
    assert t2.version - v0 <= 5
    # idempotent full rerun: nothing new to publish
    t3, rep3 = stream_append(t2, stream(), job_id="s1", commit_every=5)
    assert t3.version == t2.version and rep3["resumed_skips"] == 20


def test_curate_corpus_stages(tmp_path):
    """Composed curation pipeline: quality filter, language filter, exact
    dedup (keep-min), near-dedup (keep-lowest), export — crafted corpus
    exercises every stage with known expected survivors."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocel_ocpn_lakehouse_ray.pipelines.curate import curate_corpus

    base = ("the quick brown fox jumps over the lazy dog and runs to the "
            "river where it drinks some of the cold water before it sleeps")
    near = base.replace("cold", "warm")
    docs = {
        1: base,                       # keeper (lowest id of near-dup pair)
        2: base,                       # exact dup of 1 -> dropped (keep-min)
        3: near,                       # near dup of 1 -> dropped
        4: "short",                    # quality fail (min_tokens)
        5: "el rapido zorro marron salta sobre el perro perezoso en la "
           "manana y corre por la ciudad con los gatos y las casas",  # not en
        6: "a completely different english document that talks about the "
           "weather and the mountains and the long roads of the north",
    }
    src = str(tmp_path / "corpus")
    import os

    os.makedirs(src)
    pq.write_table(
        pa.table({"doc_id": pa.array(list(docs), pa.int64()),
                  "text": pa.array(list(docs.values()), pa.string())}),
        os.path.join(src, "documents.parquet"))

    out = str(tmp_path / "out")
    rep = curate_corpus(src, out, min_tokens=5, langs=("en",),
                        jaccard_threshold=0.4)
    assert rep["n_input"] == 6
    assert rep["n_quality"] == 4          # drops 4 (short) and 5 (es)
    assert rep["exact_dup_drops"] == 1    # doc 2
    assert rep["near_dup_drops"] == 1     # doc 3
    assert rep["n_output"] == 2
    got = sorted(
        v for f in os.listdir(out) if f.endswith(".parquet")
        for v in pq.read_table(os.path.join(out, f))["doc_id"].to_pylist())
    assert got == [1, 6]


def test_curate_counts_consistent_on_testdata(tmp_path):
    from ocel_ocpn_lakehouse_ray.pipelines.curate import curate_corpus

    rep = curate_corpus("/root/testdata/sf0.001", str(tmp_path / "o"))
    assert rep["n_output"] == (rep["n_quality"] - rep["exact_dup_drops"]
                               - rep["near_dup_drops"])
    assert rep["n_input"] == 500 and rep["n_output"] > 0


def test_maint_update_registry_wrapper():
    from ocel_ocpn_lakehouse_ray.pipelines.maintenance_queries import (
        maint_update,
    )

    df = maint_update("/root/testdata/sf0.001")
    assert len(df) > 0  # in-place SET assertions live inside the wrapper


def test_bottlenecks_matches_duckdb():
    """q_bottlenecks reproduces the reference identify_bottlenecks semantics
    (`agent/process_mining_queries.py:285-329`), pinned by a DuckDB oracle
    on the events table."""
    import duckdb

    from ocel_ocpn_lakehouse_ray.pipelines.predictive import (
        SQL_BOTTLENECKS,
        q_bottlenecks,
    )

    sf = "/root/testdata/sf0.001"
    got = q_bottlenecks(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.sql(SQL_BOTTLENECKS).df()
    assert len(got) == len(want) > 0
    assert got["activity"].tolist() == want["activity"].tolist()
    assert got["severity"].tolist() == want["severity"].tolist()
    assert got["total_occurrences"].tolist() == \
        want["total_occurrences"].tolist()
    assert np.allclose(got["avg_duration_seconds"],
                       want["avg_duration_seconds"], atol=1e-4)


def test_gc_sweeps_bloom_sidecars_after_dml_lifecycle(tmp_path):
    """DML + snapshot expiry + GC must leave ZERO orphans — including the
    .bloom key sidecars of fragments removed by DELETE/UPDATE/MERGE."""
    import os

    import ray

    from ocel_ocpn_lakehouse_ray.sources.generator import (
        create_image_table,
        merge_source_dataset,
    )
    from ocel_ocpn_lakehouse_ray.stages.delete import run_delete
    from ocel_ocpn_lakehouse_ray.stages.gc import (
        expire_snapshots,
        fsck,
        garbage_collect,
    )
    from ocel_ocpn_lakehouse_ray.stages.merge import run_merge
    from ocel_ocpn_lakehouse_ray.stages.update import run_update

    root = str(tmp_path / "t")
    t = create_image_table(root, 200, num_fragments=6, seed=15)
    data_dir = os.path.join(root, "data")
    blooms_before = {f for f in os.listdir(data_dir) if f.endswith(".bloom")}
    assert blooms_before, "fixture should write bloom sidecars"

    t, _ = run_merge(t, merge_source_dataset(200, seed=15, num_blocks=2),
                     job_id="gc-m")
    t, _ = run_delete(t, [{"column": "w", "op": "eq", "value": 32}],
                      job_id="gc-d")
    t, _ = run_update(t, [{"column": "w", "op": "eq", "value": 64}],
                      [{"column": "h", "set": 7}], job_id="gc-u")

    expire_snapshots(root, keep_last=1)
    garbage_collect(root, orphan_grace_seconds=0.0,
                    now=__import__("time").time() + 10)
    rep = fsck(root)
    assert rep["orphans"] == [], rep
    assert rep["missing"] == []
    # every surviving .bloom belongs to a live fragment
    live = {f.fragment_id for f in t.fragments}
    for name in os.listdir(data_dir):
        if name.endswith(".bloom"):
            assert name.rsplit(".", 1)[0] in live, name
    # and the table still reads
    assert t.to_dataset().count() == t.manifest.total_rows


def test_update_expression_sets_match_duckdb(tmp_path):
    """Column-from-column arithmetic and CASE-style conditional SET
    expressions, pinned against a DuckDB UPDATE oracle."""
    import duckdb

    from ocel_ocpn_lakehouse_ray.sources.generator import create_image_table
    from ocel_ocpn_lakehouse_ray.stages.update import run_update

    t = create_image_table(str(tmp_path / "t"), 200, num_fragments=6, seed=5)
    before = t.to_arrow(columns=["image_id", "w", "h", "fmt"])
    preds = [{"column": "w", "op": "between", "lo": 32, "hi": 128}]
    sets = [
        {"column": "h", "binop": {
            "op": "+", "lhs": {"col": "h"},
            "rhs": {"binop": {"op": "*", "lhs": {"col": "w"},
                              "rhs": {"lit": 2}}}}},
        {"column": "fmt", "case": {
            "when": [{"column": "fmt", "op": "eq", "value": "png"}],
            "then": {"lit": "PNG"}}},
    ]
    t2, rep = run_update(t, preds, sets, job_id="upd-expr")
    assert rep["updated"] > 0

    con = duckdb.connect()
    con.register("b", before)
    oracle = con.sql("""
        SELECT image_id, w,
               CASE WHEN w BETWEEN 32 AND 128 THEN h + w * 2 ELSE h END AS h,
               CASE WHEN w BETWEEN 32 AND 128 AND fmt = 'png'
                    THEN 'PNG' ELSE fmt END AS fmt
        FROM b ORDER BY image_id
    """).arrow()
    got = (t2.to_dataset(columns=["image_id", "w", "h", "fmt"]).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    for c in ("image_id", "w", "h", "fmt"):
        assert got[c].tolist() == oracle[c].to_pylist(), c


@pytest.mark.parametrize("mode", ["cow"])
def test_merge_pure_delete_source(tmp_path, mode):
    """A source containing ONLY delete markers behaves as a keyed DELETE:
    matched rows vanish, nothing inserts."""
    import pyarrow as pa
    import ray

    from ocel_ocpn_lakehouse_ray.sources.generator import (
        create_image_table,
        gen_batch,
    )
    from ocel_ocpn_lakehouse_ray.stages.merge import run_merge

    n, seed = 200, 33
    t = create_image_table(str(tmp_path / mode), n, num_fragments=6, seed=seed)
    del_ids = np.arange(0, 30, 3)
    src = gen_batch(del_ids, seed).append_column(
        "__del", pa.array([True] * len(del_ids)))
    t2, rep = run_merge(t, ray.data.from_arrow(src),
                        job_id=f"pured-{mode}", delete_col="__del")
    assert rep["deletes"] == len(del_ids)
    assert rep["inserts"] == 0 and rep["updates"] == 0
    assert t2.manifest.total_rows == n - len(del_ids)
    ids = set(t2.to_arrow(columns=["image_id"])["image_id"].to_pylist())
    gone = set(gen_batch(del_ids, seed)["image_id"].to_pylist())
    assert not (ids & gone) and len(ids) == n - len(del_ids)
