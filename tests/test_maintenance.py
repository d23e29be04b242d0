"""Maintenance-job tests: compaction (plan properties, equivalence, resume),
clustering (order, salting, resume), MERGE (duckdb oracle, fragment pruning),
snapshot expiry/GC, and the scan-equivalence verifier itself (PSNR paths).

Mirrors SURVEY.md §5's strategy: unit tests on planners/kernels + exact
post-maintenance scan-equivalence + snapshot isolation + resume.
"""

import glob
import os

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from ocel_ocpn_lakehouse_ray.config import TableConfig
from ocel_ocpn_lakehouse_ray.functions.codec import encode_png, quantize_lossy
from ocel_ocpn_lakehouse_ray.sources.generator import (
    _update_mask,
    create_image_table,
    gen_batch,
    gen_update_batch,
    merge_source_dataset,
)
from ocel_ocpn_lakehouse_ray.stages.clustering import cluster_key_batch, run_clustering
from ocel_ocpn_lakehouse_ray.stages.compaction import plan_compaction, run_compaction
from ocel_ocpn_lakehouse_ray.stages.gc import expire_and_gc, fsck, garbage_collect
from ocel_ocpn_lakehouse_ray.stages.health import analyze_health
from ocel_ocpn_lakehouse_ray.stages.merge import prune_touched_fragments, run_merge
from ocel_ocpn_lakehouse_ray.stages.verify import scan_equivalence
from ocel_ocpn_lakehouse_ray.state.manifest import FragmentMeta
from ocel_ocpn_lakehouse_ray.table import IMAGE_SCHEMA, LakeTable

N = 400
SEED = 42


@pytest.fixture(scope="module")
def base_table(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("maint") / "table")
    t = create_image_table(root, N, num_fragments=20, seed=SEED)
    return t


def expected_rows(n=N):
    return gen_batch(np.arange(n), SEED)


# ----------------------------------------------------------------- planning

def test_plan_compaction_properties():
    frags = [
        FragmentMeta(f"f{i}", f"data/f{i}.parquet", rows=10, bytes=b, stats={})
        for i, b in enumerate([10, 700, 200, 300, 100, 50, 950, 400, 30, 90])
    ]
    plan = plan_compaction(frags, target_bytes=1000)
    planned = [f.fragment_id for b in plan.bins for f in b]
    untouched = [f.fragment_id for f in plan.untouched]
    # every fragment exactly once
    assert sorted(planned + untouched) == sorted(f.fragment_id for f in frags)
    # bins never exceed the target
    for b in plan.bins:
        assert sum(f.bytes for f in b) <= 1000
    # a single-fragment bin above small threshold is not rewritten
    assert all(len(b) > 1 or b[0].bytes < 250 for b in plan.bins)
    assert plan.estimate["files_before"] == 10


def test_health_score_penalties():
    frags = [FragmentMeta(f"f{i}", "p", rows=1, bytes=10, stats={}) for i in range(1200)]

    class M:  # minimal manifest stand-in
        version = 3
        fragments = frags
        total_rows = 1200

    cfg = TableConfig(target_fragment_bytes=100, small_file_bytes=50)
    rep = analyze_health(M, num_snapshots=150, config=cfg)
    # -20 (files>1000) -15 (small>50%) -10 (snapshots>100)
    assert rep.health_score == 55
    assert len(rep.recommendations) >= 3


# ----------------------------------------------------------------- compaction

def test_compaction_equivalence_and_isolation(base_table):
    t = base_table
    pinned_version = t.version
    pinned_rows = LakeTable.load(t.root, pinned_version).to_arrow()
    t2, rep = run_compaction(t, job_id="c-main")
    assert len(t2.fragments) < len(t.fragments)
    # every row is rewritten but those of a fragment first-fit left in a bin
    # of its own (one file into one file gains nothing)
    kept = [f for f in t2.fragments if f.fragment_id in t.manifest.fragment_ids()]
    assert len(kept) <= 1
    assert rep["rows"] == N - sum(f.rows for f in kept)
    se = scan_equivalence(t2.to_dataset(), ray.data.from_arrow(expected_rows()), num_parts=4)
    assert se["passed"], se
    # snapshot isolation: pinned reader sees byte-identical data post-commit
    after = LakeTable.load(t.root, pinned_version).to_arrow()
    assert pinned_rows.sort_by("image_id").equals(after.sort_by("image_id"))
    # health must not regress
    h_before = analyze_health(t.manifest, num_snapshots=1, config=t.config)
    h_after = analyze_health(t2.manifest, num_snapshots=2, config=t.config)
    assert h_after.small_fraction <= h_before.small_fraction


def test_compaction_resume_skips_committed_bins(tmp_path):
    root = str(tmp_path / "t")
    t = create_image_table(root, 200, num_fragments=16, seed=SEED)
    with pytest.raises(Exception):
        run_compaction(t, job_id="c-resume", failpoint=2)
    jdir = os.path.join(root, "journal", "c-resume")
    done_before = sorted(os.listdir(jdir))
    assert any(n.startswith("part-bin") or n.startswith("part-") for n in done_before)
    mtimes = {n: os.path.getmtime(os.path.join(jdir, n)) for n in done_before}
    # resume with the same job id: completes, committed bins not recomputed
    t2, rep = run_compaction(t, job_id="c-resume")
    for n, mt in mtimes.items():
        if n.endswith(".json") and n != "meta.json":
            assert os.path.getmtime(os.path.join(jdir, n)) == mt, f"{n} recomputed"
    se = scan_equivalence(
        t2.to_dataset(), ray.data.from_arrow(gen_batch(np.arange(200), SEED)), num_parts=4
    )
    assert se["passed"], se


# ----------------------------------------------------------------- clustering

@pytest.mark.parametrize("order", ["zorder", "hilbert"])
def test_clustering_preserves_rows_and_orders_fragments(tmp_path, order):
    root = str(tmp_path / order)
    t = create_image_table(root, 300, num_fragments=10, seed=SEED)
    t2, rep = run_clustering(t, order=order, job_id=f"cl-{order}", num_partitions=4)
    assert rep["rows"] == 300
    se = scan_equivalence(
        t2.to_dataset(), ray.data.from_arrow(gen_batch(np.arange(300), SEED)), num_parts=4
    )
    assert se["passed"], se
    # each fragment is internally sorted by cluster key and has cluster stats
    import pyarrow.parquet as pq

    spans = []
    for f in t2.fragments:
        tbl = pq.read_table(os.path.join(root, f.path))
        k = cluster_key_batch(tbl, order)
        assert (np.diff(k.astype(np.int64)) >= 0).all(), "fragment not key-sorted"
        assert "cluster_key" in f.stats
        spans.append((f.stats["cluster_key"]["min"], f.stats["cluster_key"]["max"]))
    # fragment ranges are (near-)disjoint: sorted by min, each min >= previous max
    spans.sort()
    overlaps = sum(1 for i in range(1, len(spans)) if spans[i][0] < spans[i - 1][1])
    assert overlaps <= len(spans) // 2  # hot keys may straddle a boundary


def test_clustering_salts_hot_keys_across_partitions(tmp_path):
    # a table that is ~all hot keys must still split into multiple partitions
    root = str(tmp_path / "hot")
    t = LakeTable.create(root, IMAGE_SCHEMA, TableConfig(target_fragment_bytes=1 << 18))
    b = gen_batch(np.arange(300), SEED)
    hot = pa.table(
        {
            "image_id": b["image_id"],
            "bytes": b["bytes"],
            "w": pa.array(np.full(300, 64, np.int32)),
            "h": pa.array(np.full(300, 64, np.int32)),
            "fmt": b["fmt"],
            "caption": b["caption"],
            "phash": pa.array(np.full(300, 12345, np.int64)),
        },
        schema=IMAGE_SCHEMA,
    )
    t = t.append_arrow(hot)
    t2, rep = run_clustering(t, order="zorder", job_id="cl-hot", num_partitions=4)
    assert rep["rows"] == 300
    # identical cluster keys spread over >1 output fragment (salted ranges)
    assert len(t2.fragments) > 1


def test_clustering_resume_reuses_boundaries(tmp_path):
    root = str(tmp_path / "t")
    t = create_image_table(root, 200, num_fragments=8, seed=SEED)
    with pytest.raises(Exception):
        run_clustering(t, order="zorder", job_id="cl-resume", num_partitions=4, failpoint=1)
    from ocel_ocpn_lakehouse_ray.state.lineage import load_job_meta

    meta1 = load_job_meta(root, "cl-resume")
    t2, rep = run_clustering(t, order="zorder", job_id="cl-resume", num_partitions=4)
    meta2 = load_job_meta(root, "cl-resume")
    assert meta1["boundaries"] == meta2["boundaries"], "resume re-sampled boundaries"
    se = scan_equivalence(
        t2.to_dataset(), ray.data.from_arrow(gen_batch(np.arange(200), SEED)), num_parts=4
    )
    assert se["passed"], se


# ----------------------------------------------------------------- merge

def test_merge_matches_duckdb_oracle(tmp_path):
    import duckdb

    root = str(tmp_path / "t")
    n = 300
    t = create_image_table(root, n, num_fragments=10, seed=SEED)
    src = merge_source_dataset(n, seed=SEED, num_blocks=4)
    t2, rep = run_merge(t, src, job_id="m-oracle", num_partitions=4)
    assert rep["updates"] > 0 and rep["inserts"] > 0

    # oracle: duckdb upsert over the same deterministic inputs (FIXTURES.md F2)
    tgt_tbl = gen_batch(np.arange(n), SEED).select(["image_id", "caption", "phash"])
    ids = np.arange(n)
    m = _update_mask(ids, SEED)
    src_tbl = pa.concat_tables(
        [
            gen_update_batch(ids[m], SEED).select(["image_id", "caption", "phash"]),
            gen_batch(np.arange(max(1, n // 20)) + 9 * 10**11, SEED + 7).select(
                ["image_id", "caption", "phash"]
            ),
        ]
    )
    con = duckdb.connect()
    con.register("tgt", tgt_tbl)
    con.register("src", src_tbl)
    oracle = con.sql(
        """
        SELECT image_id, caption, phash FROM src
        UNION ALL
        SELECT image_id, caption, phash FROM tgt
        WHERE image_id NOT IN (SELECT image_id FROM src)
        ORDER BY image_id
        """
    ).arrow()
    got = (
        t2.to_dataset(columns=["image_id", "caption", "phash"])
        .to_pandas()
        .sort_values("image_id")
        .reset_index(drop=True)
    )
    oracle_df = oracle.to_pandas() if not hasattr(oracle, "to_pandas") else oracle.to_pandas()
    assert got["image_id"].tolist() == oracle_df["image_id"].tolist()
    assert got["caption"].tolist() == oracle_df["caption"].tolist()
    assert got["phash"].tolist() == oracle_df["phash"].tolist()
    # full bytes-level equivalence
    exp_full = pa.concat_tables(
        [
            gen_batch(ids[~m], SEED),
            gen_update_batch(ids[m], SEED),
            gen_batch(np.arange(max(1, n // 20)) + 9 * 10**11, SEED + 7),
        ]
    )
    se = scan_equivalence(t2.to_dataset(), ray.data.from_arrow(exp_full), num_parts=4)
    assert se["passed"], se


def test_merge_prunes_untouched_fragments(tmp_path):
    root = str(tmp_path / "t")
    t = LakeTable.create(root, IMAGE_SCHEMA, TableConfig(target_fragment_bytes=1 << 20))
    # three fragments with disjoint image_id ranges
    for lo in (0, 100, 200):
        t = t.append_arrow(gen_batch(np.arange(lo, lo + 100), SEED), name_parts=("r", str(lo)))
    assert len(t.fragments) == 3
    # source touches only ids 0..19 → exactly one fragment rewritten
    src = ray.data.from_arrow(gen_update_batch(np.arange(20), SEED))
    t2, rep = run_merge(t, src, job_id="m-prune", num_partitions=2)
    assert rep["touched_fragments"] == 1
    assert rep["untouched_fragments"] == 2
    # the two untouched fragments carry over into the new manifest unchanged
    assert len(t2.manifest.fragment_ids() & {f.fragment_id for f in t.fragments}) == 2
    assert t2.manifest.total_rows == 300


def test_merge_resume(tmp_path):
    root = str(tmp_path / "t")
    t = create_image_table(root, 200, num_fragments=6, seed=SEED)
    src = merge_source_dataset(200, seed=SEED, num_blocks=2)
    with pytest.raises(Exception):
        run_merge(t, src, job_id="m-resume", num_partitions=3, failpoint=1)
    t2, rep = run_merge(t, src, job_id="m-resume", num_partitions=3)
    ids = np.arange(200)
    m = _update_mask(ids, SEED)
    exp_full = pa.concat_tables(
        [
            gen_batch(ids[~m], SEED),
            gen_update_batch(ids[m], SEED),
            gen_batch(np.arange(10) + 9 * 10**11, SEED + 7),
        ]
    )
    se = scan_equivalence(t2.to_dataset(), ray.data.from_arrow(exp_full), num_parts=4)
    assert se["passed"], se


def test_prune_touched_fragments_unit():
    frags = [
        FragmentMeta("a", "p", 1, 1, stats={"image_id": {"min": "img_000", "max": "img_099"}}),
        FragmentMeta("b", "p", 1, 1, stats={"image_id": {"min": "img_100", "max": "img_199"}}),
        FragmentMeta("c", "p", 1, 1, stats={}),  # no stats → always touched
    ]
    touched, untouched = prune_touched_fragments(frags, np.array(["img_150"]))
    assert [f.fragment_id for f in touched] == ["b", "c"]
    assert [f.fragment_id for f in untouched] == ["a"]


# ----------------------------------------------------------------- expiry / gc

def test_expiry_gc_and_fsck(tmp_path):
    root = str(tmp_path / "t")
    t = create_image_table(root, 120, num_fragments=8, seed=SEED)
    t2, _ = run_compaction(t, job_id="c1")
    rep_before = fsck(root)
    assert rep_before["missing"] == []
    # plant an orphan (crashed staged write)
    orphan = os.path.join(root, "data", "frag-deadbeef.parquet")
    with open(orphan, "wb") as f:
        f.write(b"junk")
    assert "frag-deadbeef.parquet" in fsck(root)["orphans"]
    # expire to last 1 manifest → v0/v1 dropped, pre-compaction fragments dead
    r = expire_and_gc(root, keep_last=1, orphan_grace_seconds=0)
    assert 0 in r["expiry"]["expired"] and 1 in r["expiry"]["expired"]
    assert "frag-deadbeef.parquet" in r["gc"]["deleted"]
    # latest still fully readable; no live fragment was deleted
    t3 = LakeTable.load(root)
    assert t3.to_dataset().count() == 120
    assert fsck(root)["missing"] == []
    # every remaining data file is referenced (no garbage left)
    assert fsck(root)["orphans"] == []


def test_gc_grace_period_protects_staged_writes(tmp_path):
    root = str(tmp_path / "t")
    create_image_table(root, 40, num_fragments=2, seed=SEED)
    staged = os.path.join(root, "data", "frag-inflight.parquet")
    with open(staged, "wb") as f:
        f.write(b"staged")
    r = garbage_collect(root, orphan_grace_seconds=3600)
    assert "frag-inflight.parquet" in r["kept_in_grace"]
    assert os.path.exists(staged)


@pytest.mark.parametrize("job", ["expire_snapshots", "expire_and_gc"])
def test_expiry_keeps_a_commit_that_lands_during_it(tmp_path, monkeypatch, job):
    """A writer commits after expiry has listed main's versions: the new
    head is outside that listing, so it must survive, and so must its
    fragments."""
    from ocel_ocpn_lakehouse_ray.stages import gc
    from ocel_ocpn_lakehouse_ray.state import manifest as mf

    root = str(tmp_path / "t")
    t = create_image_table(root, 40, num_fragments=2, seed=SEED)
    t = t.append_arrow(gen_batch(np.arange(40, 50), SEED))
    real_tags, landed = mf.tagged_versions, []

    def tags_then_commit(r):
        # called once expiry has listed the versions
        if not landed:
            landed.append(t.append_arrow(gen_batch(np.arange(50, 60), SEED)))
        return real_tags(r)

    monkeypatch.setattr(mf, "tagged_versions", tags_then_commit)
    if job == "expire_snapshots":
        rep = gc.expire_snapshots(root, keep_last=1)
    else:
        rep = gc.expire_and_gc(root, keep_last=1, orphan_grace_seconds=0)["expiry"]
    head = landed[0].version
    assert head not in rep["expired"] and rep["expired"]
    assert mf.read_latest_version(root) == head
    assert LakeTable.load(root).to_dataset().count() == 60
    assert fsck(root)["missing"] == []


# ----------------------------------------------------------------- verifier

def test_scan_equivalence_detects_corruption():
    rng = np.random.default_rng(5)
    arr = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    row = {
        "image_id": "img_x", "w": 32, "h": 32, "fmt": "jpeg",
        "caption": "cap", "phash": 1,
    }
    # actual = quantized (what the lossy codec stores); expected = original pixels
    ok_actual = pa.table({**{k: [v] for k, v in row.items()}, "bytes": [encode_png(quantize_lossy(arr))]}, schema=IMAGE_SCHEMA)
    ok_expected = pa.table({**{k: [v] for k, v in row.items()}, "bytes": [encode_png(arr)]}, schema=IMAGE_SCHEMA)
    se = scan_equivalence(ray.data.from_arrow(ok_actual), ray.data.from_arrow(ok_expected), num_parts=1)
    assert se["passed"] and se["min_psnr"] > 40
    # corrupted pixels (heavy noise) must fail PSNR
    bad = (arr.astype(np.int32) + rng.integers(-80, 80, arr.shape)) % 256
    bad_actual = pa.table({**{k: [v] for k, v in row.items()}, "bytes": [encode_png(bad.astype(np.uint8))]}, schema=ok_actual.schema)
    se2 = scan_equivalence(ray.data.from_arrow(bad_actual), ray.data.from_arrow(ok_expected), num_parts=1)
    assert not se2["passed"] and se2["pixel_fail"] == 1
    # caption drift must fail
    cap_actual = ok_actual.set_column(5, "caption", pa.array(["other"]))
    se3 = scan_equivalence(ray.data.from_arrow(cap_actual), ray.data.from_arrow(ok_expected), num_parts=1)
    assert not se3["passed"] and se3["caption_mismatch"] == 1
    # missing / unexpected rows must fail
    se4 = scan_equivalence(
        ray.data.from_arrow(ok_actual),
        ray.data.from_arrow(pa.concat_tables([ok_expected, ok_expected.set_column(0, "image_id", pa.array(["img_y"]))])),
        num_parts=1,
    )
    assert not se4["passed"] and se4["missing"] == 1


def test_cleanup_journal(tmp_path):
    import time as _time

    from ocel_ocpn_lakehouse_ray.stages.gc import cleanup_journal

    root = str(tmp_path / "t")
    t = create_image_table(root, 60, num_fragments=4, seed=SEED)
    t, _ = run_compaction(t, job_id="cj-1")
    jdir = os.path.join(root, "journal", "cj-1")
    assert os.path.isdir(jdir)
    # within retention: kept
    rep = cleanup_journal(root, max_age_days=1.0)
    assert "cj-1" in rep["kept"] and os.path.isdir(jdir)
    # past retention (simulated by future 'now'): removed
    rep = cleanup_journal(root, max_age_days=1.0, now=_time.time() + 10 * 86400)
    assert "cj-1" in rep["removed"] and not os.path.isdir(jdir)
    # table still fully readable — journal is only a resume aid
    assert t.to_dataset().count() == 60
