"""Incremental re-clustering: range-stamped fragments, a cow MERGE that keeps
them in range, and a re-cluster that routes only the unstamped rows.

A clustering stamps each fragment it writes with its salted-key range
(``cluster_range``).  A cow MERGE, a DELETE or an UPDATE rewrites a stamped
fragment as the rows still inside that range, sorted and re-stamped, plus an
unstamped fragment of movers.  ``run_clustering`` then routes only the unstamped rows through
the stamped ranges into one delta run per range, folding base and delta
once the delta passes half the base; without usable stamps, with an
explicit ``num_partitions`` or with too much unstamped data it rewrites the
whole table, as it always did.
"""

from __future__ import annotations

import os
import shutil
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from ocel_ocpn_lakehouse_ray.config import TableConfig
from ocel_ocpn_lakehouse_ray.sources.generator import (
    _update_mask,
    create_image_table,
    gen_batch,
    gen_update_batch,
    merge_source_dataset,
)
from ocel_ocpn_lakehouse_ray.stages.clustering import (
    _salted,
    range_of,
    run_clustering,
    sample_boundaries,
)
from ocel_ocpn_lakehouse_ray.stages.compaction import run_compaction
from ocel_ocpn_lakehouse_ray.stages.delete import run_delete
from ocel_ocpn_lakehouse_ray.stages.merge import run_merge
from ocel_ocpn_lakehouse_ray.stages.update import run_update
from ocel_ocpn_lakehouse_ray.stages.plan import generate_maintenance_plan
from ocel_ocpn_lakehouse_ray.stages.verify import (
    scan_equivalence,
    verify_merged_map_only,
)
from ocel_ocpn_lakehouse_ray.state import lineage
from ocel_ocpn_lakehouse_ray.table import LakeTable

SEED = 11
N = 1000
APPENDS = 50
APPEND_BASE = 950_000_000_000
# one fragment per range run at 6 ranges of ~2 MB
CONFIG = TableConfig(target_fragment_bytes=8 << 20, small_file_bytes=1 << 20,
                     cluster_order="zorder")
REPORT_KEYS = {"job_id", "order", "path", "partitions", "fragments_in",
               "fragments_out", "rows", "ranges_rewritten", "bytes_written",
               "seconds", "rows_per_sec", "phase_seconds"}


def _added_bytes(before, after) -> int:
    old = before.manifest.fragment_ids()
    return sum(f.bytes for f in after.fragments if f.fragment_id not in old)


def _append_rows(t, k: int, first: int = APPEND_BASE, per_commit: int = 1):
    """``k`` rows of fresh ids, ``per_commit`` rows a commit."""
    ids = np.arange(first, first + k, dtype=np.uint64)
    for i in range(0, k, per_commit):
        t = t.append_arrow(gen_batch(ids[i:i + per_commit], SEED + 2))
    return t


def _expected(appended: int) -> pa.Table:
    """The generator's rows after the MERGE and ``appended`` appends."""
    ids = np.arange(N, dtype=np.uint64)
    upd = _update_mask(ids, SEED)
    return pa.concat_tables([
        gen_batch(ids[~upd], SEED),
        gen_update_batch(ids[upd], SEED),
        gen_batch(np.arange(N // 20, dtype=np.uint64) + 9 * 10**11, SEED + 7),
        gen_batch(np.arange(APPEND_BASE, APPEND_BASE + appended,
                            dtype=np.uint64), SEED + 2),
    ])


def _check_stamps(t, order: str = "zorder") -> Counter:
    """Every stamped fragment is sorted by salted key, holds only keys of its
    range and carries its rows' cluster_key; returns fragments per
    (range, run)."""
    runs = Counter()
    for f in t.fragments:
        st = f.stats.get("cluster_range")
        if st is None:
            continue
        assert st["order"] == order
        sk = _salted(pq.read_table(os.path.join(t.root, f.path)), order)
        assert (sk[1:] >= sk[:-1]).all(), "stamped fragment not key-sorted"
        assert st["lo"] <= int(sk[0]) and int(sk[-1]) <= st["hi"]
        assert f.stats["cluster_key"] == {"min": int(sk[0] >> np.uint64(16)),
                                          "max": int(sk[-1] >> np.uint64(16)),
                                          "null_count": 0}
        runs[(st["lo"], st["hi"], st["run"])] += 1
    return runs


@pytest.fixture(scope="module")
def merged_root(tmp_path_factory):
    """compaction -> Z-order (6 ranges) -> cow MERGE; returns (root, first
    clustering's bytes)."""
    root = str(tmp_path_factory.mktemp("inc") / "merged")
    t = create_image_table(root, N, seed=SEED, num_fragments=50, config=CONFIG)
    t, _ = run_compaction(t, job_id="c")
    prev = t
    t, rep = run_clustering(t, order="zorder", job_id="z", num_partitions=6)
    assert rep["path"] == "full"
    first_bytes = _added_bytes(prev, t)
    t, mrep = run_merge(t, merge_source_dataset(N, seed=SEED, num_blocks=2),
                        job_id="m")
    assert lineage.load_job_meta(root, "m")["plan"] == "cow"
    assert mrep["updates"] > 0
    return root, first_bytes


@pytest.fixture()
def merged(merged_root, tmp_path):
    """A private copy of the merged table."""
    root = str(tmp_path / "t")
    shutil.copytree(merged_root[0], root)
    return LakeTable.load(root), merged_root[1]


def test_write_continues_its_sequence_across_calls(tmp_path):
    root = str(tmp_path / "t")
    os.makedirs(os.path.join(root, "data"))
    batch = gen_batch(np.arange(10, dtype=np.uint64), SEED)

    def kernel(write):
        metas = (write(batch.slice(0, 4), target_bytes=1 << 30)
                 + write(batch.slice(4), target_bytes=1 << 30))
        return metas, batch.num_rows, {}

    rec = lineage.run_partition(root, "j", "p0", kernel, frags_in=[])
    metas = rec.out_metas()
    assert len({m.fragment_id for m in metas}) == 2
    assert [pq.read_table(os.path.join(root, m.path)).num_rows
            for m in metas] == [4, 6]


def test_cow_merge_keeps_stamps_honest(merged):
    t, _ = merged
    runs = _check_stamps(t)
    assert len(runs) == 6 and set(runs.values()) == {1}
    assert {run for _, _, run in runs} == {"base"}
    movers = [f for f in t.fragments if "cluster_range" not in f.stats]
    assert movers, "an update moved no row out of its range"
    vr = verify_merged_map_only(t, n=N, seed=SEED)
    assert vr["passed"], vr


def test_compaction_leaves_clustered_runs_alone(merged):
    """Stamped fragments below the target size are not compaction
    candidates: binning them would drop their placement."""
    t, _ = merged
    t = _append_rows(t, 5)
    stamped = {f.fragment_id for f in t.fragments if "cluster_range" in f.stats}
    assert all(f.bytes < CONFIG.target_fragment_bytes for f in t.fragments)
    t2, rep = run_compaction(t, job_id="c2")
    assert stamped <= t2.manifest.fragment_ids()
    assert rep["fragments_in"] == len(t.fragments) - len(stamped)


def test_recluster_routes_only_what_moved(merged):
    t, first_bytes = merged
    t = _append_rows(t, APPENDS)
    unstamped = {f.fragment_id for f in t.fragments
                 if "cluster_range" not in f.stats}
    prev = t
    t2, rep = run_clustering(t, order="zorder", job_id="rz")
    assert rep["path"] == "incremental"
    written = _added_bytes(prev, t2)
    assert written == rep["bytes_written"]
    assert written <= 0.2 * first_bytes, (written, first_bytes)
    # the job removed what it read: every unstamped fragment and old run
    removed = prev.manifest.fragment_ids() - t2.manifest.fragment_ids()
    assert unstamped <= removed
    assert rep["fragments_in"] == len(removed)
    assert all("cluster_range" in f.stats for f in t2.fragments)
    runs = _check_stamps(t2)
    assert set(runs.values()) == {1}  # one base, at most one delta per range
    new_bases = [f for f in t2.fragments if f.fragment_id not in prev.manifest
                 .fragment_ids() and f.stats["cluster_range"]["run"] == "base"]
    assert rep["ranges_rewritten"] == len(new_bases)
    se = scan_equivalence(t2.to_dataset(),
                          ray.data.from_arrow(_expected(APPENDS)), num_parts=4)
    assert se["passed"], se
    # a second round appends to the same delta runs
    t3, rep3 = run_clustering(_append_rows(t2, 5, APPEND_BASE + APPENDS),
                              order="zorder", job_id="rz2")
    assert rep3["path"] == "incremental"
    assert set(_check_stamps(t3).values()) == {1}
    se = scan_equivalence(t3.to_dataset(),
                          ray.data.from_arrow(_expected(APPENDS + 5)),
                          num_parts=4)
    assert se["passed"], se
    # nothing left to place: the plan no longer asks for clustering
    assert not any(j["job"] == "clustering"
                   for j in generate_maintenance_plan(t3)["jobs"])


def test_a_full_delta_folds_into_a_new_base(merged):
    """Routed rows past half a range's base bytes rewrite base + delta."""
    t, _ = merged
    t = _append_rows(t, 400, per_commit=400)  # under the full-path share
    prev = t
    t2, rep = run_clustering(t, job_id="fold")
    assert rep["path"] == "incremental" and rep["ranges_rewritten"] > 0
    runs = _check_stamps(t2)
    assert set(runs.values()) == {1}
    assert rep["rows"] == sum(f.rows for f in prev.fragments
                              if f.fragment_id not in t2.manifest.fragment_ids())
    se = scan_equivalence(t2.to_dataset(),
                          ray.data.from_arrow(_expected(400)), num_parts=4)
    assert se["passed"], se


def _assert_full_rewrite(t, rep, order: str, job_id: str):
    """The full path: fresh boundaries from the sample, every fragment read,
    every range written as one stamped base run."""
    assert rep["path"] == "full"
    P = rep["partitions"]
    bounds = lineage.load_job_meta(t.root, job_id)["boundaries"]
    assert bounds == sample_boundaries(t, order, P)
    assert rep["fragments_in"] == len(t.fragments)
    assert rep["rows"] == t.manifest.total_rows
    assert rep["ranges_rewritten"] == rep["fragments_out"]


@pytest.mark.parametrize("case", ["no_stamps", "other_order",
                                  "num_partitions", "mostly_unstamped"])
def test_full_path_conditions(merged, tmp_path, case):
    t, _ = merged
    order, kw = "zorder", {}
    if case == "no_stamps":
        t = create_image_table(str(tmp_path / "fresh"), 300, seed=SEED,
                               num_fragments=10, config=CONFIG)
    elif case == "other_order":
        order = "hilbert"
    elif case == "num_partitions":
        kw = {"num_partitions": 6}
    else:
        t = _append_rows(t, N, per_commit=N)
    expected = t.to_dataset()
    t2, rep = run_clustering(t, order=order, job_id=f"full-{case}", **kw)
    _assert_full_rewrite(t, rep, order, f"full-{case}")
    bounds = lineage.load_job_meta(t.root, f"full-{case}")["boundaries"]
    runs = _check_stamps(t2, order)
    assert {(lo, hi) for lo, hi, _ in runs} <= {
        range_of(bounds, p) for p in range(len(bounds) + 1)}
    assert t2.manifest.fragment_ids().isdisjoint(t.manifest.fragment_ids())
    se = scan_equivalence(t2.to_dataset(), expected, num_parts=4)
    assert se["passed"], se


def test_incremental_resume_and_fingerprint(merged, tmp_path):
    t, _ = merged
    t = _append_rows(t, APPENDS)
    ref_root = str(tmp_path / "ref")
    shutil.copytree(t.root, ref_root)
    ref, _ = run_clustering(LakeTable.load(ref_root), job_id="inc")

    with pytest.raises(Exception, match="failpoint"):
        run_clustering(t, job_id="inc", failpoint=1)
    assert LakeTable.load(t.root).version == t.version  # nothing committed
    t2, rep = run_clustering(t, job_id="inc")
    assert rep["path"] == "incremental"
    assert ({f.fragment_id: f.stats for f in t2.fragments}
            == {f.fragment_id: f.stats for f in ref.fragments})

    # an append between the crash and the resume changes the plan
    t2 = _append_rows(t2, 1, APPEND_BASE + APPENDS)
    with pytest.raises(Exception, match="failpoint"):
        run_clustering(t2, job_id="inc2", failpoint=0)
    t3 = _append_rows(t2, 1, APPEND_BASE + APPENDS + 1)
    with pytest.raises(ValueError, match="different"):
        run_clustering(t3, job_id="inc2")


def test_report_shape_on_both_paths(merged):
    t, _ = merged
    t, full = run_clustering(t, job_id="shape-full", num_partitions=6)
    t, inc = run_clustering(_append_rows(t, 3), job_id="shape-inc")
    for rep, path in ((full, "full"), (inc, "incremental")):
        assert set(rep) == REPORT_KEYS
        assert rep["path"] == path
        assert set(rep["phase_seconds"]) == {"plan", "exchange", "commit"}
    assert inc["rows"] == 3 and inc["fragments_in"] == 3
    assert full["rows"] == t.manifest.total_rows - 3


def test_plan_recommends_clustering_for_unplaced_bytes(tmp_path):
    t = create_image_table(str(tmp_path / "t"), 200, seed=SEED,
                           num_fragments=4, config=CONFIG)
    job, = [j for j in generate_maintenance_plan(t)["jobs"]
            if j["job"] == "clustering"]
    assert job["order"] == "zorder"
    assert job["reason"].startswith("100.0% of live bytes unplaced")
    t, _ = run_clustering(t, job_id="z")
    assert not any(j["job"] == "clustering"
                   for j in generate_maintenance_plan(t)["jobs"])


def test_sample_boundaries_ignore_fragment_names(tmp_path):
    """Two tables with the same rows in differently named fragments (plain
    appends get random names) sample the same rows: the fragment subset and
    each fragment's row sample follow content, not file names."""
    rng = np.random.default_rng(5)
    n_frags, per = 20, 1000
    ids = np.arange(n_frags * per)
    cols = {"phash": rng.integers(-2**62, 2**62, len(ids)),
            "w": rng.integers(8, 64, len(ids)).astype(np.int32),
            "h": rng.integers(8, 64, len(ids)).astype(np.int32)}
    schema = pa.schema([("image_id", pa.string()), ("phash", pa.int64()),
                        ("w", pa.int32()), ("h", pa.int32())])
    bounds = []
    for name in ("a", "b"):
        t = LakeTable.create(str(tmp_path / name), schema)
        for j in range(n_frags):
            sl = slice(j * per, (j + 1) * per)
            t = t.append_arrow(pa.table(
                {"image_id": [f"img-{i:08d}" for i in ids[sl]],
                 **{c: v[sl] for c, v in cols.items()}}, schema=schema))
        bounds.append(sample_boundaries(t, "zorder", 4))
    assert len(bounds[0]) == 3
    assert bounds[0] == bounds[1]


# ------------------------------------------------- DELETE / UPDATE in range

IN_W = [{"column": "w", "op": "between", "lo": 32, "hi": 40}]


@pytest.fixture(scope="module")
def zordered_root(tmp_path_factory):
    """1,000 rows at seed 201, compacted, then Z-ordered into 13 stamped
    fragments (default config)."""
    root = str(tmp_path_factory.mktemp("dml") / "z")
    t = create_image_table(root, N, seed=201)
    t, _ = run_compaction(t, job_id="c")
    t, rep = run_clustering(t, order="zorder", job_id="z")
    assert rep["path"] == "full"
    assert len(_check_stamps(t)) == len(t.fragments) == 13
    return root


@pytest.fixture()
def zordered(zordered_root, tmp_path):
    root = str(tmp_path / "t")
    shutil.copytree(zordered_root, root)
    return LakeTable.load(root)


def _assert_no_recluster(t):
    t2, rep = run_clustering(t, order="zorder", job_id="z2")
    assert rep["path"] == "incremental"
    assert rep["fragments_in"] == 0 and rep["bytes_written"] == 0
    assert t2.version == t.version  # nothing committed


@pytest.mark.parametrize("verb", ["delete", "update"])
def test_dml_keeps_every_stamp(zordered, verb):
    """DELETE never moves a row out of its range and a caption-only UPDATE
    moves none either: every rewritten fragment keeps its stamp, and the
    next re-cluster has nothing to do."""
    if verb == "delete":
        t, rep = run_delete(zordered, IN_W, job_id="dml")
        assert rep["deleted"] > 0
        assert t.manifest.total_rows == N - rep["deleted"]
    else:
        t, rep = run_update(zordered, IN_W,
                            [{"column": "caption", "prefix": "edited: "}],
                            job_id="dml")
        assert rep["updated"] > 0
        cap = t.to_arrow(columns=["caption"])["caption"].to_pylist()
        assert sum(c.startswith("edited: ") for c in cap) == rep["updated"]
    assert rep["rewritten"] == 13
    assert len(_check_stamps(t)) == len(t.fragments) == 13
    _assert_no_recluster(t)


def test_update_of_the_key_unstamps_only_the_movers(zordered):
    """An UPDATE that sets phash writes a row unstamped exactly when its new
    salted key left its fragment's range."""
    before = zordered.to_arrow(columns=["phash"])["phash"].to_numpy()
    old_range = {}
    for f in zordered.fragments:
        st = f.stats["cluster_range"]
        ids = pq.read_table(os.path.join(zordered.root, f.path),
                            columns=["image_id"])["image_id"].to_pylist()
        old_range.update((i, (st["lo"], st["hi"])) for i in ids)
    t, rep = run_update(zordered, IN_W,
                        [{"column": "phash", "set": int(np.median(before))}],
                        job_id="dml")
    _check_stamps(t)  # every stamped row is inside its range
    movers = 0
    for f in t.fragments:
        if "cluster_range" in f.stats:
            continue
        rows = pq.read_table(os.path.join(t.root, f.path))
        assert all(32 <= w <= 40 for w in rows["w"].to_pylist())
        for i, sk in zip(rows["image_id"].to_pylist(), _salted(rows, "zorder")):
            lo, hi = old_range[i]
            assert not lo <= int(sk) <= hi
            movers += 1
    assert 0 < movers < rep["updated"]  # some updated rows stayed in range
    assert t.manifest.total_rows == N


def test_full_path_resume_after_a_concurrent_commit_raises(tmp_path):
    """A full-path clustering crashes after journaling ranges 0–2 of 4; a
    DELETE of a range-0 row and an append that routes to range 0 commit
    before the resume.  The resume under the same job id raises (its inputs
    changed) and commits nothing; a fresh job id then commits exactly the
    live rows."""
    root = str(tmp_path / "t")
    t = create_image_table(root, 400, num_fragments=40, seed=SEED)
    t, _ = run_compaction(t, job_id="c")
    with pytest.raises(Exception, match="failpoint"):
        run_clustering(t, order="zorder", job_id="full", num_partitions=4,
                       failpoint=3)
    bounds = np.array(lineage.load_job_meta(root, "full")["boundaries"],
                      dtype=np.uint64)

    def range_0(tbl):
        part = np.searchsorted(bounds, _salted(tbl, "zorder"), side="right")
        return tbl.filter(pa.array(part == 0))

    victim = range_0(t.to_arrow())["image_id"][0].as_py()
    t, rep = run_delete(
        t, [{"column": "image_id", "op": "eq", "value": victim}], job_id="d")
    assert rep["deleted"] == 1
    t = t.append_arrow(range_0(gen_batch(np.arange(50) + APPEND_BASE,
                                         SEED + 1)).slice(0, 1))
    live = Counter(t.to_arrow(columns=["image_id"])["image_id"].to_pylist())
    assert len(live) == 400 and victim not in live

    with pytest.raises(ValueError, match="different"):
        run_clustering(t, order="zorder", job_id="full", num_partitions=4)
    assert LakeTable.load(root).version == t.version
    t2, rep = run_clustering(t, order="zorder", job_id="full-2",
                             num_partitions=4)
    assert rep["rows"] == 400
    assert Counter(t2.to_arrow(columns=["image_id"])["image_id"]
                   .to_pylist()) == live
