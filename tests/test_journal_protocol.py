"""The journal protocol shared by every maintenance job (state/lineage.py):
reduce fan-outs drain every task before raising, so a crashed bin rewrite
(compaction, DELETE) has journaled every sibling bin; a resume under a
changed plan raises instead of mixing plans; only state/lineage.py reads or
writes partition records; and every job fans its tasks out through
``fs_shuffle.fan_out`` (maintenance starts no Ray Data execution)."""

import os
import pathlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ocel_ocpn_lakehouse_ray.sources.generator import (
    create_image_table,
    gen_batch,
    merge_source_dataset,
)
from ocel_ocpn_lakehouse_ray.stages.clustering import run_clustering
from ocel_ocpn_lakehouse_ray.stages.compaction import plan_compaction, run_compaction
from ocel_ocpn_lakehouse_ray.stages.delete import run_delete
from ocel_ocpn_lakehouse_ray.stages.fs_shuffle import fs_reduce, fs_shuffle_map
from ocel_ocpn_lakehouse_ray.stages.merge import run_merge
from ocel_ocpn_lakehouse_ray.stages.update import run_update
from ocel_ocpn_lakehouse_ray.stages.verify import verify_merged_map_only
from ocel_ocpn_lakehouse_ray.state import lineage
from ocel_ocpn_lakehouse_ray.table import LakeTable

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "ocel_ocpn_lakehouse_ray"


def _part_files(tmp_path, parts) -> list[str]:
    """One single-row parquet file per partition id: one read block each."""
    paths = []
    for p in parts:
        paths.append(str(tmp_path / f"in-{p}.parquet"))
        pq.write_table(pa.table({"__part": pa.array([p], pa.int32()),
                                 "x": [p]}), paths[-1])
    return paths


def test_fs_shuffle_drains_every_reduce_before_raising(tmp_path):
    """Part 0 fails at once; parts 1-3 finish a moment later.  By the time
    the error surfaces every sibling has finished, so a caller's cleanup
    never deletes partials under a running task."""
    marks = str(tmp_path / "marks")
    os.makedirs(marks)

    def reduce_fn(group: pa.Table) -> pa.Table:
        import time

        part = group["__part"][0].as_py()
        if part == 0:
            raise RuntimeError("reduce failed on part 0")
        time.sleep(1.0)
        open(os.path.join(marks, f"done-{part}"), "w").close()
        return group

    manifest = fs_shuffle_map(_part_files(tmp_path, range(4)), lambda b: b,
                              part_col="__part", work_dir=str(tmp_path / "w"))
    with pytest.raises(Exception, match="reduce failed on part 0"):
        fs_reduce(manifest, reduce_fn)
    assert sorted(os.listdir(marks)) == ["done-1", "done-2", "done-3"]


def test_fs_shuffle_map_drains_every_block_before_raising(tmp_path):
    """The map side drains too: block 0's task fails at once while blocks
    1-3 sleep and then leave a mark, and every mark is there when the error
    surfaces."""
    marks = str(tmp_path / "marks")
    os.makedirs(marks)

    def map_fn(block: pa.Table) -> pa.Table:
        import time

        part = block["__part"][0].as_py()
        if part == 0:
            raise RuntimeError("map failed on block 0")
        time.sleep(1.0)
        open(os.path.join(marks, f"done-{part}"), "w").close()
        return block

    with pytest.raises(Exception, match="map failed on block 0"):
        fs_shuffle_map(_part_files(tmp_path, range(4)), map_fn,
                       part_col="__part", work_dir=str(tmp_path / "w"))
    assert sorted(os.listdir(marks)) == ["done-1", "done-2", "done-3"]


def test_compaction_resume_over_repacked_plan_raises(tmp_path):
    """A crashed compaction resumed after an append would re-pack its bins
    and rewrite a fragment twice; the bin-plan fingerprint refuses it."""
    t = create_image_table(str(tmp_path / "t"), 200, num_fragments=16, seed=3)
    with pytest.raises(Exception, match="failpoint"):
        run_compaction(t, job_id="c", failpoint=1)
    for start in range(200, 400, 25):  # small fragments join the bins
        t = t.append_arrow(gen_batch(np.arange(start, start + 25), 3))
    with pytest.raises(ValueError, match="different"):
        run_compaction(t, job_id="c")
    assert LakeTable.load(t.root).version == t.version  # nothing committed


@pytest.mark.parametrize("first,resume", [
    (dict(order="zorder"), dict(order="hilbert")),
    (dict(order="zorder", num_partitions=4),
     dict(order="zorder", num_partitions=2)),
])
def test_clustering_resume_with_other_parameters_raises(tmp_path, first, resume):
    t = create_image_table(str(tmp_path / "t"), 200, num_fragments=8, seed=3)
    with pytest.raises(Exception, match="failpoint"):
        run_clustering(t, job_id="cl", failpoint=1,
                       **{"num_partitions": 4, **first})
    with pytest.raises(ValueError, match="different"):
        run_clustering(t, job_id="cl", **{"num_partitions": 4, **resume})
    # the parameters of the first run still resume it
    t2, rep = run_clustering(t, job_id="cl", **{"num_partitions": 4, **first})
    assert rep["rows"] == 200 == t2.manifest.total_rows


def test_partition_records_are_touched_only_by_the_protocol():
    """Record reads and writes stay behind state/lineage.py, so the journal
    format and the load-or-run rule live in one module."""
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).as_posix() == "state/lineage.py":
            continue
        text = path.read_text()
        if re.search(r"\b_?(write|load)_record\b", text):
            offenders.append(path.relative_to(PACKAGE).as_posix())
    assert offenders == []


def _bin_ids(n: int, skip: int) -> list[str]:
    return [f"bin-{i:05d}" for i in range(n) if i != skip]


def test_compaction_crash_journals_every_other_bin(tmp_path):
    t = create_image_table(str(tmp_path / "t"), 200, num_fragments=16, seed=3)
    n = len(plan_compaction(t.fragments,
                            target_bytes=t.config.target_fragment_bytes).bins)
    assert n >= 3
    with pytest.raises(Exception, match="failpoint"):
        run_compaction(t, job_id="c", failpoint=0)
    assert sorted(lineage.load_records(t.root, "c")) == _bin_ids(n, 0)
    assert LakeTable.load(t.root).version == t.version  # nothing committed
    t2, rep = run_compaction(t, job_id="c")
    assert rep["bins"] == n and t2.manifest.total_rows == 200


def test_delete_crash_journals_every_other_candidate(tmp_path):
    t = create_image_table(str(tmp_path / "t"), 300, num_fragments=10, seed=13)
    pred = [{"column": "w", "op": "between", "lo": 32, "hi": 128}]
    with pytest.raises(Exception, match="failpoint"):
        run_delete(t, pred, job_id="d", failpoint=0)
    recs = lineage.load_records(t.root, "d")
    assert len(t.fragments) >= 4
    assert sorted(recs) == _bin_ids(len(t.fragments), 0)
    assert all(len(r.frags_in) == 1 for r in recs.values())
    t2, rep = run_delete(t, pred, job_id="d")
    assert rep["rewritten"] == len(t.fragments)
    assert t2.manifest.total_rows + rep["deleted"] == 300


def test_delete_resume_over_rewritten_candidate_raises(tmp_path):
    """DELETE records are keyed by candidate index; a resume after another
    commit rewrote a candidate would match them to the wrong fragments, so
    the candidate ids are in the fingerprint and the resume raises."""
    t = create_image_table(str(tmp_path / "t"), 300, num_fragments=10, seed=13)
    pred = [{"column": "w", "op": "between", "lo": 32, "hi": 128}]
    with pytest.raises(Exception, match="failpoint"):
        run_delete(t, pred, job_id="d", failpoint=0)
    first = pq.read_table(os.path.join(t.root, t.fragments[0].path),
                          columns=["image_id"])["image_id"][0].as_py()
    t, rep = run_update(t, [{"column": "image_id", "op": "eq", "value": first}],
                        [{"column": "caption", "set": "x"}])
    assert rep["rewritten"] == 1
    with pytest.raises(ValueError, match="different"):
        run_delete(t, pred, job_id="d")
    assert LakeTable.load(t.root).version == t.version  # nothing committed


def test_only_fan_out_declares_ray_tasks():
    """Jobs fan tasks out through ``fs_shuffle.fan_out`` alone, so each
    one drains every sibling before a failure surfaces; no stage fans
    partitions out as ``map_batches(batch_size=1)`` rows, whose job Ray
    Data aborts at the first failed row."""
    remote = {path.relative_to(PACKAGE).as_posix(): len(re.findall(
                  r"@ray\.remote\b", path.read_text()))
              for path in sorted(PACKAGE.rglob("*.py"))}
    assert {p: n for p, n in remote.items() if n} == {"stages/fs_shuffle.py": 1}
    fs = (PACKAGE / "stages" / "fs_shuffle.py").read_text()
    fan_out = fs[fs.index("def fan_out("):fs.index("def fs_reduce(")]
    assert "@ray.remote" in fan_out
    offenders = [
        path.relative_to(PACKAGE).as_posix()
        for path in sorted((PACKAGE / "stages").rglob("*.py"))
        if re.search(r"batch_size\s*=\s*1\b", path.read_text())
    ]
    assert offenders == []


def test_stages_call_ray_data_only_on_a_users_dataset():
    """Under stages/, ``map_batches`` and the Dataset reader ``read_files``
    are called only by helpers that take or return a user's Dataset."""
    callers = {}
    for path in sorted((PACKAGE / "stages").rglob("*.py")):
        text = path.read_text()
        for m in re.finditer(r"\.map_batches\(|\bread_files\(", text):
            fn = re.findall(r"^def (\w+)", text[:m.start()], re.M)[-1]
            callers.setdefault(path.name, set()).add(fn)
    assert callers == {"components.py": {"distributed_components"},
                       "constraints.py": {"check_constraints"},
                       "multimodal.py": {"decode_stats_pipeline"},
                       "verify.py": {"scan_equivalence"}}


def _maintenance_reports(root: str, src, src2, monkeypatch) -> list:
    """Full-path clustering, a MERGE pruned on the driver, both verify
    gates, an incremental re-cluster and a MERGE pruned in tasks; each
    report without its timings."""
    from ocel_ocpn_lakehouse_ray.stages import merge

    def bare(rep: dict) -> dict:
        return {k: v for k, v in rep.items()
                if k not in ("seconds", "rows_per_sec", "phase_seconds")}

    n = 200
    t = create_image_table(root, n, num_fragments=8, seed=5)
    t, full = run_clustering(t, order="zorder", job_id="full")
    pre = t
    t, m1 = run_merge(t, src, job_id="m1")
    merged = verify_merged_map_only(t, n=n, seed=5)
    snap = verify_merged_map_only(LakeTable.load(root, version=pre.version),
                                  n=n, seed=5, merged=False)
    assert merged["passed"] and snap["passed"], (merged, snap)
    t = t.append_arrow(gen_batch(np.arange(2 * n, 2 * n + 10), 5))
    t, inc = run_clustering(t, order="zorder", job_id="inc")
    assert (full["path"], inc["path"]) == ("full", "incremental")
    with monkeypatch.context() as m:
        m.setattr(merge, "MAX_DRIVER_KEYS", 0)
        t, m2 = run_merge(t, src2, job_id="m2")
    return [bare(r) for r in (full, m1, merged, snap, inc, m2)]


def test_maintenance_starts_no_ray_data_execution(tmp_path, monkeypatch):
    """With the engine reader (``read_files``, which returns a Ray Data
    Dataset) patched to raise, clustering on both paths, MERGE with driver
    and distributed pruning and both verify gates still run, and give the
    reports they give unpatched: maintenance starts its tasks only through
    ``fan_out``.  The MERGE sources are materialised before the patch."""
    from ocel_ocpn_lakehouse_ray.sources import fragments

    src = merge_source_dataset(200, seed=5, num_blocks=2).materialize()
    src2 = merge_source_dataset(200, seed=6, num_blocks=2).materialize()
    want = _maintenance_reports(str(tmp_path / "a"), src, src2, monkeypatch)

    def no_dataset(*args, **kwargs):
        raise AssertionError("maintenance started a Ray Data read")

    monkeypatch.setattr(fragments, "read_files", no_dataset)
    got = _maintenance_reports(str(tmp_path / "b"), src, src2, monkeypatch)
    assert got == want
