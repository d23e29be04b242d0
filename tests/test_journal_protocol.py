"""The journal protocol shared by every maintenance job (state/lineage.py):
reduce fan-outs drain every task before raising, so a crashed bin rewrite
(compaction, DELETE) has journaled every sibling bin; a resume under a
changed plan raises instead of mixing plans; only state/lineage.py reads or
writes partition records; and every job fans its tasks out through
``fs_shuffle.fan_out``."""

import os
import pathlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from ocel_ocpn_lakehouse_ray.sources.generator import create_image_table, gen_batch
from ocel_ocpn_lakehouse_ray.stages.clustering import run_clustering
from ocel_ocpn_lakehouse_ray.stages.compaction import plan_compaction, run_compaction
from ocel_ocpn_lakehouse_ray.stages.delete import run_delete
from ocel_ocpn_lakehouse_ray.stages.fs_shuffle import fs_shuffle_groups
from ocel_ocpn_lakehouse_ray.stages.update import run_update
from ocel_ocpn_lakehouse_ray.state import lineage
from ocel_ocpn_lakehouse_ray.table import LakeTable

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "ocel_ocpn_lakehouse_ray"


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

    ds = ray.data.from_arrow(pa.table({
        "__part": pa.array([0, 1, 2, 3], pa.int32()), "x": [1, 2, 3, 4]}))
    with pytest.raises(Exception, match="reduce failed on part 0"):
        fs_shuffle_groups(ds, part_col="__part", work_dir=str(tmp_path / "w"),
                          reduce_fn=reduce_fn)
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
