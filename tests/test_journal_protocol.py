"""The journal protocol shared by every maintenance job (state/lineage.py):
reduce fan-outs drain every task before raising, a resume under a changed
plan raises instead of mixing plans, and only state/lineage.py reads or
writes partition records."""

import os
import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from ocel_ocpn_lakehouse_ray.sources.generator import create_image_table, gen_batch
from ocel_ocpn_lakehouse_ray.stages.clustering import run_clustering
from ocel_ocpn_lakehouse_ray.stages.compaction import run_compaction
from ocel_ocpn_lakehouse_ray.stages.fs_shuffle import fs_shuffle_groups
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
