"""Compaction sizes fragments in the unit its writer splits on.

The fragment writer splits an output at ``target_fragment_bytes`` of Arrow
bytes, and every fragment carries that size as its ``__nbytes`` stat.  The
planner bins in the same unit, so a bin is one output and a full output is
never rewritten again.  The table here is the worst case for file bytes:
every append carries the same 25 payloads, so parquet's dictionary encoding
stores a 200-row output in about the file size of one 25-row append.
"""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from ocel_ocpn_lakehouse_ray.config import TableConfig
from ocel_ocpn_lakehouse_ray.sources.generator import gen_batch
from ocel_ocpn_lakehouse_ray.stages.compaction import plan_compaction, run_compaction
from ocel_ocpn_lakehouse_ray.stages.plan import generate_maintenance_plan
from ocel_ocpn_lakehouse_ray.stages.verify import scan_equivalence
from ocel_ocpn_lakehouse_ray.state.manifest import FragmentMeta
from ocel_ocpn_lakehouse_ray.table import IMAGE_SCHEMA, LakeTable

POOL = gen_batch(np.arange(25), 7)
FIRST, MORE = 16, 8  # appends before the first and before the second compaction
REPORT_KEYS = {"job_id", "bins", "fragments_in", "fragments_out", "rows",
               "bytes_read", "bytes_written", "seconds", "rows_per_sec",
               "phase_seconds", "estimate"}


def _batch(i: int) -> pa.Table:
    """The pool's 25 rows under fresh image ids (same width, same nbytes)."""
    ids = pa.array([f"img_{9_000_000 + i * 100 + k:012d}" for k in range(25)])
    return POOL.set_column(0, "image_id", ids)


def _append(t, lo: int, hi: int):
    for i in range(lo, hi):
        t = t.append_arrow(_batch(i))
    return t


def _expected(n: int):
    return ray.data.from_arrow(pa.concat_tables([_batch(i) for i in range(n)]))


def _added(before, after) -> list:
    old = before.manifest.fragment_ids()
    return [f for f in after.fragments if f.fragment_id not in old]


def _jobs(t) -> list:
    return [j["job"] for j in generate_maintenance_plan(t)["jobs"]]


@pytest.fixture(scope="module")
def compacted(tmp_path_factory):
    """Eight appends fit a target, nine do not."""
    target = 8 * POOL.nbytes + POOL.nbytes // 2
    cfg = TableConfig(target_fragment_bytes=target, small_file_bytes=target // 4)
    root = str(tmp_path_factory.mktemp("sizing") / "t")
    t = _append(LakeTable.create(root, IMAGE_SCHEMA, cfg), 0, FIRST)
    t1, rep1 = run_compaction(t, job_id="c1")
    t2 = _append(t1, FIRST, FIRST + MORE)
    t3, rep2 = run_compaction(t2, job_id="c2")
    return dict(target=target, t=t, t1=t1, rep1=rep1, t2=t2, t3=t3, rep2=rep2)


def test_each_row_is_compacted_once(compacted):
    c = compacted
    assert c["rep1"]["rows"] == FIRST * 25
    # the first pass's outputs are full: only the new appends are rewritten
    assert c["rep2"]["rows"] == MORE * 25
    for t, n in ((c["t1"], FIRST), (c["t3"], FIRST + MORE)):
        se = scan_equivalence(t.to_dataset(), _expected(n), num_parts=4)
        assert se["passed"], se


def test_outputs_are_within_target_one_per_bin(compacted):
    c = compacted
    for before, after, rep in ((c["t"], c["t1"], c["rep1"]),
                               (c["t2"], c["t3"], c["rep2"])):
        outs = _added(before, after)
        assert len(outs) == rep["bins"] == rep["fragments_out"]
        assert all(f.arrow_bytes <= c["target"] for f in outs)
        # the case file bytes miss: parquet stores each output small
        assert all(f.bytes < c["target"] // 4 for f in outs)


def test_unstamped_fragment_plans_by_file_bytes(compacted):
    c = compacted
    out = _added(c["t"], c["t1"])[0]
    appends = _added(c["t1"], c["t2"])
    plan = plan_compaction([out] + appends, target_bytes=c["target"])
    assert out in plan.untouched
    # a manifest written before the stamp: the output weighs its file size
    d = out.to_dict()
    d["stats"] = {k: v for k, v in d["stats"].items() if k != "__nbytes"}
    legacy = FragmentMeta.from_dict(d)
    assert legacy.arrow_bytes == legacy.bytes
    plan = plan_compaction([legacy] + appends, target_bytes=c["target"])
    assert any(legacy in b for b in plan.bins)


def test_no_single_fragment_bin():
    tiny = FragmentMeta("a", "data/a.parquet", rows=1, bytes=10, stats={})
    big = FragmentMeta("b", "data/b.parquet", rows=1, bytes=95, stats={})
    plan = plan_compaction([tiny, big], target_bytes=100)
    assert plan.bins == [] and {f.fragment_id for f in plan.untouched} == {"a", "b"}


def test_maintenance_plan_agrees_with_compaction(compacted):
    c = compacted
    assert "compaction" in _jobs(c["t2"])
    assert "compaction" not in _jobs(c["t3"])
    t4, rep = run_compaction(c["t3"], job_id="c3")
    assert rep["bins"] == 0 and t4.version == c["t3"].version


def test_report_keys(compacted):
    c = compacted
    rep = c["rep2"]
    assert set(rep) == REPORT_KEYS
    assert set(rep["phase_seconds"]) == {"plan", "rewrite", "commit"}
    assert rep["bytes_read"] == sum(f.bytes for f in _added(c["t3"], c["t2"]))
    assert rep["bytes_written"] == sum(f.bytes for f in _added(c["t2"], c["t3"]))
