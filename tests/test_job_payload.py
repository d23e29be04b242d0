"""A committed job leaves no staged payload under its journal.

MERGE stages its source under ``journal/<job>/source/`` and cow MERGE writes
``matched/`` and ``leftover/`` sidecars beside it.  Once the manifest commit
is durable these are garbage: the job drops them right after its commit,
GC drops what a crash between the two leaves, and fsck lists it meanwhile.
Only ``meta.json`` and the partition records stay.  A MERGE stopped before
its commit keeps its staged source and resumes from it.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest
import ray.data

from ocel_ocpn_lakehouse_ray.sources.generator import (
    create_image_table,
    gen_batch,
    gen_update_batch,
    merge_source_dataset,
)
from ocel_ocpn_lakehouse_ray.stages.compaction import run_compaction
from ocel_ocpn_lakehouse_ray.stages.gc import expire_and_gc, fsck
from ocel_ocpn_lakehouse_ray.stages.merge import run_merge
from ocel_ocpn_lakehouse_ray.stages.verify import scan_equivalence
from ocel_ocpn_lakehouse_ray.state import lineage

SEED = 42
N = 200


def _staged(root: str) -> list[str]:
    return sorted(p for kind in ("source", "matched", "leftover")
                  for p in glob.glob(os.path.join(root, "journal", "*", kind)))


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


@pytest.fixture()
def dropped(monkeypatch):
    """Every ``lineage.drop_payload`` call's (job_id, names removed)."""
    calls = []
    real = lineage.drop_payload

    def spy(root, job_id):
        names = real(root, job_id)
        calls.append((job_id, names))
        return names

    monkeypatch.setattr(lineage, "drop_payload", spy)
    return calls


@pytest.mark.parametrize("plan", ["cow", "shuffle"])
def test_committed_merge_leaves_no_payload(tmp_path, pin_merge_plan, dropped,
                                           plan):
    pin_merge_plan(plan)
    root = str(tmp_path / "t")
    t = create_image_table(root, N, num_fragments=6, seed=SEED)
    t2, rep = run_merge(t, merge_source_dataset(N, seed=SEED, num_blocks=2),
                        job_id=f"m-{plan}", num_partitions=3)
    assert rep["updates"] > 0
    # the payload existed, and the commit dropped it
    (job, names), = dropped
    assert job == f"m-{plan}" and "source" in names
    if plan == "cow":
        assert "matched" in names
    assert _staged(root) == []
    assert lineage.payload(root, job) == []
    # meta and records stay: perfbench reads the plan from the meta
    assert lineage.load_job_meta(root, job)["plan"] == plan
    assert lineage.load_records(root, job)
    assert fsck(root)["stale_payload"] == []


@pytest.mark.parametrize("plan", ["cow", "shuffle"])
def test_interrupted_merge_keeps_source_and_resumes(tmp_path, pin_merge_plan,
                                                    plan):
    pin_merge_plan(plan)
    src = merge_source_dataset(N, seed=SEED, num_blocks=2)
    ref, _ = run_merge(
        create_image_table(str(tmp_path / "ref"), N, num_fragments=6, seed=SEED),
        src, job_id="m", num_partitions=3)

    root = str(tmp_path / "t")
    t = create_image_table(root, N, num_fragments=6, seed=SEED)
    with pytest.raises(Exception, match="failpoint"):
        run_merge(t, src, job_id="m", num_partitions=3, failpoint=1)
    marker = os.path.join(lineage.journal_dir(root, "m"), "source", "_SUCCESS")
    assert os.path.exists(marker)
    # GC never touches the payload of a job that has not committed
    expire_and_gc(root, keep_last=1, orphan_grace_seconds=3600)
    assert os.path.exists(marker)
    assert fsck(root)["stale_payload"] == []

    t2, _ = run_merge(t, src, job_id="m", num_partitions=3)
    se = scan_equivalence(t2.to_dataset(), ref.to_dataset(), num_parts=4)
    assert se["passed"], se
    assert _staged(root) == []


def test_gc_drops_payload_a_crash_left(tmp_path):
    root = str(tmp_path / "t")
    t = create_image_table(root, N, num_fragments=6, seed=SEED)
    t, _ = run_merge(t, merge_source_dataset(N, seed=SEED, num_blocks=2),
                     job_id="m-crash", num_partitions=3)
    # a crash between the commit and the drop leaves the staged source
    src_dir = os.path.join(lineage.journal_dir(root, "m-crash"), "source")
    os.makedirs(src_dir)
    with open(os.path.join(src_dir, "part-0.parquet"), "wb") as f:
        f.write(b"\0" * 4096)
    with open(os.path.join(src_dir, "_SUCCESS"), "w") as f:
        f.write("ok")
    rep = fsck(root)
    assert rep["stale_payload"] == ["m-crash/source"]
    assert rep["orphans"] == []  # orphans stay about data/
    # a later commit, so keep_last=1 expires the manifest stamped with the
    # job: GC reads the job ids before expiry deletes that manifest
    t = t.append_arrow(gen_batch(np.arange(5) + 8 * 10**11, SEED),
                       name_parts=("extra", "0"))
    rep = expire_and_gc(root, keep_last=1, orphan_grace_seconds=0)
    assert rep["expiry"]["expired"]
    assert rep["gc"]["payload_dropped"] == ["m-crash"]
    assert not os.path.exists(src_dir)
    assert fsck(root)["stale_payload"] == []
    assert lineage.load_job_meta(root, "m-crash") is not None


def test_space_budget_after_maintenance(tmp_path, pin_merge_plan):
    """Bytes under the table root stay within 5 % of the live fragments'
    after compaction, a cow MERGE, a co-group upsert and a closing GC."""
    root = str(tmp_path / "t")
    t = create_image_table(root, N, num_fragments=10, seed=SEED)
    t, _ = run_compaction(t, job_id="c")
    pin_merge_plan("cow")
    t, _ = run_merge(t, merge_source_dataset(N, seed=SEED, num_blocks=2),
                     job_id="m-cow")
    pin_merge_plan("shuffle")
    upsert = gen_update_batch(np.arange(0, N, 10), SEED + 1)
    t, _ = run_merge(t, ray.data.from_arrow(upsert), job_id="m-cogroup")
    expire_and_gc(root, keep_last=1, orphan_grace_seconds=0)
    live = sum(f.bytes for f in t.fragments)
    assert _dir_bytes(root) / live <= 1.05, (_dir_bytes(root), live)
