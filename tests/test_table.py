"""Table-format tests: manifest chain, atomic commit, stats soundness,
snapshot-pinned reads, and the distributed append path (SURVEY.md §7 step 3)."""

import os

import numpy as np
import pyarrow as pa
import pytest

from ocel_ocpn_lakehouse_ray.config import TableConfig
from ocel_ocpn_lakehouse_ray.sources.generator import create_image_table, gen_batch
from ocel_ocpn_lakehouse_ray.state import manifest as mf
from ocel_ocpn_lakehouse_ray.table import IMAGE_SCHEMA, LakeTable


def test_create_and_load(tmp_table_root):
    t = LakeTable.create(tmp_table_root, IMAGE_SCHEMA, TableConfig(target_fragment_bytes=1 << 20))
    assert t.version == 0 and t.fragments == []
    t2 = LakeTable.load(tmp_table_root)
    assert t2.schema.equals(IMAGE_SCHEMA)
    assert t2.config.target_fragment_bytes == 1 << 20


def test_append_arrow_and_stats_soundness(tmp_table_root):
    t = LakeTable.create(tmp_table_root, IMAGE_SCHEMA, TableConfig(target_fragment_bytes=1 << 20))
    tbl = gen_batch(np.arange(100))
    t = t.append_arrow(tbl)
    assert t.version == 1
    assert t.manifest.total_rows == 100
    # stats soundness (FIXTURES.md invariant 5): min/max bounds contain all values
    back = t.to_arrow()
    for frag in t.fragments:
        import pyarrow.parquet as pq

        ft = pq.read_table(os.path.join(tmp_table_root, frag.path))
        for col, st in frag.stats.items():
            if col.startswith("__"):  # reserved (e.g. __bloom sidecar ref)
                continue
            vals = ft[col].to_pylist()
            assert min(vals) == st["min"] and max(vals) == st["max"]
    assert back.sort_by("image_id")["caption"].to_pylist() == tbl.sort_by("image_id")["caption"].to_pylist()


def test_distributed_append_and_exact_roundtrip(tmp_table_root):
    t = create_image_table(tmp_table_root, 300, num_fragments=12)
    assert t.manifest.total_rows == 300
    assert len(t.fragments) >= 12
    # dataset read matches driver-side expectation exactly
    got = t.to_dataset(columns=["image_id", "caption"]).to_pandas().sort_values("image_id")
    exp = gen_batch(np.arange(300)).select(["image_id", "caption"]).to_pandas().sort_values("image_id")
    assert got["caption"].tolist() == exp["caption"].tolist()


@pytest.mark.parametrize("n,num_fragments,rows", [
    (1050, 100, [10] * 105), (1000, 16, [62] * 16 + [8])])
def test_seed_table_build(tmp_table_root, monkeypatch, n, num_fragments, rows):
    """create_image_table splits n // num_fragments ids per fragment (a
    remainder adds fragments), lists them in id order, writes gen_batch of
    each fragment's ids, and runs at most one fan_out task per cluster CPU
    and no Ray Data execution."""
    import pyarrow.parquet as pq
    import ray
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from ocel_ocpn_lakehouse_ray.stages import fs_shuffle

    tasks, real_fan_out = [], fs_shuffle.fan_out

    def counted(fn, calls):
        tasks.append(len(calls))
        return real_fan_out(fn, calls)

    def no_ray_data(*_, **__):
        raise AssertionError("the seed build ran a Ray Data execution")

    monkeypatch.setattr(fs_shuffle, "fan_out", counted)
    monkeypatch.setattr(StreamingExecutor, "execute", no_ray_data)
    t = create_image_table(tmp_table_root, n, num_fragments=num_fragments)
    assert len(tasks) == 1 and tasks[0] <= ray.cluster_resources()["CPU"]
    assert [f.rows for f in t.fragments] == rows
    lo = 0
    for f, r in zip(t.fragments, rows):
        got = pq.read_table(os.path.join(tmp_table_root, f.path))
        assert got.equals(gen_batch(np.arange(lo, lo + r)))
        lo += r


def test_snapshot_pinned_read_is_immutable(tmp_table_root):
    t = create_image_table(tmp_table_root, 120, num_fragments=4)
    pinned = LakeTable.load(tmp_table_root, version=t.version)
    before = pinned.to_arrow().sort_by("image_id")
    # a new append commits v+1; the pinned reader must see identical bytes
    t2 = t.append_arrow(gen_batch(np.arange(120, 140)))
    assert t2.version == t.version + 1
    after = LakeTable.load(tmp_table_root, version=pinned.version).to_arrow().sort_by("image_id")
    assert before.equals(after)
    assert LakeTable.load(tmp_table_root).manifest.total_rows == 140


def test_commit_conflict_detection(tmp_table_root):
    t = create_image_table(tmp_table_root, 60, num_fragments=2)
    a = LakeTable.load(tmp_table_root)
    b = LakeTable.load(tmp_table_root)
    fid = a.fragments[0].fragment_id
    a2 = a.commit(operation="rewrite", add=[], remove_ids={fid})
    # b still thinks fid is live; removing it again must raise (stale write)
    with pytest.raises(mf.CommitConflict):
        b.commit(operation="rewrite", add=[], remove_ids={fid})
    # but a commit not touching removed fragments rebases fine
    b.refresh()
    b2 = b.commit(operation="append", add=[], remove_ids=set())
    assert b2.version == a2.version + 1


def test_fragment_pruning_by_stats(tmp_table_root):
    t = LakeTable.create(tmp_table_root, IMAGE_SCHEMA, TableConfig())
    for lo in range(0, 300, 100):
        t = t.append_arrow(gen_batch(np.arange(lo, lo + 100)), name_parts=("seed", str(lo)))
    assert len(t.fragments) == 3
    live = t.live_fragments([("image_id", "img_000000000150", "img_000000000160")])
    assert len(live) == 1
    # the pruned scan pushes the row-level filter down too: exactly the rows
    # in the inclusive range come back (150..160), not the whole fragment
    ds = t.to_dataset(columns=["image_id"], predicates=[("image_id", "img_000000000150", "img_000000000160")])
    got = sorted(ds.to_pandas()["image_id"])
    assert got == sorted(gen_batch(np.arange(150, 161))["image_id"].to_pylist())
    # open-ended bound: hi=None means ">= lo"
    assert t.to_dataset(columns=["image_id"],
                        predicates=[("image_id", "img_000000000290", None)]).count() == 10
