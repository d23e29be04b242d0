"""Per-fragment key Bloom filters: unit behavior, MERGE pruning beyond
range stats (interleaved key ranges), the distributed probe path for
over-driver-limit sources, and GC sidecar lifetime."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pytest
import ray

from ocel_ocpn_lakehouse_ray.config import TableConfig
from ocel_ocpn_lakehouse_ray.functions import bloom
from ocel_ocpn_lakehouse_ray.sources.generator import gen_batch, gen_update_batch
from ocel_ocpn_lakehouse_ray.stages.gc import expire_and_gc, fsck
from ocel_ocpn_lakehouse_ray.stages.merge import (
    prune_touched_distributed,
    prune_touched_fragments,
    run_merge,
)
from ocel_ocpn_lakehouse_ray.table import IMAGE_SCHEMA, LakeTable

SEED = 42


def test_bloom_no_false_negatives_and_low_fpr():
    keys = [f"img_{i:012d}" for i in range(0, 4000, 2)]
    bits = bloom.build(keys)
    assert bloom.might_contain(bits, keys).all()  # no false negatives, ever
    absent = [f"img_{i:012d}" for i in range(1, 4000, 2)]
    fpr = bloom.might_contain(bits, absent).mean()
    assert fpr < 0.05, f"false-positive rate {fpr:.3f} too high"


def test_bloom_sidecar_roundtrip(tmp_path):
    bits = bloom.build(["a", "b", "c"])
    p = str(tmp_path / "x.bloom")
    bloom.write_sidecar(p, bits)
    got, k = bloom.read_sidecar(p)
    assert np.array_equal(got, bits) and k == bloom.NUM_HASHES


def _interleaved_table(root):
    """Two fragments with fully OVERLAPPING image_id ranges but disjoint key
    sets (even ids vs odd ids) — min/max stats cannot separate them."""
    t = LakeTable.create(root, IMAGE_SCHEMA, TableConfig(target_fragment_bytes=1 << 20))
    t = t.append_arrow(gen_batch(np.arange(0, 200, 2), SEED), name_parts=("even", "0"))
    t = t.append_arrow(gen_batch(np.arange(1, 200, 2), SEED), name_parts=("odd", "0"))
    assert len(t.fragments) == 2
    return t


def test_bloom_prunes_interleaved_ranges(tmp_path):
    t = _interleaved_table(str(tmp_path / "t"))
    src_keys = np.array([f"img_{i:012d}" for i in range(0, 40, 2)], dtype=object)
    # range stats alone: both fragments overlap the source range → both touched
    touched_range, _ = prune_touched_fragments(t.fragments, src_keys, root=None)
    assert len(touched_range) == 2
    # with blooms: the odd-keys fragment contains no even key → pruned
    touched, untouched = prune_touched_fragments(t.fragments, src_keys, root=t.root)
    assert len(touched) == 1 and len(untouched) == 1


def test_merge_with_bloom_pruning_end_to_end(tmp_path):
    t = _interleaved_table(str(tmp_path / "t"))
    src = ray.data.from_arrow(gen_update_batch(np.arange(0, 40, 2), SEED))
    t2, rep = run_merge(t, src, job_id="m-bloom")
    assert rep["touched_fragments"] == 1
    assert rep["untouched_fragments"] == 1
    assert rep["updates"] == 20 and rep["inserts"] == 0
    assert t2.manifest.total_rows == 200


def test_merge_distributed_bloom_path(tmp_path, monkeypatch):
    """Force the over-driver-limit path (MAX_DRIVER_KEYS=0): pruning must
    still exclude the untouched fragment via the distributed bloom probe."""
    from ocel_ocpn_lakehouse_ray.stages import merge

    monkeypatch.setattr(merge, "MAX_DRIVER_KEYS", 0)
    t = _interleaved_table(str(tmp_path / "t"))
    src = ray.data.from_arrow(gen_update_batch(np.arange(0, 40, 2), SEED))
    t2, rep = run_merge(t, src, job_id="m-bloom-dist")
    assert rep["touched_fragments"] == 1
    assert rep["untouched_fragments"] == 1
    assert t2.manifest.total_rows == 200
    ids = t2.to_arrow(columns=["image_id"])["image_id"].to_pylist()
    assert len(ids) == len(set(ids)) == 200


def test_prune_distributed_direct(tmp_path, monkeypatch):
    import pyarrow.parquet as pq

    from ocel_ocpn_lakehouse_ray.stages import merge

    t = _interleaved_table(str(tmp_path / "t"))
    src = gen_batch(np.arange(0, 40, 2), SEED).select(["image_id"])
    p = str(tmp_path / "src.parquet")
    pq.write_table(src, p)
    touched = prune_touched_distributed(t, [p])
    assert len(touched) == 1
    # a task probes its block in key slices, and every slice counts: the
    # odd fragment's key sits in the second slice of 3
    monkeypatch.setattr(merge, "PROBE_SLICE_KEYS", 3)
    assert prune_touched_distributed(t, [p]) == touched
    p2 = str(tmp_path / "src2.parquet")
    pq.write_table(gen_batch(np.array([0, 2, 4, 6, 39]), SEED)
                   .select(["image_id"]), p2)
    assert len(prune_touched_distributed(t, [p2])) == 2


def _mixed_table(root):
    """The even/odd pair, a fragment whose sidecar is corrupt (keys 1000–1099)
    and a range-disjoint fragment whose ``__bloom`` stat is stripped (keys
    5000–5099)."""
    from ocel_ocpn_lakehouse_ray.sources.fragments import write_table_as_fragments

    t = _interleaved_table(root)
    t = t.append_arrow(gen_batch(np.arange(1000, 1100), SEED),
                       name_parts=("corrupt", "0"))
    (corrupt,) = [f for f in t.fragments
                  if f.stats["image_id"]["min"] == "img_000000001000"]
    with open(os.path.join(root, corrupt.stats["__bloom"]["path"]), "wb") as f:
        f.write(bloom.MAGIC + np.uint32(bloom.NUM_HASHES).tobytes() + b"\0" * 3)
    metas = write_table_as_fragments(
        root, gen_batch(np.arange(5000, 5100), SEED),
        target_bytes=t.config.target_fragment_bytes, name_parts=("bare", "0"))
    for m in metas:
        os.remove(os.path.join(root, m.stats.pop("__bloom")["path"]))
    return t.commit(operation="append", add=metas, remove_ids=set())


def test_driver_and_distributed_pruning_agree(tmp_path, monkeypatch):
    """The driver prune and the distributed one (MAX_DRIVER_KEYS=0) touch the
    same fragments and commit the same rows: a corrupt sidecar means
    range-only, and a fragment without a bloom stat is still pruned by its
    range."""
    from ocel_ocpn_lakehouse_ray.stages import merge

    src = pa.concat_tables([
        gen_update_batch(np.arange(0, 40, 2), SEED),       # even fragment
        gen_update_batch(np.arange(1000, 1005), SEED),     # corrupt sidecar
        gen_batch(np.arange(3000, 3005), SEED + 1)])       # pure inserts
    out = {}
    for limit in (merge.MAX_DRIVER_KEYS, 0):
        monkeypatch.setattr(merge, "MAX_DRIVER_KEYS", limit)
        t = _mixed_table(str(tmp_path / f"t{limit}"))
        assert len(t.fragments) == 4
        t2, rep = run_merge(t, ray.data.from_arrow(src), job_id="m-parity")
        out[limit] = (rep["touched_fragments"], rep["untouched_fragments"],
                      t2.to_arrow().sort_by("image_id"))
    (touched, untouched, rows), (d_touched, d_untouched, d_rows) = out.values()
    assert (touched, untouched) == (d_touched, d_untouched) == (2, 2)
    assert rows.num_rows == 405 and rows.equals(d_rows)


def test_gc_tracks_bloom_sidecars(tmp_path):
    root = str(tmp_path / "t")
    t = _interleaved_table(root)
    data = os.path.join(root, "data")
    assert sum(n.endswith(".bloom") for n in os.listdir(data)) == 2
    # live sidecars are not orphans
    assert fsck(root)["orphans"] == []
    # rewrite everything (merge touching both fragments), expire, GC:
    # old fragments AND their sidecars must go together
    src = ray.data.from_arrow(gen_update_batch(np.arange(200), SEED))
    run_merge(t.refresh(), src, job_id="m-gc")
    expire_and_gc(root, keep_last=1, orphan_grace_seconds=0)
    names = set(os.listdir(data))
    stems = {n.rsplit(".", 1)[0] for n in names if n.endswith(".parquet")}
    for n in names:
        if n.endswith(".bloom"):
            assert n.rsplit(".", 1)[0] in stems, f"orphan sidecar {n}"
    assert fsck(root)["orphans"] == []
