"""Regression tests for the round-1 advisor findings (ADVICE.md):

1. high  — pure-insert MERGE (all fragments pruned) must not duplicate the table
2. med   — PNG Average/Paeth filters must reduce each reconstructed byte mod 256
3. low   — partial staged-source files are cleared on merge resume w/o _SUCCESS
4. low   — an orphaned manifest (crash between manifest create and _latest swap)
           must not wedge future commits
5. low   — an MV whose first refresh is empty keeps the builder's real schema
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from ocel_ocpn_lakehouse_ray.config import TableConfig
from ocel_ocpn_lakehouse_ray.functions import codec
from ocel_ocpn_lakehouse_ray.pipelines.mv import MaterializedView
from ocel_ocpn_lakehouse_ray.sources.generator import gen_batch, gen_update_batch
from ocel_ocpn_lakehouse_ray.stages.merge import run_merge
from ocel_ocpn_lakehouse_ray.state import lineage
from ocel_ocpn_lakehouse_ray.state import manifest as mf
from ocel_ocpn_lakehouse_ray.table import IMAGE_SCHEMA, LakeTable

SEED = 42


# ------------------------------------------------------- 1. pure-insert MERGE

def test_pure_insert_merge_does_not_duplicate_table(tmp_path):
    """Disjoint-key source prunes EVERY fragment; an explicit empty touched
    list must mean zero paths read, zero fragments rewritten, rows added
    exactly once (ADVICE high: table.py fragment_paths `or` fallback)."""
    root = str(tmp_path / "t")
    t = LakeTable.create(root, IMAGE_SCHEMA, TableConfig(target_fragment_bytes=1 << 20))
    t = t.append_arrow(gen_batch(np.arange(200), SEED), name_parts=("seed", "0"))
    # keys far outside the table's id range → min/max pruning excludes all
    src = ray.data.from_arrow(gen_batch(np.arange(20) + 5 * 10**12, SEED + 1))
    t2, rep = run_merge(t, src, job_id="m-pure-insert")
    assert rep["touched_fragments"] == 0
    assert rep["inserts"] == 20 and rep["updates"] == 0
    assert t2.manifest.total_rows == 220
    ids = t2.to_arrow(columns=["image_id"])["image_id"].to_pylist()
    assert len(ids) == len(set(ids)) == 220


# ------------------------------------------- 2. spec-conformant PNG filtering

def _encode_png_with_filter(arr: np.ndarray, ftype: int) -> bytes:
    """Reference PNG encoder applying one filter type to every scanline using
    the spec's mod-256 byte arithmetic (RFC 2083 §6) — produces the bytes an
    external conformant encoder would emit."""
    h, w, _ = arr.shape
    bpp = 3
    flat = arr.reshape(h, w * bpp).astype(np.int32)
    out = bytearray()
    prev = np.zeros(w * bpp, np.int32)
    for y in range(h):
        cur = flat[y]
        if ftype == 0:
            filt = cur % 256
        elif ftype == 1:
            left = np.concatenate([np.zeros(bpp, np.int32), cur[:-bpp]])
            filt = (cur - left) % 256
        elif ftype == 2:
            filt = (cur - prev) % 256
        elif ftype == 3:
            left = np.concatenate([np.zeros(bpp, np.int32), cur[:-bpp]])
            filt = (cur - (left + prev) // 2) % 256
        elif ftype == 4:
            filt = np.empty(w * bpp, np.int32)
            for x in range(w * bpp):
                a = cur[x - bpp] if x >= bpp else 0
                b = prev[x]
                c = prev[x - bpp] if x >= bpp else 0
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
                filt[x] = (cur[x] - pred) % 256
        out.append(ftype)
        out.extend(filt.astype(np.uint8).tobytes())
        prev = cur
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    idat = zlib.compress(bytes(out), 6)
    return (
        codec.PNG_SIG
        + codec._chunk(b"IHDR", ihdr)
        + codec._chunk(b"IDAT", idat)
        + codec._chunk(b"IEND", b"")
    )


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_decode_png_externally_filtered(ftype):
    # values near 255 force intermediate sums past 255 — the case the unreduced
    # Average/Paeth reconstruction got wrong (ADVICE med: codec.py)
    rng = np.random.default_rng(7)
    arr = rng.integers(128, 256, size=(9, 11, 3), dtype=np.uint8)
    data = _encode_png_with_filter(arr, ftype)
    got = codec.decode_png(data)
    np.testing.assert_array_equal(got, arr)


# ----------------------------------- 3. staged-source cleanup on merge resume

def test_merge_clears_partial_staged_source(tmp_path):
    root = str(tmp_path / "t")
    t = LakeTable.create(root, IMAGE_SCHEMA, TableConfig(target_fragment_bytes=1 << 20))
    t = t.append_arrow(gen_batch(np.arange(100), SEED), name_parts=("seed", "0"))
    job_id = "m-partial"
    # simulate a crash that left partial staged parquet without _SUCCESS
    src_dir = os.path.join(lineage.journal_dir(root, job_id), "source")
    os.makedirs(src_dir, exist_ok=True)
    stale = gen_update_batch(np.arange(50), SEED).append_column(
        "__side", pa.array(np.ones(50, np.int8))
    )
    pq.write_table(stale, os.path.join(src_dir, "stale-partial.parquet"))
    src = ray.data.from_arrow(gen_update_batch(np.arange(10), SEED))
    t2, rep = run_merge(t, src, job_id=job_id)
    meta = lineage.load_job_meta(root, job_id)
    assert meta["source_rows"] == 10  # stale file did not inflate the source
    assert rep["updates"] == 10 and rep["inserts"] == 0
    assert t2.manifest.total_rows == 100


# -------------------------------------------------- 4. orphan manifest repair

@pytest.mark.parametrize("branch", [None, "audit"])
def test_commit_recovers_from_orphaned_manifest(tmp_path, branch):
    root = str(tmp_path / "t")
    t = LakeTable.create(root, IMAGE_SCHEMA, TableConfig(target_fragment_bytes=1 << 20))
    if branch:
        t = t.create_branch(branch)
    t = t.append_arrow(gen_batch(np.arange(50), SEED), name_parts=("seed", "0"))
    v = t.version
    # simulate a committer that crashed after creating v+1 but before the swap
    orphan = mf.Manifest(
        version=v + 1, parent=v, created_at=0.0, operation="append",
        schema=t.manifest.schema, config=t.manifest.config,
        fragments=t.manifest.fragments, summary={"orphan": True},
    )
    with open(mf.manifest_path(root, v + 1, branch=branch), "x") as f:
        f.write(orphan.to_json())
    assert mf.read_latest_version(root, branch=branch) == v  # wedged pre-fix
    t2 = t.append_arrow(gen_batch(np.arange(50, 60), SEED), name_parts=("seed", "1"))
    assert t2.version == v + 2  # rebased past the orphan instead of aborting
    assert mf.read_latest_version(root, branch=branch) == v + 2
    assert t2.manifest.total_rows == 60


# ----------------------------------------------- 5. empty first MV refresh

def test_mv_empty_first_refresh_keeps_builder_schema(tmp_path):
    schema = pa.schema([("k", pa.string()), ("n", pa.int64())])

    def builder():
        return ray.data.from_arrow(schema.empty_table())

    view = MaterializedView(str(tmp_path / "wh"), "empty_view", builder)
    out = view.refresh()
    assert out["rows"] == 0
    t = LakeTable.load(view.root)
    assert t.schema.names == ["k", "n"]
    assert t.to_arrow().schema.equals(schema)
