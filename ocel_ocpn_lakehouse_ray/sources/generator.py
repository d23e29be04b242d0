"""Deterministic seeded generator for the synthetic image+caption table
(FIXTURES.md F1) and its MERGE delta (F2).  No external data: every row is a
pure function of (seed, row index), so any worker, any retry, any process
regenerates identical bytes — the property the scan-equivalence oracle and the
resume tests rely on.

Ray-side shape: ``gen_batch`` is a pure batch transform over row ids, the
same pattern as any decode/synthesis stage (reference S1's whole-file
json.load, `ingest/complete_ocel_loader.py:107-110`).  The MERGE delta streams
it as ``ray.data.range(n) → map_batches``; ``create_image_table`` runs the
reference's staged write (`ingest/daft_batch_ocel_loader.py:151-165`) as one
``fan_out`` task per cluster CPU, each generating and writing a contiguous run
of fragments that stay invisible until the driver's single manifest commit.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from ..functions.codec import encode_image
from ..functions.hashing import mix2, splitmix64
from ..table import IMAGE_SCHEMA
from .fragments import write_table_as_fragments

SIZES = np.array([32, 48, 64, 96, 128], dtype=np.int32)
HOT_PHASHES = np.array(
    [0x7A5C_3E1D_9B42_F0A6, 0x1234_5678_9ABC_DEF0, 0x0F0F_7777_AAAA_1111],
    dtype=np.uint64,
)  # 3 hot keys; ~10 % of rows share one of them (FIXTURES.md F1 skew fixture)
HOT_FRACTION_MOD = 10

_ADJ = ["red", "quiet", "ancient", "shiny", "broken", "tiny", "vast", "green"]
_NOUN = ["fox", "harbor", "engine", "forest", "lantern", "river", "tower", "cloud"]
_VERB = ["drifts", "stands", "glows", "hums", "waits", "turns", "rises", "sleeps"]
_PLACE = ["at dawn", "by the sea", "in fog", "under stars", "downtown", "uphill", "in rain", "at noon"]


def _pixels(w: int, h: int, pix_seed: int) -> np.ndarray:
    """Deterministic compressible content: channel-offset gradient + seeded noise."""
    rng = np.random.Generator(np.random.PCG64(pix_seed))
    gx = np.arange(w, dtype=np.int32)[None, :]
    gy = np.arange(h, dtype=np.int32)[:, None]
    base = (gx + 2 * gy + int(pix_seed % 251))[:, :, None] + np.array([0, 37, 74])[None, None, :]
    noise = rng.integers(0, 8, size=(h, w, 3), dtype=np.int32)
    return ((base + noise) % 256).astype(np.uint8)


def _meta_fields(ids: np.ndarray, seed: int):
    """Shared deterministic field derivation: (u, w, h, is_png, hot,
    hot_pick, captions) for a row-index array."""
    u = mix2(np.uint64(seed), ids)
    w = SIZES[(u % np.uint64(5)).astype(np.int64)]
    h = SIZES[((u >> np.uint64(8)) % np.uint64(5)).astype(np.int64)]
    is_png = ((u >> np.uint64(16)) % np.uint64(10)) < np.uint64(7)  # 70 % png
    hot = ((u >> np.uint64(24)) % np.uint64(HOT_FRACTION_MOD)) == np.uint64(0)
    hot_pick = HOT_PHASHES[((u >> np.uint64(28)) % np.uint64(3)).astype(np.int64)]
    cap_i = [
        f"a {_ADJ[int(x) & 7]} {_NOUN[(int(x) >> 3) & 7]} "
        f"{_VERB[(int(x) >> 6) & 7]} {_PLACE[(int(x) >> 9) & 7]} #{int(i)}"
        for x, i in zip(u >> np.uint64(32), ids)
    ]
    return u, w, h, is_png, hot, hot_pick, cap_i


def gen_batch(ids: np.ndarray, seed: int = 42) -> pa.Table:
    """Row index array → IMAGE_SCHEMA Arrow batch (deterministic)."""
    ids = np.asarray(ids, dtype=np.uint64)
    u, w, h, is_png, hot, hot_pick, cap_i = _meta_fields(ids, seed)

    blobs, phash = [], np.empty(len(ids), dtype=np.uint64)
    for k in range(len(ids)):
        arr = _pixels(int(w[k]), int(h[k]), int(u[k]))
        fmt = "png" if is_png[k] else "jpeg"
        blobs.append(encode_image(arr, fmt))
        if hot[k]:
            phash[k] = hot_pick[k]
        else:
            # "64-bit mix of the image content hash" (FIXTURES.md F1)
            phash[k] = splitmix64(np.uint64(zlib.crc32(arr.tobytes())) ^ u[k])

    return pa.table(
        {
            "image_id": [f"img_{int(i):012d}" for i in ids],
            "bytes": blobs,
            "w": w,
            "h": h,
            "fmt": np.where(is_png, "png", "jpeg").tolist(),
            "caption": cap_i,
            "phash": phash.view(np.int64),
        },
        schema=IMAGE_SCHEMA,
    )


def _update_mask(ids: np.ndarray, seed: int) -> np.ndarray:
    """F2 matched-update selector: ~5 % of rows overall, biased ~3:1 toward the
    hot-phash rows (FIXTURES.md F2 hot-key stress)."""
    ids = np.asarray(ids, dtype=np.uint64)
    u = mix2(np.uint64(seed), ids)
    hot = ((u >> np.uint64(24)) % np.uint64(HOT_FRACTION_MOD)) == np.uint64(0)
    u2 = mix2(np.uint64(seed) ^ np.uint64(0xF2F2F2F2), ids) % np.uint64(100)
    return np.where(hot, u2 < np.uint64(12), u2 < np.uint64(4))


def gen_update_batch(ids: np.ndarray, seed: int = 42) -> pa.Table:
    """F2 updates: same image_id, caption + ' (rev2)', re-encoded bytes."""
    ids = np.asarray(ids, dtype=np.uint64)
    base = gen_batch(ids, seed)
    u = mix2(np.uint64(seed), ids)
    hot = ((u >> np.uint64(24)) % np.uint64(HOT_FRACTION_MOD)) == np.uint64(0)
    w = base["w"].to_numpy()
    h = base["h"].to_numpy()
    fmt = base["fmt"].to_pylist()
    blobs, phash = [], np.empty(len(ids), dtype=np.uint64)
    for k in range(len(ids)):
        arr = _pixels(int(w[k]), int(h[k]), int(mix2(u[k], np.uint64(999))))
        blobs.append(encode_image(arr, fmt[k]))
        if hot[k]:
            phash[k] = base["phash"].to_numpy().view(np.uint64)[k]
        else:
            phash[k] = splitmix64(np.uint64(zlib.crc32(arr.tobytes())) ^ u[k])
    return pa.table(
        {
            "image_id": base["image_id"],
            "bytes": blobs,
            "w": base["w"],
            "h": base["h"],
            "fmt": base["fmt"],
            "caption": [c + " (rev2)" for c in base["caption"].to_pylist()],
            "phash": phash.view(np.int64),
        },
        schema=IMAGE_SCHEMA,
    )


def gen_pixels(ids: np.ndarray, seed: int = 42):
    """Expected META columns + expected DECODED pixels, skipping the encode
    step: returns (meta_table without 'bytes', [np.uint8 (h,w,3) arrays]).
    For ``jpeg`` rows the pixels are post-quantization — exactly what
    decode_image of the stored bytes must yield.  This is the post-merge
    verify gate's input: the north_star invariant compares DECODED pixels,
    so regenerating (and zlib-compressing) the expected byte stream per row
    is pure overhead there."""
    from ..functions.codec import quantize_lossy

    ids = np.asarray(ids, dtype=np.uint64)
    u, w, h, is_png, hot, hot_pick, cap_i = _meta_fields(ids, seed)
    pixels, phash = [], np.empty(len(ids), dtype=np.uint64)
    for k in range(len(ids)):
        arr = _pixels(int(w[k]), int(h[k]), int(u[k]))
        if hot[k]:
            phash[k] = hot_pick[k]
        else:
            phash[k] = splitmix64(np.uint64(zlib.crc32(arr.tobytes())) ^ u[k])
        pixels.append(arr if is_png[k] else quantize_lossy(arr))
    meta = pa.table({
        "image_id": [f"img_{int(i):012d}" for i in ids],
        "w": w,
        "h": h,
        "fmt": np.where(is_png, "png", "jpeg").tolist(),
        "caption": cap_i,
        "phash": phash.view(np.int64),
    })
    return meta, pixels


def gen_update_pixels(ids: np.ndarray, seed: int = 42):
    """gen_pixels twin of gen_update_batch: meta + decoded pixels of the F2
    updated rows (caption + ' (rev2)', re-generated pixel content)."""
    from ..functions.codec import quantize_lossy

    ids = np.asarray(ids, dtype=np.uint64)
    u, w, h, is_png, hot, hot_pick, cap_i = _meta_fields(ids, seed)
    pixels, phash = [], np.empty(len(ids), dtype=np.uint64)
    for k in range(len(ids)):
        arr = _pixels(int(w[k]), int(h[k]), int(mix2(u[k], np.uint64(999))))
        if hot[k]:
            phash[k] = hot_pick[k]  # hot rows keep the base (hot) phash
        else:
            phash[k] = splitmix64(np.uint64(zlib.crc32(arr.tobytes())) ^ u[k])
        pixels.append(arr if is_png[k] else quantize_lossy(arr))
    meta = pa.table({
        "image_id": [f"img_{int(i):012d}" for i in ids],
        "w": w,
        "h": h,
        "fmt": np.where(is_png, "png", "jpeg").tolist(),
        "caption": [c + " (rev2)" for c in cap_i],
        "phash": phash.view(np.int64),
    })
    return meta, pixels


def merge_source_dataset(n: int, seed: int = 42, num_blocks: int | None = None):
    """F2 delta dataset: ~5 % updates of [0, n) + ~5 % fresh inserts
    (``img_9...`` ids, FIXTURES.md F2).

    Default block count scans ~2000 ids (~100 update rows) per task, capped
    at 4x cluster CPUs: the old n//500 caller default made 50-id tasks whose
    scheduling overhead dominated the generate work (measured 4.3 s vs 1.6 s
    for the same 80 k-id source at 16 CPUs)."""
    import ray
    import ray.data

    if num_blocks is None:
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        num_blocks = max(4, min(n // 2000, 4 * cpus))

    def updates(b):
        ids = b["id"]
        sel = ids[_update_mask(ids, seed)]
        if len(sel) == 0:
            return IMAGE_SCHEMA.empty_table()
        return gen_update_batch(sel, seed)

    upd = ray.data.range(n, override_num_blocks=num_blocks).map_batches(
        updates, batch_format="numpy", batch_size=None
    )
    n_ins = max(1, n // 20)
    ins = ray.data.range(n_ins, override_num_blocks=max(1, (num_blocks or 1) // 8)).map_batches(
        lambda b: gen_batch(b["id"] + 9 * 10**11, seed + 7),
        batch_format="numpy",
        batch_size=None,
    )
    return upd.union(ins)


def create_image_table(
    root: str,
    n: int,
    *,
    seed: int = 42,
    num_fragments: int = 16,
    config=None,
):
    """Bootstrap a toy-scale table written as deliberately many small fragments
    (forces the reference's small-file condition, `ops/maintenance_system.py:58`,
    at toy scale — FIXTURES.md F1 sizing tiers)."""
    import ray

    from ..config import TableConfig
    from ..stages.fs_shuffle import fan_out
    from ..table import LakeTable

    if config is None:
        # scale the toy target with n so maintenance jobs see O(64) target-size
        # units at any tier (preserving the reference 4:1 target:small ratio,
        # 256 MB : 64 MB).  Unit count governs task parallelism: it must
        # comfortably exceed the benched CPU counts or wall time is bounded by
        # the longest task, not the cluster (at real scale the 256 MB cap
        # applies and units >> CPUs automatically).
        est_total = n * 13_000  # ~13 KB mean encoded row
        target = min(256 << 20, max(1 << 20, est_total // 64))
        config = TableConfig(target_fragment_bytes=target, small_file_bytes=target // 4)
    t = LakeTable.create(root, IMAGE_SCHEMA, config)
    # chunks of n // num_fragments ids, as Ray's range datasource splits n:
    # a remainder adds chunks (1050 rows in 100 fragments gives 105)
    size = max(1, n // num_fragments)
    chunks = np.array([(i, min(size, n - i)) for i in range(0, n, size)])
    cpus = int(ray.cluster_resources().get("CPU", 1))
    groups = np.array_split(chunks, min(cpus, len(chunks)) or 1)
    metas = [m for ms in fan_out(_write_chunks, [
        (root, g, seed, t.config.target_fragment_bytes) for g in groups])
        for m in ms]
    return t.commit(operation="append", add=metas, remove_ids=set(),
                    summary={"added_fragments": len(metas),
                             "added_rows": sum(m.rows for m in metas)})


def _write_chunks(root: str, chunks: np.ndarray, seed: int, target_bytes: int) -> list:
    """One ``create_image_table`` task: generate and write each (first id,
    rows) chunk as fragments; returns their metadata in chunk order."""
    return [m for lo, rows in chunks for m in write_table_as_fragments(
        root, gen_batch(np.arange(lo, lo + rows), seed), target_bytes=target_bytes)]
