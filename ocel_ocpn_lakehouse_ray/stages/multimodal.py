"""Multimodal (image/audio/video) batch stages: decode, feature-extract,
resize, frame-sample — actor-pool ``map_batches`` stages over opaque binary
columns with typed metadata.

The image path is REAL here (the engine ships its own PNG codec,
functions/codec.py).  Audio/video decode is STUBBED per the build brief (no
codec libraries in this environment): the stage classes, schemas, batch
sizing and output layout are real and tested; the codec call raises
``NotImplementedError`` unless the deterministic fake is requested.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.codec import decode_image, encode_image

THUMB = 8  # feature thumbnail edge


class DecodeStats:
    """Actor stage: decode each image and emit per-channel statistics.
    Stateful setup (none needed for the pure-python codec; a real libjpeg
    binding would be opened here ONCE per actor) in __init__, vectorized
    math per row in __call__.  Keep batch_size small: each decoded row is
    w*h*3 bytes of heap."""

    def __init__(self):
        pass

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        mean = np.empty((n, 3), np.float64)
        for i in range(n):
            arr = decode_image(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            mean[i] = arr.reshape(-1, 3).mean(axis=0)
        return pa.table({
            "image_id": batch["image_id"],
            "mean_r": np.round(mean[:, 0], 4),
            "mean_g": np.round(mean[:, 1], 4),
            "mean_b": np.round(mean[:, 2], 4),
            "n_px": pa.array(
                (batch["w"].to_numpy().astype(np.int64) * batch["h"].to_numpy()), pa.int64()
            ),
        })


class ResizeImages:
    """Actor stage: decode → nearest-neighbor resize → re-encode.  Output is
    the same 7-column image schema with updated (bytes, w, h)."""

    def __init__(self, out_w: int, out_h: int):
        self.out_w = out_w
        self.out_h = out_h

    def _resize(self, arr: np.ndarray) -> np.ndarray:
        h, w = arr.shape[:2]
        yi = (np.arange(self.out_h) * h // self.out_h).clip(0, h - 1)
        xi = (np.arange(self.out_w) * w // self.out_w).clip(0, w - 1)
        return arr[yi[:, None], xi[None, :]]

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = []
        for i in range(batch.num_rows):
            fmt = batch["fmt"][i].as_py()
            arr = decode_image(batch["bytes"][i].as_py(), fmt)
            blobs.append(encode_image(self._resize(arr), fmt))
        n = batch.num_rows
        return pa.table({
            "image_id": batch["image_id"],
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(np.full(n, self.out_w, np.int32)),
            "h": pa.array(np.full(n, self.out_h, np.int32)),
            "fmt": batch["fmt"],
            "caption": batch["caption"],
            "phash": batch["phash"],
        })


class EmbedImages:
    """Actor stage: decode → THUMBxTHUMB grayscale thumbnail → flat float32
    embedding column (list<float>) — the feature-extraction shape a model
    stage would use (model load would live in __init__)."""

    def __init__(self):
        pass

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = np.empty((batch.num_rows, THUMB * THUMB), np.float32)
        for i in range(batch.num_rows):
            arr = decode_image(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            gray = arr.mean(axis=2)
            h, w = gray.shape
            yi = (np.arange(THUMB) * h // THUMB).clip(0, h - 1)
            xi = (np.arange(THUMB) * w // THUMB).clip(0, w - 1)
            feats[i] = gray[yi[:, None], xi[None, :]].reshape(-1) / 255.0
        return pa.table({
            "image_id": batch["image_id"],
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(feats.reshape(-1), pa.float32()), THUMB * THUMB
            ),
        })


class DecodeAudio:
    """STUB (no audio codecs in this environment — build-brief mandated).
    Real plumbing: binary column in, (image_id, samples:list<float>,
    sample_rate:int32) out; ``fake=True`` yields a deterministic synthetic
    waveform derived from the payload hash so downstream stages are testable."""

    def __init__(self, fake: bool = False, sample_rate: int = 16000, n: int = 256):
        self.fake = fake
        self.sample_rate = sample_rate
        self.n = n

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            raise NotImplementedError(
                "audio decode requires a codec library not present in this "
                "environment; construct DecodeAudio(fake=True) for the "
                "deterministic stand-in"
            )
        import zlib

        waves = np.empty((batch.num_rows, self.n), np.float32)
        for i in range(batch.num_rows):
            seed = zlib.crc32(batch["bytes"][i].as_py())
            rng = np.random.Generator(np.random.PCG64(seed))
            waves[i] = rng.standard_normal(self.n).astype(np.float32)
        return pa.table({
            "image_id": batch["image_id"],
            "samples": pa.FixedSizeListArray.from_arrays(
                pa.array(waves.reshape(-1), pa.float32()), self.n
            ),
            "sample_rate": pa.array(
                np.full(batch.num_rows, self.sample_rate, np.int32)
            ),
        })


class SampleVideoFrames:
    """STUB (no video codecs in this environment — build-brief mandated).
    Real plumbing: binary video column in, one row per sampled frame out
    (``image_id``, ``frame_idx:int32``, ``frame:binary`` as an encoded PNG) —
    a flat_map-shaped 1→N expansion sized by ``every_n``-th frame.
    ``fake=True`` synthesizes deterministic frames from the payload hash so
    downstream decode/embed stages run end-to-end in tests.  Batch sizing
    note: video payloads are large — callers pass a SMALL ``batch_size``
    (frames × batch must fit the worker heap)."""

    def __init__(self, fake: bool = False, num_frames: int = 4, size: int = 16):
        self.fake = fake
        self.num_frames = num_frames
        self.size = size

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            raise NotImplementedError(
                "video frame sampling requires a codec library not present "
                "in this environment; construct SampleVideoFrames(fake=True) "
                "for the deterministic stand-in"
            )
        import zlib

        from ..functions.codec import encode_png

        ids, idxs, frames = [], [], []
        for i in range(batch.num_rows):
            seed = zlib.crc32(batch["bytes"][i].as_py())
            rng = np.random.Generator(np.random.PCG64(seed))
            for f in range(self.num_frames):
                arr = rng.integers(0, 256, (self.size, self.size, 3), dtype=np.uint8)
                ids.append(batch["image_id"][i].as_py())
                idxs.append(f)
                frames.append(encode_png(arr))
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "frame_idx": pa.array(idxs, pa.int32()),
            "frame": pa.array(frames, pa.binary()),
        })


def decode_stats_pipeline(table, *, concurrency=None, batch_size=64, num_blocks=None):
    """table → decode-stats stage (columns pruned at the read to the payload +
    metadata actually needed).

    Runs as stateless TASKS by default — the pure-python codec has no
    per-worker setup, and an actor pool would pay ramp-up latency for nothing;
    pass ``concurrency`` to force an actor pool (the shape a real codec-library
    stage with per-worker init would use).

    ``num_blocks``: decode is CPU-bound and map parallelism is capped at the
    block count (one per fragment by default) — split into >= cluster-CPU
    blocks (cheap, no shuffle) so the stage saturates."""
    ds = table.to_dataset(columns=["image_id", "bytes", "fmt", "w", "h"],
                          num_blocks=num_blocks)
    if concurrency is not None:
        return ds.map_batches(DecodeStats, batch_format="pyarrow",
                              batch_size=batch_size, concurrency=concurrency)
    return ds.map_batches(DecodeStats(), batch_format="pyarrow",
                          batch_size=batch_size)
