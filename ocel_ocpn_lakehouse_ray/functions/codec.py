"""Deterministic image codec: a real (decodable) pure-numpy+zlib PNG encoder/decoder,
plus a deterministic lossy stand-in for JPEG.

No image libraries exist in this environment (no PIL/cv2), so per the build
brief the *decode step is stubbed with a deterministic fake while the Ray-side
plumbing stays real*:

- ``fmt == "png"``   → a genuine RFC-2083 PNG byte stream (8-bit RGB, filter 0),
  losslessly round-trippable by this module *and* by any standard PNG reader.
- ``fmt == "jpeg"``  → the deterministic lossy stand-in: pixel values are
  quantized to multiples of ``LOSSY_Q`` (the "compression loss") and the result
  is stored in the same PNG container.  Quantization with ``LOSSY_Q = 4`` gives
  a worst-case uniform-error PSNR of ~46 dB, so the reference-derived
  "decoded pixels allclose, PSNR >= 40 dB for lossy fmt" invariant
  (BASELINE.json: north_star) is meaningful and tight.

Both paths are fully deterministic across workers/processes (pure numpy+zlib,
pinned in the container), which the scan-equivalence tests rely on
(SURVEY.md §7 hard part (e)).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIG = b"\x89PNG\r\n\x1a\n"
LOSSY_Q = 4  # lossy quantization step; PSNR = 10*log10(255^2/1.5) ~= 46.4 dB


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def encode_png(arr: np.ndarray, compress_level: int = 1) -> bytes:
    """Encode an (h, w, 3) uint8 array as an 8-bit RGB PNG (filter type 0)."""
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"expected (h, w, 3) uint8, got {arr.shape} {arr.dtype}")
    h, w = arr.shape[:2]
    # one filter byte (0 = None) per scanline, vectorized
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = arr.reshape(h, w * 3)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # 8-bit, RGB truecolor
    idat = zlib.compress(raw.tobytes(), compress_level)
    return PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit RGB PNG produced by any encoder (filters 0-4 supported)."""
    if data[:8] != PNG_SIG:
        raise ValueError("not a PNG byte stream")
    pos = 8
    w = h = None
    idat = bytearray()
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, ctype, _, _, interlace = struct.unpack(">IIBBBBB", payload)
            if depth != 8 or ctype != 2 or interlace != 0:
                raise ValueError(f"unsupported PNG variant depth={depth} ctype={ctype}")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("missing IHDR")
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    stride = 1 + w * 3
    rows = raw.reshape(h, stride)
    filters = rows[:, 0]
    if not filters.any():  # filter 0 on every scanline (our encoder): raw bytes
        return rows[:, 1:].copy().reshape(h, w, 3)
    out = np.empty((h, w * 3), dtype=np.uint8)
    bpp = 3
    for y in range(h):
        f = filters[y]
        cur = rows[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(w * 3, np.int32)
        if f == 0:
            rec = cur
        elif f == 1:  # Sub: recon[x] = cur[x] + recon[x-bpp] → per-lane cumsum
            lanes = cur.reshape(w, bpp)
            rec = np.cumsum(lanes, axis=0, dtype=np.int64).reshape(-1) % 256
        elif f == 2:  # Up
            rec = cur + prev
        elif f == 3:  # Average (sequential in x; spec requires mod-256 per byte)
            rec = np.zeros(w * 3, np.int32)
            for x in range(w * 3):
                left = rec[x - bpp] if x >= bpp else 0
                rec[x] = (cur[x] + (left + prev[x]) // 2) % 256
        elif f == 4:  # Paeth (sequential in x; neighbors must be reduced bytes)
            rec = np.zeros(w * 3, np.int32)
            for x in range(w * 3):
                a = rec[x - bpp] if x >= bpp else 0
                b = prev[x]
                c = prev[x - bpp] if x >= bpp else 0
                p = a + b - c
                pa, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc_) else (b if pb <= pc_ else c)
                rec[x] = (cur[x] + pred) % 256
        else:
            raise ValueError(f"bad PNG filter {f}")
        out[y] = np.asarray(rec, dtype=np.int64) % 256
    return out.reshape(h, w, 3)


def quantize_lossy(arr: np.ndarray, q: int = LOSSY_Q) -> np.ndarray:
    """Deterministic lossy step: round each channel to the nearest multiple of q."""
    return np.clip(((arr.astype(np.int32) + q // 2) // q) * q, 0, 255).astype(np.uint8)


def encode_image(arr: np.ndarray, fmt: str) -> bytes:
    """Encode per the table's ``fmt`` column: png = lossless, jpeg = lossy stand-in."""
    if fmt == "png":
        return encode_png(arr)
    if fmt == "jpeg":
        return encode_png(quantize_lossy(arr))
    raise ValueError(f"unknown fmt {fmt!r}")


def decode_image(data: bytes, fmt: str) -> np.ndarray:  # fmt kept for API parity
    return decode_png(data)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; inf when identical."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(255.0**2 / mse))
