"""Space-filling-curve cluster keys: Morton (Z-order) bit interleave and the
Hilbert curve index, both fully vectorized over numpy uint64 arrays.

The reference's clustering vocabulary is composite sort orders —
"Optimal clustering: (type, time, id)" (`ops/advanced_partitioning.py:167-176`);
the north rule generalizes that to space-filling-curve orders over the image
table's ``(phash, w, h)`` key tuple (BASELINE.json: north_star).  Both kernels
produce a 48-bit key (16 bits per dimension), leaving 16 low bits free for the
hot-key salt used by range partitioning (see stages/clustering.py): rows with
identical (phash, w, h) — the injected hot-phash skew — are spread across
partitions by a per-row image_id salt without disturbing the global order of
distinct keys.

Hilbert transform follows John Skilling, "Programming the Hilbert curve",
AIP Conf. Proc. 707 (2004) — public algorithm, reimplemented vectorized.
"""

from __future__ import annotations

import numpy as np

BITS_PER_DIM = 16
NDIMS = 3
KEY_BITS = BITS_PER_DIM * NDIMS  # 48
SALT_BITS = 16

# Bumped whenever a key's value changes for some input; clustering folds it
# into its job fingerprint, so a resume never pairs new keys with range
# boundaries sampled under old ones.  2: phash's sign bit flipped.
KEY_VERSION = 2

_U = np.uint64


def _spread3(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each uint64 so consecutive bits land 3 apart."""
    x = x.astype(np.uint64) & _U(0x1FFFFF)
    x = (x | (x << _U(32))) & _U(0x1F00000000FFFF)
    x = (x | (x << _U(16))) & _U(0x1F0000FF0000FF)
    x = (x | (x << _U(8))) & _U(0x100F00F00F00F00F)
    x = (x | (x << _U(4))) & _U(0x10C30C30C30C30C3)
    x = (x | (x << _U(2))) & _U(0x1249249249249249)
    return x


def morton3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Interleave three uint64 arrays bitwise: result bit 3k+0 from a, 3k+1 from b,
    3k+2 from c (a contributes the least-significant bit of each triple)."""
    return _spread3(a) | (_spread3(b) << _U(1)) | (_spread3(c) << _U(2))


def _key_dims(phash: np.ndarray, w: np.ndarray, h: np.ndarray) -> list[np.ndarray]:
    """Reduce (phash, w, h) to three 16-bit dimensions.

    phash is already hash-distributed; its top 16 bits carry the coarse
    perceptual buckets.  Flipping the sign bit maps signed int64 order onto
    unsigned order, so the key sorts phash the way the signed fragment stats
    and scan predicates do.  w/h are small ints used raw (clipped to 16 bits).
    """
    ordered = phash.astype(np.int64).view(np.uint64) ^ _U(1 << 63)
    p = (ordered >> _U(48)) & _U(0xFFFF)
    return [
        p,
        w.astype(np.uint64) & _U(0xFFFF),
        h.astype(np.uint64) & _U(0xFFFF),
    ]


def zorder_key(phash: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """48-bit Morton key of the (phash, w, h) tuple."""
    d = _key_dims(phash, w, h)
    return morton3(d[2], d[1], d[0])  # phash in the most-significant interleave lane


def hilbert_key(phash: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """48-bit Hilbert-curve index of the (phash, w, h) tuple."""
    d = _key_dims(phash, w, h)
    coords = np.stack(d, axis=1)
    return hilbert_index(coords, BITS_PER_DIM)


# ---------------------------------------------------------------- Hilbert curve

def axes_to_transpose(coords: np.ndarray, bits: int) -> np.ndarray:
    """Skilling AxesToTranspose, vectorized: (n, ndims) uint64 → transpose form."""
    x = coords.astype(np.uint64).copy()
    n, ndims = x.shape
    m = _U(1) << _U(bits - 1)
    q = int(m)
    while q > 1:
        p = _U(q - 1)
        uq = _U(q)
        for i in range(ndims):
            mask = (x[:, i] & uq) != 0
            t = np.where(mask, _U(0), (x[:, 0] ^ x[:, i]) & p)
            x[:, 0] ^= np.where(mask, p, t)
            x[:, i] ^= t
        q >>= 1
    for i in range(1, ndims):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n, dtype=np.uint64)
    q = int(m)
    while q > 1:
        mask = (x[:, ndims - 1] & _U(q)) != 0
        t ^= np.where(mask, _U(q - 1), _U(0))
        q >>= 1
    for i in range(ndims):
        x[:, i] ^= t
    return x


def transpose_to_axes(x_in: np.ndarray, bits: int) -> np.ndarray:
    """Skilling TransposeToAxes, vectorized (inverse of axes_to_transpose)."""
    x = x_in.astype(np.uint64).copy()
    n, ndims = x.shape
    big = 2 << (bits - 1)
    t = x[:, ndims - 1] >> _U(1)
    for i in range(ndims - 1, 0, -1):
        x[:, i] ^= x[:, i - 1]
    x[:, 0] ^= t
    q = 2
    while q != big:
        p = _U(q - 1)
        uq = _U(q)
        for i in range(ndims - 1, -1, -1):
            mask = (x[:, i] & uq) != 0
            tt = np.where(mask, _U(0), (x[:, 0] ^ x[:, i]) & p)
            x[:, 0] ^= np.where(mask, p, tt)
            x[:, i] ^= tt
        q <<= 1
    return x


def _transpose_to_index(x: np.ndarray, bits: int) -> np.ndarray:
    """Interleave transpose-form coords (MSB-first, dim 0 most significant)."""
    n, ndims = x.shape
    out = np.zeros(n, dtype=np.uint64)
    for b in range(bits - 1, -1, -1):
        for i in range(ndims):
            out = (out << _U(1)) | ((x[:, i] >> _U(b)) & _U(1))
    return out


def _index_to_transpose(h: np.ndarray, bits: int, ndims: int) -> np.ndarray:
    x = np.zeros((len(h), ndims), dtype=np.uint64)
    pos = 0
    for b in range(bits - 1, -1, -1):
        for i in range(ndims):
            shift = _U(bits * ndims - 1 - pos)
            x[:, i] |= ((h >> shift) & _U(1)) << _U(b)
            pos += 1
    return x


def hilbert_index(coords: np.ndarray, bits: int) -> np.ndarray:
    """(n, ndims) uint64 coords (< 2^bits each) → Hilbert curve index."""
    return _transpose_to_index(axes_to_transpose(coords, bits), bits)


def hilbert_point(index: np.ndarray, bits: int, ndims: int) -> np.ndarray:
    """Hilbert index → (n, ndims) coords (inverse of hilbert_index)."""
    return transpose_to_axes(_index_to_transpose(index, bits, ndims), bits)


def salted_key(key48: np.ndarray, salt_source: np.ndarray) -> np.ndarray:
    """Compose the 48-bit cluster key with a 16-bit per-row salt into a single
    uint64 used ONLY for range partitioning: distinct cluster keys keep their
    global order; ties (hot keys) are spread deterministically."""
    return (key48 << _U(SALT_BITS)) | (salt_source.astype(np.uint64) & _U(0xFFFF))
