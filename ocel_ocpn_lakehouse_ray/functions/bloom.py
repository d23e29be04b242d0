"""Per-fragment key Bloom filters for MERGE fragment pruning.

min/max stats prune fragments whose key RANGE is disjoint from the source;
after clustering/merges interleave ranges, range pruning degrades.  A small
Bloom filter over the fragment's key column answers "might this fragment
contain ANY source key?" regardless of range overlap, and keeps working when
the source key set is too large for the driver (the blooms are broadcast and
probed distributed — stages/merge.py).

Standard partitioned-double-hashing Bloom (Kirsch & Mitzenmacher: k indices
h1 + i*h2): ~10 bits/key, k=7 → ~1 % false-positive rate.  Filters live in
``data/<fragment_id>.bloom`` sidecar files (not inline in the manifest JSON,
which stays O(100 B)/fragment); the stats dict records path + parameters.
"""

from __future__ import annotations

import functools
import os
import uuid

import numpy as np

from .hashing import hash_strings, splitmix64

MAGIC = b"BLM1"
BITS_PER_KEY = 10
NUM_HASHES = 7
MIN_BITS = 64


def plan_bits(n_keys: int) -> int:
    """Bit-array size: next power of two of ~10 bits/key (pow2 keeps the
    index computation a mask, and sizes stay comparable across fragments)."""
    want = max(MIN_BITS, n_keys * BITS_PER_KEY)
    return 1 << int(np.ceil(np.log2(want)))


def key_hashes(keys) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) double-hash pair per key — compute ONCE per key set; the
    string hash is the expensive step, so callers probing several blooms
    against the same keys reuse these instead of re-hashing per filter."""
    h1 = hash_strings(keys)
    h2 = splitmix64(h1) | np.uint64(1)  # odd → full-period stepping
    return h1, h2


def _indices(h1: np.ndarray, h2: np.ndarray, m_bits: int, i: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return ((h1 + np.uint64(i) * h2) & np.uint64(m_bits - 1)).astype(np.int64)


def build(keys, m_bits: int | None = None, k: int = NUM_HASHES) -> np.ndarray:
    """Build the filter over string keys → uint8 bit array of m_bits/8 bytes."""
    m_bits = m_bits or plan_bits(len(keys))
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    if len(keys):
        h1, h2 = key_hashes(keys)
        for i in range(k):
            idx = _indices(h1, h2, m_bits, i)
            np.bitwise_or.at(bits, idx >> 3, np.uint8(1) << (idx & 7).astype(np.uint8))
    return bits


def might_contain_hashes(bits: np.ndarray, h1: np.ndarray, h2: np.ndarray,
                         k: int = NUM_HASHES) -> np.ndarray:
    """Membership probe over precomputed key hashes (see key_hashes)."""
    m_bits = len(bits) * 8
    out = np.ones(len(h1), dtype=bool)
    for i in range(k):
        idx = _indices(h1, h2, m_bits, i)
        out &= ((bits[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1).astype(bool)
        if not out.any():
            break
    return out


def might_contain(bits: np.ndarray, keys, k: int = NUM_HASHES) -> np.ndarray:
    """Vectorized membership probe: bool array, False = definitely absent."""
    h1, h2 = key_hashes(keys)
    return might_contain_hashes(bits, h1, h2, k)


def write_sidecar(path: str, bits: np.ndarray, k: int = NUM_HASHES) -> None:
    # pid alone is not collision-safe across threads (same class of race the
    # manifest pointer swap hit) — add a uuid component like fragments.py.
    tmp = path + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:6]}"
    with open(tmp, "wb") as f:
        f.write(MAGIC + np.uint32(k).tobytes() + bits.tobytes())
    os.replace(tmp, path)


def read_sidecar(path: str) -> tuple[np.ndarray, int]:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise ValueError(f"not a bloom sidecar: {path}")
    k = int(np.frombuffer(raw[4:8], np.uint32)[0])
    bits = np.frombuffer(raw[8:], np.uint8)
    m_bits = len(bits) * 8
    # The probe masks indices with (m_bits - 1); a truncated/corrupt sidecar
    # whose bit length is not a power of two would produce FALSE NEGATIVES
    # (wrongly pruned fragments → duplicate keys after MERGE).  Reject it so
    # callers probe that fragment by its key range only.
    if m_bits < MIN_BITS or (m_bits & (m_bits - 1)) != 0:
        raise ValueError(f"corrupt bloom sidecar (bit length {m_bits}): {path}")
    return bits, k


@functools.lru_cache(maxsize=4096)
def _read_sidecar_at(path: str, mtime_ns: int, size: int):
    return read_sidecar(path)


def read_sidecar_cached(path: str) -> tuple[np.ndarray, int]:
    """read_sidecar, memoised.  A sidecar is written once next to its
    immutable fragment and never changed, so the cache cannot go stale; the
    key still carries the file's mtime and size, so a table recreated at the
    same root (same content-addressed names) is read afresh."""
    st = os.stat(path)
    return _read_sidecar_at(path, st.st_mtime_ns, st.st_size)
