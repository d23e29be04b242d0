"""Text-analysis kernels for the training-data pipeline operators:
tokenization, document fingerprinting, quality metrics, language-ID heuristic,
MinHash / SimHash signatures and shingling for near-dedup.

All kernels are batch functions (vectorized where the op allows; per-doc
Python where inherently so, e.g. shingling) intended to run inside
``map_batches`` — never on the driver.  The reference's scalar-function layer
(SURVEY.md §2.8: slicing, joins of tokens, hash() % 1e6 ids,
`ops/materialized_views.py:396-400`) is the analog surface.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

_WS_RE = re.compile(r"\s+")

from .hashing import splitmix64

TOKEN_SEED = 0x7E57


def md5_fingerprint(texts: list[str]) -> list[str]:
    """Exact-dedup / fingerprint key — hex md5, matching DuckDB's md5()."""
    return [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]


def simhash64(texts: list[str]) -> np.ndarray:
    """Charikar SimHash over whitespace tokens: per-bit votes weighted by
    token frequency; near-dup docs land within small hamming distance.
    Token hashes are memoized per batch (same win as word_shingle_sets)."""
    out = np.empty(len(texts), dtype=np.uint64)
    bit_idx = np.arange(64, dtype=np.uint64)
    memo: dict[str, int] = {}
    for i, t in enumerate(texts):
        toks = t.split()
        if not toks:
            out[i] = 0
            continue
        hs = np.empty(len(toks), dtype=np.uint64)
        for j, tok in enumerate(toks):
            h = memo.get(tok)
            if h is None:
                d = hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
                h = int.from_bytes(d, "little")
                memo[tok] = h
            hs[j] = h
        bits = ((hs[:, None] >> bit_idx[None, :]) & np.uint64(1)).astype(np.int32)
        votes = (2 * bits - 1).sum(axis=0)
        out[i] = np.packbits((votes > 0)[::-1]).view(">u8")[0]
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = (np.asarray(a, np.uint64) ^ np.asarray(b, np.uint64)).view(np.uint8)
    return np.unpackbits(x.reshape(len(np.atleast_1d(a)), 8), axis=1).sum(axis=1)


def word_shingle_sets(texts: list[str], k: int = 3) -> list[np.ndarray]:
    """k-word shingle hash sets for a BATCH of documents (sorted unique
    uint64 each).  A shingle hash is the order-sensitive mix of its k token
    hashes — tokens are blake2b-hashed once per DISTINCT token per batch
    (memoized) and combined vectorized, instead of hashing every k-word
    joined string: ~k× fewer bytes hashed and no string joins."""
    from .hashing import mix2

    memo: dict[str, int] = {}
    out = []
    for text in texts:
        toks = text.split()
        if not toks:
            out.append(np.array([], np.uint64))
            continue
        hs = np.empty(len(toks), dtype=np.uint64)
        for i, t in enumerate(toks):
            h = memo.get(t)
            if h is None:
                d = hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest()
                h = int.from_bytes(d, "little")
                memo[t] = h
            hs[i] = h
        if len(toks) < k:
            sh = hs[:1]
            for j in range(1, len(toks)):
                sh = mix2(sh, hs[j : j + 1])
        else:
            n = len(toks) - k + 1
            sh = hs[:n]
            for j in range(1, k):
                sh = mix2(sh, hs[j : j + n])
        out.append(np.unique(sh))
    return out


def word_shingles(text: str, k: int = 3) -> np.ndarray:
    """k-word shingle hash set (sorted unique uint64) for one document."""
    return word_shingle_sets([text], k)[0]


# MinHash: h_i(x) = splitmix64(x ^ seed_i); signature = min over shingles.
_PERM_SEEDS: dict[int, np.ndarray] = {}


def _perm_seeds(num_perm: int) -> np.ndarray:
    s = _PERM_SEEDS.get(num_perm)
    if s is None:
        s = splitmix64(np.arange(num_perm, dtype=np.uint64) + np.uint64(TOKEN_SEED))
        _PERM_SEEDS[num_perm] = s
    return s


def minhash_signature(shingle_hashes: np.ndarray, num_perm: int = 64) -> np.ndarray:
    if len(shingle_hashes) == 0:
        return np.full(num_perm, np.iinfo(np.uint64).max, np.uint64)
    seeds = _perm_seeds(num_perm)
    # (perm, shingle) mix then min — vectorized
    mixed = splitmix64(shingle_hashes[None, :] ^ seeds[:, None])
    return mixed.min(axis=1)


def minhash_signatures(shingle_sets: list[np.ndarray],
                       num_perm: int = 64) -> np.ndarray:
    """Batch MinHash: (ndocs, num_perm) signature matrix, identical output to
    per-doc ``minhash_signature``.  Measured note: a concatenate-everything +
    segment-min (np.minimum.reduceat) variant was 13× SLOWER than this
    per-doc loop on realistic ~40-shingle docs — the (perm × total_shingles)
    temporaries are memory-bandwidth-bound while the per-doc (perm × n_i)
    kernel stays in cache; the numpy dispatch being amortized was never the
    cost.  Kept as the one batch entry point so callers don't re-learn that."""
    n = len(shingle_sets)
    sigs = np.full((n, num_perm), np.iinfo(np.uint64).max, np.uint64)
    seeds = _perm_seeds(num_perm)
    for i, sh in enumerate(shingle_sets):
        if len(sh):
            sigs[i] = splitmix64(sh[None, :] ^ seeds[:, None]).min(axis=1)
    return sigs


_BAND_SALTS: dict[int, np.ndarray] = {}


def lsh_band_keys_batch(sigs: np.ndarray, bands: int = 16) -> np.ndarray:
    """Vectorized banding for a BATCH of signatures: (ndocs, num_perm) →
    (ndocs, bands) int64 bucket keys.  Each band's signature rows fold
    through a splitmix64 chain seeded with a per-band salt (so identical row
    chunks in different band positions never share a key); docs sharing ANY
    band key are near-dup candidates.  Integer keys also shrink the band
    shuffle rows vs the hex-string keys of ``lsh_band_keys``."""
    ndocs, num_perm = sigs.shape
    rows = num_perm // bands
    salts = _BAND_SALTS.get(bands)
    if salts is None:
        salts = splitmix64(np.arange(bands, dtype=np.uint64)
                           + np.uint64(0xB0B5 + TOKEN_SEED))
        _BAND_SALTS[bands] = salts
    chunks = sigs.reshape(ndocs, bands, rows)
    key = splitmix64(chunks[:, :, 0] ^ salts[None, :])
    for j in range(1, rows):
        key = splitmix64(key ^ chunks[:, :, j])
    return key.view(np.int64)


def lsh_band_keys(sig: np.ndarray, bands: int = 16) -> list[str]:
    """Band the signature: docs sharing ANY band key are near-dup candidates."""
    rows = len(sig) // bands
    keys = []
    for b in range(bands):
        chunk = sig[b * rows : (b + 1) * rows]
        d = hashlib.blake2b(chunk.tobytes(), digest_size=8).hexdigest()
        keys.append(f"{b}:{d}")
    return keys


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two sorted-unique hash sets."""
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    return inter / (len(a) + len(b) - inter)


# Language-ID: tiny marker-stopword heuristic (n-gram-free, deterministic).
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "with"},
    "es": {"el", "la", "de", "que", "y", "en", "los", "del", "las", "por"},
    "de": {"der", "die", "und", "das", "nicht", "von", "ist", "mit", "den", "ein"},
    "fr": {"le", "la", "les", "de", "et", "des", "est", "dans", "que", "pour"},
}


def guess_lang(texts: list[str]) -> list[str]:
    """Marker-word language heuristic; 'und' (undetermined) when no markers."""
    out = []
    for t in texts:
        toks = t.lower().split()
        if not toks:
            out.append("und")
            continue
        scores = {lang: sum(1 for w in toks if w in mk) for lang, mk in _LANG_MARKERS.items()}
        best = max(scores.items(), key=lambda kv: (kv[1], kv[0]))
        out.append(best[0] if best[1] > 0 else "und")
    return out


_STOPWORDS = ("the", "a", "of", "and", "to")


def quality_metrics(texts: list[str]) -> dict[str, np.ndarray]:
    """Quality-scoring features; formulas mirror the SQL oracle exactly:
    n_chars = length(text); n_tokens = len(string_split_regex(text,'\\s+'));
    stop_tokens = count of tokens in a fixed 5-word stoplist."""
    n = len(texts)
    n_chars = np.empty(n, np.int64)
    n_tokens = np.empty(n, np.int64)
    stop_tokens = np.empty(n, np.int64)
    for i, t in enumerate(texts):
        n_chars[i] = len(t)
        # duckdb string_split_regex('', '\s+') -> [''] i.e. length 1
        parts = _WS_RE.split(t) if t else [""]
        n_tokens[i] = len(parts)
        stop_tokens[i] = sum(1 for w in parts if w in _STOPWORDS)
    return {"n_chars": n_chars, "n_tokens": n_tokens, "stop_tokens": stop_tokens}
