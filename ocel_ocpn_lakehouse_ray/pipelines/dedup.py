"""Near-deduplication pipelines over the `documents` table:
MinHash+LSH candidate generation, SimHash signatures, and exact n-gram
Jaccard verification of candidates.

Scale shape (the standard shingle→minhash→band→bucket-groupby pipeline):
  1. map_batches: shingle each doc, 64-perm MinHash signature, emit one row
     per LSH band key (flat_map-style expansion, reference M3 exploder
     `ingest/daft_batch_ocel_loader.py:21-81`);
  2. groupby(band_key): docs sharing a band bucket are candidate pairs —
     the ONLY shuffle, and it moves (doc_id, band_key) pairs, never text;
  3. candidate pairs re-read their shingle sets and verify exact Jaccard
     (broadcast of the candidate doc set; at 10^12 docs this is a second
     co-partitioned join on doc_id instead).

All stages deterministic (seeded hash permutations) → stable rows-only
correctness check; exactness vs the brute-force pairwise Jaccard is asserted
in tests at small scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.text import (
    jaccard,
    lsh_band_keys_batch,
    minhash_signatures,
    simhash64,
    word_shingle_sets,
)
from .queries import _read_wide, bounded_fold, bucketed_groups

NUM_PERM = 64
BANDS = 16
JACCARD_THRESHOLD = 0.4
PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def q_simhash(sf_dir: str):
    """SimHash signature per document (near-dup fingerprint family)."""
    ds = _read_wide(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"],
            "simhash": pa.array(simhash64(b["text"].to_pylist()).view(np.int64)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def q_minhash_lsh_pairs(sf_dir: str):
    """MinHash+LSH near-dup candidate pairs (canonical a < b, distinct)."""
    ds = _read_wide(sf_dir, "documents", columns=["doc_id", "text"])

    def band_rows(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        shingle_sets = word_shingle_sets(texts)  # batch memoized token hashes
        sigs = minhash_signatures(shingle_sets, NUM_PERM)  # one segment-min pass
        keys = lsh_band_keys_batch(sigs, BANDS)            # (ndocs, BANDS) int64
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, BANDS), pa.int64()),
            "band": pa.array(keys.reshape(-1), pa.int64()),
        })

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # any set of whole band-buckets: every pair of distinct docs sharing
        # a band key is ONE self-merge on band (a < b), deduplicated here so
        # a pair surfacing from two band keys travels once, not twice
        d = g[["band", "doc_id"]].drop_duplicates()
        m = d.merge(d, on="band", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        return pd.DataFrame({"a": m["doc_id_a"].to_numpy(np.int64),
                             "b": m["doc_id_b"].to_numpy(np.int64)}
                            ).drop_duplicates(["a", "b"])

    pairs = bucketed_groups(
        ds.map_batches(band_rows, batch_format="pyarrow"), "band", bucket_pairs
    )
    # a pair can share several band keys → distinct, driver-folded under the
    # budget (pairs are bounded by near-dup DENSITY, not corpus size)
    out = bounded_fold(pairs, ["a", "b"], lambda g: g.drop_duplicates(["a", "b"]))
    return out if out is not None else PAIR_SCHEMA.empty_table()


def q_ngram_jaccard(sf_dir: str):
    """Exact word-3-gram Jaccard over LSH candidate pairs, thresholded —
    the verify stage of the near-dedup pipeline, CO-PARTITIONED: each band
    row carries the doc's shingle-hash set, so verification happens inside
    the band bucket with everything it needs.  No candidate-pair collection
    on the driver and no all-texts broadcast (the round-1 shape) — the only
    data movement is the one (doc_id, shingles, band) shuffle, and shingle
    sets are ~1 uint64 per word (smaller than the text itself)."""
    ds = _read_wide(sf_dir, "documents", columns=["doc_id", "text"])

    def band_rows(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        shingle_sets = word_shingle_sets(texts)  # batch memoized token hashes
        sigs = minhash_signatures(shingle_sets, NUM_PERM)
        keys = lsh_band_keys_batch(sigs, BANDS)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        # shingle ListArray built once from offsets+values, then repeated
        # per band via take (no per-row python list copies)
        lens = np.fromiter((len(s) for s in shingle_sets), np.int64,
                           len(shingle_sets))
        values = (np.concatenate(shingle_sets) if lens.sum()
                  else np.array([], np.uint64)).view(np.int64)
        offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
        sh_arr = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                          pa.array(values, pa.int64()))
        rep_idx = pa.array(np.repeat(np.arange(len(ids)), BANDS))
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, BANDS), pa.int64()),
            "band": pa.array(keys.reshape(-1), pa.int64()),
            "shingles": sh_arr.take(rep_idx),
        })

    def bucket_verify(g: pd.DataFrame) -> pd.DataFrame:
        # coarse bucket = many band-buckets (see q_minhash_lsh_pairs)
        rows_a, rows_b, rows_j = [], [], []
        for _, grp in g.groupby("band", sort=False):
            grp = grp.drop_duplicates("doc_id").sort_values("doc_id")
            ids = grp["doc_id"].to_numpy()
            sets = [np.asarray(s, np.int64).view(np.uint64) for s in grp["shingles"]]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    jac = round(jaccard(sets[i], sets[j]), 6)
                    if jac >= JACCARD_THRESHOLD:
                        rows_a.append(ids[i])
                        rows_b.append(ids[j])
                        rows_j.append(jac)
        return pd.DataFrame({"a": pd.Series(rows_a, dtype=np.int64),
                             "b": pd.Series(rows_b, dtype=np.int64),
                             "jaccard": pd.Series(rows_j, dtype=np.float64)})

    pairs = bucketed_groups(
        ds.map_batches(band_rows, batch_format="pyarrow"), "band", bucket_verify
    )
    # a pair can share several bands; jaccard is identical each time →
    # co-locate by hash(a) and dedup vectorized
    return bucketed_groups(pairs, "a",
                           lambda g: g.drop_duplicates(["a", "b"]))
