"""Similarity search + embedding near-dedup over the `embeddings` table
(`vec_id:int64, embedding:list<float>, label:int32`).

Scale shapes:
- **brute-force top-k** (the exact baseline): the query matrix is broadcast
  once (ray.put), every batch does one float64 matmul against it, emits its
  block-local top-k, and the tiny (queries × k per block) partials are
  combined at the end — the full corpus streams, only candidates move.
- **LSH-bucketed ANN** (the scale path): random-hyperplane signatures bucket
  the corpus with a groupby; candidates meet only within buckets.  Approximate
  by construction → registered without a SQL oracle (rows-only check).
- **embedding near-dup pairs**: block × broadcast-corpus cosine with a
  threshold; at 10^12 rows the LSH bucketing above replaces the broadcast.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .queries import _read_wide, _small_arrow

K = 5
N_QUERIES = 10
DEDUP_THRESHOLD = 0.35
LSH_BITS = 12
LSH_SEED = 1234


def _head_arrow(sf_dir: str, name: str, n: int, columns=None) -> pa.Table:
    """First ~n rows of a parquet table WITHOUT reading the whole file —
    row groups stream until the target is reached (the IVF trainer's sample
    read; at 10^12 rows `_small_arrow` would be a full-table driver pull)."""
    import os

    import pyarrow.parquet as pq

    pf = pq.ParquetFile(os.path.join(sf_dir, f"{name}.parquet"))
    batches, got = [], 0
    for b in pf.iter_batches(batch_size=min(n, 4096), columns=columns):
        batches.append(b)
        got += b.num_rows
        if got >= n:
            break
    tbl = pa.Table.from_batches(batches, schema=pf.schema_arrow if columns is None
                                else None)
    return tbl.slice(0, n)


def _matrix(tbl: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(ids, row-normalized float64 matrix) from an embeddings Arrow table."""
    ids = tbl["vec_id"].to_numpy()
    flat = tbl["embedding"].combine_chunks()
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.chunk(0) if flat.num_chunks == 1 else pa.concat_arrays(flat.chunks)
    dim = len(flat[0])
    m = np.asarray(flat.values, dtype=np.float64).reshape(len(ids), dim)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return ids, m / norms


def _make_topk_scorer(q_ref, k):
    """Per-batch block-local top-k scorer against the broadcast query matrix
    (float64 cosine; ties broken by vec_id).  A plain map TASK, not an actor:
    the only per-worker state is the broadcast ref, and ray.get of it inside
    a task is a zero-copy read from node-local plasma — actor-pool spin-up
    cost ~2 s per query at bench scale for no benefit (see broadcast_join)."""
    import ray

    def score(batch: pa.Table) -> pa.Table:
        q_ids, q_mat = ray.get(q_ref)
        ids, m = _matrix(batch)
        sims = q_mat @ m.T  # (nq, batch)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            s = sims[qi]
            mask = ids != q_ids[qi]  # exclude self-match
            cand_idx = np.nonzero(mask)[0]
            if len(cand_idx) == 0:
                continue
            order = np.lexsort((ids[cand_idx], -s[cand_idx]))[:k]
            pick = cand_idx[order]
            out_q.extend([q_ids[qi]] * len(pick))
            out_n.extend(ids[pick].tolist())
            out_s.extend(s[pick].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "neighbor_id": pa.array(out_n, pa.int64()),
            "sim": pa.array(out_s, pa.float64()),
        })

    return score


def q_knn_bruteforce(sf_dir: str):
    """Exact cosine top-K neighbors for the first N_QUERIES vectors.  The
    query rows come from a row-filter-pushed-down parquet scan (only matching
    row groups leave storage) — the driver receives only the N_QUERIES query
    vectors, never the corpus."""
    import pyarrow.compute as _pc
    import ray

    q_src = _read_wide(sf_dir, "embeddings", columns=["vec_id", "embedding"],
                       filter=_pc.field("vec_id") < N_QUERIES)
    q_tbl = pa.concat_tables(
        q_src.iter_batches(batch_format="pyarrow")
    ).combine_chunks().sort_by("vec_id")
    q_ref = ray.put(_matrix(q_tbl))
    ds = _read_wide(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    partials = ds.map_batches(
        _make_topk_scorer(q_ref, K), batch_format="pyarrow",
    ).to_pandas()
    # final combine: global top-k per query (tiny)
    partials = partials.sort_values(["query_id", "sim", "neighbor_id"],
                                    ascending=[True, False, True])
    top = partials.groupby("query_id", sort=True).head(K)
    return top[["query_id", "neighbor_id"]].reset_index(drop=True)


SQL_KNN_BRUTEFORCE = f"""
SELECT query_id, neighbor_id FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         row_number() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC, e.vec_id
         ) AS rk
  FROM embeddings q JOIN embeddings e ON e.vec_id <> q.vec_id
  WHERE q.vec_id < {N_QUERIES}
) WHERE rk <= {K}
"""


def _make_dedup_scorer(corpus_ref, threshold):
    """Near-dup pairs: each batch scores against the broadcast corpus and
    emits canonical (a < b) pairs above the rounded threshold.  Task-based
    for the same reason as _make_topk_scorer."""
    import ray

    def score(batch: pa.Table) -> pa.Table:
        c_ids, c_mat = ray.get(corpus_ref)
        ids, m = _matrix(batch)
        sims = m @ c_mat.T
        bi, cj = np.nonzero(
            (np.round(sims, 6) >= threshold) & (ids[:, None] < c_ids[None, :])
        )
        return pa.table({
            "a": pa.array(ids[bi], pa.int64()),
            "b": pa.array(c_ids[cj], pa.int64()),
        })

    return score


def q_embedding_dedup_exact(sf_dir: str):
    """Exact embedding-cosine near-dup pairs (canonical a < b) — the
    SMALL-SCALE ORACLE variant: the corpus matrix is broadcast to every actor
    and each block scores against all of it (O(N²) work, corpus must fit in a
    worker).  The registered scale path is q_embedding_dedup (LSH-bucketed);
    this entry stays oracle-paired to pin its exact semantics."""
    import ray

    corpus = _small_arrow(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    ref = ray.put(_matrix(corpus))
    ds = _read_wide(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ds.map_batches(
        _make_dedup_scorer(ref, DEDUP_THRESHOLD), batch_format="pyarrow",
    )


SQL_EMBEDDING_DEDUP = f"""
SELECT a.vec_id AS a, b.vec_id AS b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE round(list_cosine_similarity(a.embedding, b.embedding), 6) >= {DEDUP_THRESHOLD}
"""

# banded sign-LSH parameters for the scale path: 16 bands × 4 bits gives
# ~0.91 recall at cosine 0.35 (p_bit = 1 - arccos(s)/pi = 0.614; recall =
# 1-(1-p^r)^b).  At production thresholds (>=0.8) use more bits per band;
# both are knobs on q_embedding_dedup.
DEDUP_BAND_BITS = 4
DEDUP_BANDS = 16


def q_embedding_dedup(sf_dir: str, *, bands: int = DEDUP_BANDS,
                      band_bits: int = DEDUP_BAND_BITS,
                      threshold: float = DEDUP_THRESHOLD):
    """Embedding-cosine near-dup pairs, LSH-bucketed — the registered SCALE
    path.  Random-hyperplane signatures are split into ``bands`` band keys;
    rows sharing a band key land in one bucket via ONE groupby shuffle
    (moving (vec_id, embedding, band) rows, never the whole corpus), and
    exact cosine pairs >= threshold are verified inside each bucket.
    Recall < 1 by construction (banded LSH) → registered rows-only; exact
    semantics are pinned by q_embedding_dedup_exact's SQL oracle and the
    recall assertion in tests."""
    ds = _read_wide(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    nbits = bands * band_bits

    def band_rows(batch: pa.Table) -> pa.Table:
        ids, m = _matrix(batch)
        rng = np.random.Generator(np.random.PCG64(LSH_SEED + 1))
        planes = rng.standard_normal((nbits, m.shape[1]))
        bits = (planes @ m.T > 0).astype(np.uint32)  # (nbits, n)
        out = []
        for k in range(bands):
            val = np.zeros(len(ids), dtype=np.uint32)
            for j in range(band_bits):
                val |= bits[k * band_bits + j] << np.uint32(j)
            key = (np.full(len(ids), k, np.int64) << np.int64(32)) | val.astype(np.int64)
            out.append(pa.table({
                "vec_id": batch["vec_id"],
                "embedding": batch["embedding"],
                "band": pa.array(key, pa.int64()),
            }))
        return pa.concat_tables(out)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # any set of whole LSH buckets: ONE normalized matrix for all its
        # rows, indexed per band (rows sorted by band, then vec_id; a
        # vec_id repeated inside a band is kept once)
        g = g.sort_values(["band", "vec_id"], kind="stable")
        g = g[~g.duplicated(["band", "vec_id"])]
        all_ids, mat = _matrix(pa.Table.from_pandas(
            g[["vec_id", "embedding"]], preserve_index=False))
        band = g["band"].to_numpy()
        cuts = np.flatnonzero(band[1:] != band[:-1]) + 1
        outs = []
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(band)]):
            if hi - lo < 2:
                continue
            ids, m = all_ids[lo:hi], mat[lo:hi]
            sims = m @ m.T
            ai, bi = np.nonzero(
                (np.round(sims, 6) >= threshold) & (ids[:, None] < ids[None, :])
            )
            outs.append(pd.DataFrame({"a": ids[ai], "b": ids[bi]}))
        if not outs:
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64)})
        return pd.concat(outs, ignore_index=True)

    from .dedup import PAIR_SCHEMA
    from .queries import bounded_fold, bucketed_groups

    pairs = bucketed_groups(
        ds.map_batches(band_rows, batch_format="pyarrow"), "band", bucket_pairs
    )
    # a pair can collide in several bands → distinct, driver-folded under a
    # budget (pairs are bounded by near-dup density, not corpus size)
    out = bounded_fold(pairs, ["a", "b"], lambda g: g.drop_duplicates(["a", "b"]))
    return out if out is not None else PAIR_SCHEMA.empty_table()


IVF_CLUSTERS = 16
IVF_NPROBE = 2
IVF_KMEANS_ITERS = 5
IVF_TRAIN_SAMPLE = 2048


def _train_centroids(m: np.ndarray, k: int, iters: int, seed: int) -> np.ndarray:
    """Deterministic spherical k-means (numpy, few iterations) on normalized
    vectors — the IVF coarse quantizer.  Trained on a SAMPLE; at 10^12 rows
    the sample read is a stratified fragment subset like
    clustering.sample_boundaries."""
    rng = np.random.Generator(np.random.PCG64(seed))
    k = min(k, len(m))
    C = m[rng.choice(len(m), size=k, replace=False)].copy()
    for _ in range(iters):
        assign = (m @ C.T).argmax(axis=1)
        for j in range(k):
            sel = m[assign == j]
            if len(sel):
                c = sel.mean(axis=0)
                n = np.linalg.norm(c)
                if n > 0:
                    C[j] = c / n
    return C


def q_ann_ivf(sf_dir: str, *, k_clusters: int = IVF_CLUSTERS,
              nprobe: int = IVF_NPROBE):
    """IVF-bucketed approximate nearest neighbor (the inverted-file
    alternative to q_ann_lsh): a sampled spherical-k-means coarse quantizer
    is broadcast, every vector is emitted to its ``nprobe`` nearest-centroid
    buckets, exact cosine top-1 runs inside each bucket, and a final
    per-vector max over probes picks the answer.  Approximate (no SQL
    oracle); deterministic given the fixed seed; recall vs brute-force is
    asserted in tests."""
    import ray

    from .queries import bucketed_groups

    sample = _head_arrow(sf_dir, "embeddings", IVF_TRAIN_SAMPLE,
                         columns=["vec_id", "embedding"])
    _, sm = _matrix(sample)
    C = _train_centroids(sm, k_clusters, IVF_KMEANS_ITERS, LSH_SEED + 2)
    c_ref = ray.put(C)

    ds = _read_wide(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        import ray as _r

        cm = _r.get(c_ref)
        ids, m = _matrix(batch)
        sims = m @ cm.T                       # (n, k)
        probes = np.argsort(-sims, axis=1)[:, :nprobe]
        out = []
        for p in range(nprobe):
            out.append(pa.table({
                "vec_id": batch["vec_id"],
                "embedding": batch["embedding"],
                "bucket": pa.array(probes[:, p].astype(np.int64)),
            }))
        return pa.concat_tables(out)

    def bucket_top1(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby("bucket", sort=False):
            grp = grp.drop_duplicates("vec_id")
            if len(grp) < 2:
                continue
            tbl = pa.Table.from_pandas(grp[["vec_id", "embedding"]],
                                       preserve_index=False)
            ids, m = _matrix(tbl)
            sims = m @ m.T
            np.fill_diagonal(sims, -np.inf)
            nn = sims.argmax(axis=1)
            outs.append(pd.DataFrame({
                "vec_id": ids,
                "nn_id": ids[nn],
                "sim": np.round(sims[np.arange(len(ids)), nn], 6),
            }))
        if not outs:
            return pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                                 "nn_id": pd.Series(dtype=np.int64),
                                 "sim": pd.Series(dtype=np.float64)})
        return pd.concat(outs, ignore_index=True)

    cands = bucketed_groups(
        ds.map_batches(assign, batch_format="pyarrow"), "bucket", bucket_top1
    )

    # best-of over the nprobe buckets, per vector (ties → lowest nn_id)
    def best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["vec_id", "sim", "nn_id"],
                          ascending=[True, False, True])
        return g.drop_duplicates("vec_id", keep="first")

    return bucketed_groups(cands, "vec_id", best)


def _lsh_planes(dim: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(LSH_SEED))
    return rng.standard_normal((LSH_BITS, dim))


def q_ann_lsh(sf_dir: str):
    """LSH-bucketed approximate nearest neighbor: random-hyperplane signature
    → bucket groupby → within-bucket exact top-1.  Approximate (no SQL
    oracle); deterministic given the fixed seed."""
    ds = _read_wide(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def sign(batch: pa.Table) -> pa.Table:
        ids, m = _matrix(batch)
        planes = _lsh_planes(m.shape[1])
        bits = (planes @ m.T > 0).astype(np.uint64)
        sig = np.zeros(len(ids), dtype=np.uint64)
        for b in range(LSH_BITS):
            sig |= bits[b] << np.uint64(b)
        return batch.append_column("bucket", pa.array(sig.view(np.int64)))

    def bucket_top1(g: pd.DataFrame) -> pd.DataFrame:
        # coarse bucket = many whole LSH buckets; per-bucket exact top-1
        outs = []
        for _, grp in g.groupby("bucket", sort=False):
            if len(grp) < 2:
                continue
            tbl = pa.Table.from_pandas(grp[["vec_id", "embedding"]],
                                       preserve_index=False)
            ids, m = _matrix(tbl)
            sims = m @ m.T
            np.fill_diagonal(sims, -np.inf)
            nn = sims.argmax(axis=1)
            outs.append(pd.DataFrame({
                "vec_id": ids,
                "nn_id": ids[nn],
                "sim": np.round(sims[np.arange(len(ids)), nn], 6),
            }))
        if not outs:
            return pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                                 "nn_id": pd.Series(dtype=np.int64),
                                 "sim": pd.Series(dtype=np.float64)})
        return pd.concat(outs, ignore_index=True)

    from .queries import bucketed_groups

    return bucketed_groups(
        ds.map_batches(sign, batch_format="pyarrow"), "bucket", bucket_top1
    )
