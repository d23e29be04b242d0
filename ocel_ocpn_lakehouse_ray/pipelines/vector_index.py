"""Persisted IVF vector index: ANN index BUILD as a resumable maintenance
job, and index-accelerated search with PRUNED reads — the missing piece
between the per-query IVF (`similarity.q_ann_ivf`, which re-trains and
re-buckets the corpus on every call) and what a lakehouse actually ships:
train once, bucket once, store the inverted lists as one parquet file per
list, then answer every query by reading only the ``nprobe`` probed lists.

Layout under ``index_dir``::

    centroids.npy        (nlist, dim) float64 spherical-k-means centroids
    list-NNNN.parquet    inverted list: vec_id + embedding of its members
    _INDEX.json          manifest: nlist, dim, rows, per-list rows/files

Scale shape: the build is one broadcast (centroids) + one map pass
(assignment) + one groupby exchange that writes each list exactly once
(idempotent tmp+rename — a rebuilt run skips existing lists); search reads
``nprobe/nlist`` of the corpus bytes (the pruning a 100 TB corpus needs)
and scores with the same block-local exact-cosine top-k as the brute-force
baseline.  Recall vs brute force is asserted in tests.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..state.manifest import write_atomic
from .queries import _read_wide, bucketed_groups
from .similarity import (
    IVF_KMEANS_ITERS,
    IVF_TRAIN_SAMPLE,
    LSH_SEED,
    _head_arrow,
    _matrix,
    _train_centroids,
)

N_QUERIES = 10
# Bumped when the list files' layout changes, so a cached index written in
# an older layout is rebuilt instead of read (it is part of the cache tag).
# 2: list files carry no pandas schema metadata.
INDEX_FORMAT = 2
K = 5


def build_ivf_index(sf_dir: str, index_dir: str, *, nlist: int = 16,
                    train_sample: int = IVF_TRAIN_SAMPLE,
                    seed: int = LSH_SEED + 7) -> dict:
    """Build (or resume) the index; returns the manifest dict."""
    import ray

    os.makedirs(index_dir, exist_ok=True)
    cpath = os.path.join(index_dir, "centroids.npy")
    if os.path.exists(cpath):
        C = np.load(cpath)
    else:
        sample = _head_arrow(sf_dir, "embeddings", train_sample,
                             columns=["vec_id", "embedding"])
        _, sm = _matrix(sample)
        C = _train_centroids(sm, nlist, IVF_KMEANS_ITERS, seed)
        tmp = os.path.join(index_dir, f".centroids.tmp.{os.getpid()}.npy")
        np.save(tmp, C)  # path ends in .npy → no suffix appended
        os.replace(tmp, cpath)
    c_ref = ray.put(C)

    ds = _read_wide(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        import ray as _r

        cm = _r.get(c_ref)
        _, m = _matrix(batch)
        lists = np.argmax(m @ cm.T, axis=1).astype(np.int64)
        return batch.append_column("list_id", pa.array(lists))

    def write_list(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for lid, grp in g.groupby("list_id", sort=False):
            name = f"list-{int(lid):04d}.parquet"
            final = os.path.join(index_dir, name)
            if not os.path.exists(final):  # resume: list already written
                tbl = pa.Table.from_pandas(
                    grp[["vec_id", "embedding"]].sort_values("vec_id"),
                    preserve_index=False).replace_schema_metadata(None)
                tmp = final + f".tmp.{os.getpid()}"
                pq.write_table(tbl, tmp)
                os.replace(tmp, final)
            out.append({"list_id": int(lid), "file": name,
                        "rows": int(len(grp))})
        return pd.DataFrame(out) if out else pd.DataFrame(
            {"list_id": pd.Series(dtype=np.int64),
             "file": pd.Series(dtype=str),
             "rows": pd.Series(dtype=np.int64)})

    lists = bucketed_groups(
        ds.map_batches(assign, batch_format="pyarrow"),
        "list_id", write_list).to_pandas().sort_values("list_id")
    manifest = {
        "nlist": int(nlist),
        "dim": int(C.shape[1]),
        "rows": int(lists["rows"].sum()),
        "lists": lists.to_dict("records"),
    }
    write_atomic(os.path.join(index_dir, "_INDEX.json"), json.dumps(manifest))
    return manifest


def search_ivf_index(index_dir: str, q_ids: np.ndarray, q_mat: np.ndarray,
                     *, k: int = K, nprobe: int = 4) -> tuple[pd.DataFrame, dict]:
    """Exact cosine top-k within the probed lists only.  Returns
    (results, stats) where stats reports the read pruning actually
    achieved (files/rows read vs total)."""
    import ray
    import ray.data

    with open(os.path.join(index_dir, "_INDEX.json")) as f:
        manifest = json.load(f)
    C = np.load(os.path.join(index_dir, "centroids.npy"))
    probes = np.argsort(-(q_mat @ C.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    needed = sorted(set(probes.reshape(-1).tolist()))
    by_list = {e["list_id"]: e for e in manifest["lists"]}
    files = [os.path.join(index_dir, by_list[l]["file"])
             for l in needed if l in by_list]
    stats = {
        "lists_probed": len(needed),
        "lists_total": len(manifest["lists"]),
        "rows_read": sum(by_list[l]["rows"] for l in needed if l in by_list),
        "rows_total": manifest["rows"],
    }
    if not files:
        return (pd.DataFrame({"query_id": [], "neighbor_id": [], "sim": []}),
                stats)

    # per-query probe membership broadcast with the queries
    probe_sets = {int(q_ids[i]): set(probes[i].tolist())
                  for i in range(len(q_ids))}
    payload_ref = ray.put((q_ids, q_mat, probe_sets, k))

    def score(batch: pa.Table) -> pa.Table:
        import ray as _r

        qi, qm, psets, kk = _r.get(payload_ref)
        ids, m = _matrix(batch)
        lid = batch["list_id"].to_numpy() if "list_id" in batch.column_names \
            else None
        sims = qm @ m.T
        out_q, out_n, out_s = [], [], []
        for i in range(len(qi)):
            mask = ids != qi[i]
            if lid is not None:
                mask &= np.isin(lid, list(psets[int(qi[i])]))
            cand = np.nonzero(mask)[0]
            if not len(cand):
                continue
            s = sims[i]
            order = np.lexsort((ids[cand], -s[cand]))[:kk]
            pick = cand[order]
            out_q.extend([int(qi[i])] * len(pick))
            out_n.extend(ids[pick].tolist())
            out_s.extend(s[pick].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "neighbor_id": pa.array(out_n, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    # ONE pruned read over exactly the probed list files; each batch derives
    # its list id from the file path (include_paths) so the per-query probe
    # masks apply — no per-list Dataset union (which would add one operator
    # per probed list and collapse at nlist in the thousands).
    lid_by_path = {os.path.join(index_dir, by_list[l]["file"]): l
                   for l in needed if l in by_list}

    def tag(batch: pa.Table) -> pa.Table:
        lids = [lid_by_path[p] for p in batch["path"].to_pylist()]
        return (batch.drop_columns(["path"])
                .append_column("list_id", pa.array(lids, pa.int64())))

    ds = ray.data.read_parquet(files, include_paths=True).map_batches(
        tag, batch_format="pyarrow")
    partials = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    partials = partials.sort_values(["query_id", "sim", "neighbor_id"],
                                    ascending=[True, False, True])
    top = (partials.groupby("query_id", sort=True).head(k)
           .reset_index(drop=True))
    return top, stats


def _corpus_fingerprint(sf_dir: str) -> tuple[str, int]:
    """Content identity of the embeddings corpus: (tag, total_rows).  The
    tag folds ``INDEX_FORMAT`` and each parquet file's path, size and mtime;
    rows come from parquet FOOTER metadata only (no data read).  Keying the
    /tmp index cache by this (not just the sf_dir path) means regenerated
    fixture data at the same path, or an index in an older layout, triggers
    a rebuild instead of silently serving stale neighbors."""
    import glob
    import hashlib

    path = os.path.join(sf_dir, "embeddings.parquet")
    files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"),
                             recursive=True)) if os.path.isdir(path) else [path]
    h = hashlib.md5(f"format {INDEX_FORMAT}".encode())
    rows = 0
    for f in files:
        st = os.stat(f)
        h.update(f"{f}|{st.st_size}|{st.st_mtime_ns}".encode())
        rows += pq.ParquetFile(f).metadata.num_rows
    return h.hexdigest()[:12], rows


def q_ann_ivf_persisted(sf_dir: str):
    """Registry entry: build-once (cached per corpus CONTENT under /tmp)
    persisted IVF index, then index-accelerated top-K for the first
    N_QUERIES vectors — same output contract as q_knn_bruteforce, recall
    asserted in tests."""
    import shutil
    import pyarrow.compute as pc

    tag, corpus_rows = _corpus_fingerprint(sf_dir)
    index_dir = f"/tmp/graft_ivf_{tag}"
    mpath = os.path.join(index_dir, "_INDEX.json")
    if os.path.exists(mpath):
        # belt-and-braces: a size/mtime-preserving rewrite still can't serve
        # a row-count-divergent index (build resume skips existing lists,
        # so a stale dir must be cleared, not rebuilt over)
        with open(mpath) as f:
            if json.load(f).get("rows") != corpus_rows:
                shutil.rmtree(index_dir)
    if not os.path.exists(mpath):
        # dir may hold a partial build — same fingerprint = same corpus, so
        # build_ivf_index's resume (skip existing lists) is safe here
        build_ivf_index(sf_dir, index_dir)
    q_src = _read_wide(sf_dir, "embeddings", columns=["vec_id", "embedding"]) \
        .map_batches(
            lambda b: b.filter(pc.less(b["vec_id"], pa.scalar(N_QUERIES))),
            batch_format="pyarrow")
    q_tbl = pa.concat_tables(
        q_src.iter_batches(batch_format="pyarrow")
    ).combine_chunks().sort_by("vec_id")
    q_ids, q_mat = _matrix(q_tbl)
    top, _ = search_ivf_index(index_dir, q_ids, q_mat, k=K, nprobe=4)
    return top[["query_id", "neighbor_id"]]
