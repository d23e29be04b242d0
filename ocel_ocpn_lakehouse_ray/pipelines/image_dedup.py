"""Image near-deduplication on the perceptual-hash column, and the composed
image → embedding → similarity pipeline.

phash near-dedup (SURVEY.md §2.7 "Near-dedup … band-partition phash →
in-group pairwise check"): split the 64-bit phash into B contiguous bands;
two images within hamming distance d share at least one identical band
whenever d < B (pigeonhole), so banding finds all near-dup candidates with
ONE groupby shuffle of (band_key, image_id, phash) rows — payload bytes never
move.  Output is CLUSTER rows (representative, member, hamming), not all
pairs: identical phashes collapse before the pairwise check and a union-find
over the distinct-phash edge set assigns every row to its cluster, so a hot
phash value costs O(n) rows instead of the O(n²) pair blowup.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

BANDS = 4  # 4 × 16-bit bands → exact for hamming distance <= 3
HAMMING_THRESHOLD = 3
# Driver union-find budget: the distinct-phash edge set is tiny under any
# realistic near-dup distribution, but unbounded in principle — past this
# many edges the clustering switches to distributed label propagation
# (stages/components.py) and a shuffle join for root assignment.
MAX_DRIVER_EDGES = 2_000_000


def _popcount64(x: np.ndarray) -> np.ndarray:
    v = x.view(np.uint8).reshape(len(x), 8)
    return np.unpackbits(v, axis=1).sum(axis=1)


def phash_near_dup_pairs(ds, *, bands: int = BANDS,
                         threshold: int = HAMMING_THRESHOLD):
    """ds: Dataset with (image_id, phash) → Dataset of near-dup CLUSTER rows
    (representative, member, hamming) — members within hamming <= threshold
    of some cluster row, transitively closed.  Closure runs as a driver
    union-find while the distinct-phash edge set fits MAX_DRIVER_EDGES;
    past that it degrades to distributed label propagation + a shuffle join
    (identical output, no driver edge set)."""
    shift_bits = 64 // bands

    def band_rows(b: pa.Table) -> pa.Table:
        ph = b["phash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = b["image_id"].to_pylist()
        out_id, out_band, out_ph = [], [], []
        for k in range(bands):
            band_val = (ph >> np.uint64(k * shift_bits)) & np.uint64((1 << shift_bits) - 1)
            out_id.extend(ids)
            out_band.extend([f"{k}:{int(v)}" for v in band_val])
            out_ph.extend(ph.view(np.int64).tolist())
        return pa.table({
            "image_id": pa.array(out_id, pa.string()),
            "band": pa.array(out_band, pa.string()),
            "phash": pa.array(out_ph, pa.int64()),
        })

    def bucket_edges(g: pd.DataFrame) -> pd.DataFrame:
        """Emit DISTINCT-PHASH edges only: rows with an identical phash are
        trivially one cluster (hamming 0) and are collapsed BEFORE the
        pairwise check, so a hot phash value (thousands of identical rows in
        one bucket) costs one row, not O(n²) pairs — the round-1 quadratic
        blowup.  Edge count is quadratic only in distinct phashes per band
        bucket; one coarse bucket holds many whole band buckets
        (bucketed_groups co-locates by hash(band))."""
        outs = []
        for _, grp in g.groupby("band", sort=False):
            ph = np.unique(grp["phash"].to_numpy().view(np.uint64))
            n = len(ph)
            if n < 2:
                continue
            ai, bi = np.triu_indices(n, k=1)
            d = _popcount64(ph[ai] ^ ph[bi])
            keep = d <= threshold
            outs.append(pd.DataFrame({"pa": ph[ai][keep].view(np.int64),
                                      "pb": ph[bi][keep].view(np.int64)}))
        if not outs:
            return pd.DataFrame({"pa": pd.Series(dtype=np.int64),
                                 "pb": pd.Series(dtype=np.int64)})
        return pd.concat(outs, ignore_index=True)

    from .queries import bucketed_groups

    edge_ds = bucketed_groups(
        ds.map_batches(band_rows, batch_format="pyarrow"), "band", bucket_edges
    ).materialize()  # in-cluster; consumed once by whichever closure path runs

    if edge_ds.count() <= MAX_DRIVER_EDGES:
        # Union-find over the (tiny) distinct-phash edge set on the driver:
        # edges are pairs of DISTINCT phash values within the hamming
        # threshold — far smaller than the row count and independent of
        # hot-key multiplicity.
        parent: dict = {}

        def find(x):
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        for b in edge_ds.iter_batches(batch_format="pyarrow"):
            for x, y in zip(b["pa"].to_pylist(), b["pb"].to_pylist()):
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)
        root_map = {x: find(x) for x in list(parent)}

        import ray

        root_ref = ray.put(root_map)

        def assign_root(b: pa.Table) -> pa.Table:
            import ray as _r

            roots = _r.get(root_ref)
            ph = b["phash"].to_pylist()
            return pa.table({
                "image_id": b["image_id"],
                "phash": b["phash"],
                "root": pa.array([roots.get(p, p) for p in ph], pa.int64()),
            })

        rooted = ds.map_batches(assign_root, batch_format="pyarrow")
    else:
        # Scale path: distributed min-label propagation over the edge set,
        # then a hash-shuffle join assigns each row its root; rows whose
        # phash has no edge are their own root (left outer + coalesce).
        import ray

        from ..stages.components import distributed_components

        labels = distributed_components(edge_ds)
        nparts = max(2, min(16, int(ray.cluster_resources().get("CPU", 8)) // 2))
        joined = ds.join(labels, join_type="left_outer", num_partitions=nparts,
                         on=("phash",), right_on=("node",))

        def coalesce_root(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return pa.table({
                "image_id": b["image_id"],
                "phash": b["phash"],
                "root": pc.coalesce(b["label"], b["phash"]),
            })

        rooted = joined.map_batches(coalesce_root, batch_format="pyarrow")

    def cluster_rows(g: pd.DataFrame) -> pd.DataFrame:
        """One root = one cluster (all rows sharing a root phash): emit
        (representative, member, hamming-to-representative) rows, rep = min
        image_id.  Clusters of one row produce no output (not a near-dup).
        One coarse bucket holds many whole clusters (co-located by
        hash(root))."""
        outs = []
        for _, grp in g.groupby("root", sort=False):
            if len(grp) < 2:
                continue
            grp = grp.sort_values("image_id")
            rep_id = grp["image_id"].iloc[0]
            rep_ph = np.uint64(np.int64(grp["phash"].iloc[0]))
            members = grp.iloc[1:]
            d = _popcount64(members["phash"].to_numpy().view(np.uint64) ^ rep_ph)
            outs.append(pd.DataFrame({
                "representative": np.repeat(rep_id, len(members)),
                "member": members["image_id"].to_numpy(),
                "hamming": d.astype(np.int64),
            }))
        if not outs:
            # an Arrow block: Ray cannot size an empty pandas string column
            return pa.table({"representative": pa.array([], pa.string()),
                             "member": pa.array([], pa.string()),
                             "hamming": pa.array([], pa.int64())})
        return pd.concat(outs, ignore_index=True)

    return bucketed_groups(rooted, "root", cluster_rows)


def image_near_dup_pairs(table, **kw):
    """LakeTable → phash near-dup candidate pairs (columns pruned at read)."""
    return phash_near_dup_pairs(table.to_dataset(columns=["image_id", "phash"]), **kw)


def image_knn(table, *, k: int = 5, n_queries: int = 8, thumb_batch: int = 64):
    """Composed multimodal pipeline: decode → thumbnail embedding (actor
    stage) → brute-force cosine top-k of the first ``n_queries`` images
    against the full corpus.  The embedding matrix of the (small) query set is
    broadcast; the corpus embedding stream never materializes fully."""
    import ray

    from ..stages.multimodal import EmbedImages

    # Query side: decode+embed ONLY the n query images — fragment min/max
    # stats prune the read to the fragments containing the lowest image_ids,
    # so the query matrix never requires a pass over the corpus.
    q_ids = [f"img_{i:012d}" for i in range(n_queries)]
    q_set = pa.array(q_ids)
    q_src = table.to_dataset(
        columns=["image_id", "bytes", "fmt"],
        predicates=[("image_id", None, q_ids[-1])],
    ).map_batches(
        lambda b: b.filter(pa.compute.is_in(b["image_id"], value_set=q_set)),
        batch_format="pyarrow",
    )
    q_tbl = pa.concat_tables(
        q_src.map_batches(
            EmbedImages, batch_format="pyarrow", batch_size=thumb_batch,
            concurrency=1,  # query set is tiny; one actor
        ).iter_batches(batch_format="pyarrow")
    ).combine_chunks()
    order = pa.compute.sort_indices(q_tbl["image_id"])
    q_tbl = q_tbl.take(order)
    q_ids = q_tbl["image_id"].to_pylist()
    dim = len(q_tbl["embedding"][0])
    q_mat = np.asarray(q_tbl["embedding"].combine_chunks().values,
                       dtype=np.float64).reshape(len(q_ids), dim)
    q_mat /= np.maximum(np.linalg.norm(q_mat, axis=1, keepdims=True), 1e-12)
    ref = ray.put((q_ids, q_mat))

    # Corpus side: ONE streamed decode→embed→block-local-top-k pass; corpus
    # embeddings are never materialized (round 1 held the full stream).
    emb = table.to_dataset(columns=["image_id", "bytes", "fmt"]).map_batches(
        EmbedImages, batch_format="pyarrow", batch_size=thumb_batch,
        concurrency=(1, 4),
    )

    def score(b: pa.Table) -> pa.Table:
        ids = b["image_id"].to_pylist()
        flat = b["embedding"].combine_chunks()
        m = np.asarray(flat.values, dtype=np.float64).reshape(len(ids), -1)
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        qi, qm = ray.get(ref)
        sims = qm @ m.T
        out_q, out_n, out_s = [], [], []
        for i, qid in enumerate(qi):
            for j in np.argsort(-sims[i])[: k + 1]:
                if ids[j] != qid:
                    out_q.append(qid)
                    out_n.append(ids[j])
                    out_s.append(sims[i][j])
        return pa.table({"query_id": out_q, "neighbor_id": out_n,
                         "sim": pa.array(out_s, pa.float64())})

    partials = score  # block-local candidates; final combine on the driver
    df = emb.map_batches(partials, batch_format="pyarrow").to_pandas()
    df = df.sort_values(["query_id", "sim", "neighbor_id"],
                        ascending=[True, False, True])
    return df.groupby("query_id", sort=True).head(k).reset_index(drop=True)
