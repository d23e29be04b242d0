"""Space-filling-curve clustering: rewrite the table in Z-order (Morton) or
Hilbert order of the (phash, w, h) key tuple.

The reference's clustering is declarative sort metadata — "Optimal
clustering: (type, time, id)" (`ops/advanced_partitioning.py:167-176`) and DDL
sort orders (`ingest/production_bootstrap.py:219-242`) that nothing physically
applies.  This job applies it: after clustering, each fragment covers a tight
cluster-key range, recorded in manifest stats (`cluster_key`, plus tighter
phash/w/h min-max) → predicate pruning becomes effective (the whole point of
the manifest rewrite).

Physical shape (SURVEY.md §7 step 5) — ONE all-to-all exchange:
  1. sample salted cluster keys → P-1 range boundaries (persisted in the job
     meta, fingerprinted by order and an explicit partition count, so a
     RESUMED run reuses the same partitioning, never re-samples);
  2. map_batches: vectorized key kernel (functions/zorder.py) + searchsorted
     partition assignment.  Hot keys — the injected 10 % hot-phash skew —
     share one cluster key, so ranges are cut on a SALTED key
     (48-bit key ‖ 16-bit image_id hash): identical keys spread over
     partitions without disturbing the order of distinct keys (north_rule
     skew handling);
  3. storage-partitioned exchange (stages/fs_shuffle.py), one reduce task
     per range partition — one partition of the journal protocol
     (state/lineage.py): sort within partition, write fragments.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa

from ..functions.hashing import hash_strings
from ..functions.zorder import KEY_VERSION, hilbert_key, salted_key, zorder_key
from ..state import lineage
from .shuffle import choose_num_partitions

SKEY_COL = "__skey"
PART_COL = "__part"


def cluster_key_batch(batch: pa.Table, order: str) -> np.ndarray:
    ph = batch["phash"].to_numpy(zero_copy_only=False)
    w = batch["w"].to_numpy(zero_copy_only=False)
    h = batch["h"].to_numpy(zero_copy_only=False)
    if order == "zorder":
        return zorder_key(ph, w, h)
    if order == "hilbert":
        return hilbert_key(ph, w, h)
    raise ValueError(f"unknown cluster order {order!r}")


def _salted(batch: pa.Table, order: str) -> np.ndarray:
    key = cluster_key_batch(batch, order)
    salt = hash_strings(batch["image_id"].to_pylist(), seed=7)
    return salted_key(key, salt)


def sample_boundaries(table, order: str, num_parts: int, sample_frac: float = None) -> list[int]:
    """Deterministic-enough boundary estimation: sample salted keys, take
    evenly spaced quantiles.  Only the (phash, w, h, image_id) columns are
    read — never the image payload — and when a small row fraction suffices,
    only a stratified subset of FRAGMENTS is opened at all (every k-th by
    sorted id: cheap, unbiased enough for range boundaries; persisted to the
    job journal so resume never depends on re-sampling)."""
    total = table.manifest.total_rows
    if total == 0 or not table.fragments or num_parts <= 1:
        return []
    target_sample = min(max(20 * num_parts, 2000), 200_000)
    frac = sample_frac if sample_frac is not None else min(1.0, target_sample / max(1, total))
    frags = sorted(table.fragments, key=lambda f: f.fragment_id)
    if frac < 0.25 and len(frags) >= 8:
        step = max(1, int(0.25 / max(frac, 1e-9)))
        subset = frags[:: min(step, max(1, len(frags) // 4))]
        frac = min(1.0, target_sample / max(1, sum(f.rows for f in subset)))
    else:
        subset = frags
    # Plain ray.remote tasks instead of a Dataset: the sample is tiny
    # (<= 200k key rows) and the streaming executor's planning/startup was
    # the cluster job's dominant FIXED cost (~0.3-0.5 s), which caps its
    # measured scaling efficiency.  Deterministic per fragment path.
    import zlib

    import ray

    @ray.remote(num_cpus=1)
    def sample_keys(paths: list[str], frc: float) -> np.ndarray:
        import pyarrow.parquet as pq

        out = []
        for p in paths:
            t = pq.read_table(p, columns=["phash", "w", "h", "image_id"],
                              use_threads=False)
            if frc < 1.0 and t.num_rows > 1:
                rng = np.random.default_rng(
                    42 ^ zlib.crc32(os.path.basename(p).encode()))
                take = max(1, int(t.num_rows * frc))
                t = t.take(np.sort(rng.choice(t.num_rows, take, replace=False)))
            if t.num_rows:
                out.append(_salted(t, order))
        return (np.concatenate(out) if out
                else np.empty(0, np.uint64))

    paths = table.fragment_paths(subset)
    ntasks = max(1, min(len(paths),
                        int(ray.cluster_resources().get("CPU", 8))))
    chunks = [paths[i::ntasks] for i in range(ntasks)]
    keys = ray.get([sample_keys.remote(c, frac) for c in chunks if c])
    allk = (np.sort(np.concatenate(keys))
            if any(len(k) for k in keys) else np.array([], np.uint64))
    if len(allk) == 0 or num_parts <= 1:
        return []
    qs = [allk[int(len(allk) * i / num_parts)] for i in range(1, num_parts)]
    return [int(q) for q in qs]


def _write_partition(group: pa.Table, *, root, job_id, target_bytes, failpoint=None) -> None:
    """Reduce function (one plain Ray task per partition): one group = one
    range partition of the journal protocol → sort by cluster key, strip
    helper columns, write fragments stamped with their cluster-key range."""
    part = group[PART_COL][0].as_py()
    pid = f"part-{part:05d}"

    def kernel(write):
        if failpoint is not None and part >= failpoint:
            raise RuntimeError(f"failpoint: simulated crash at {pid}")
        g = group.sort_by([(SKEY_COL, "ascending")])
        skey = g[SKEY_COL].to_numpy()
        data = g.drop_columns([SKEY_COL, PART_COL])
        metas = write(data, target_bytes=target_bytes)
        # record the cluster-key range per fragment (manifest-rewrite payload)
        rows_per = -(-data.num_rows // max(1, len(metas)))
        for i, m in enumerate(metas):
            lo, hi = i * rows_per, min((i + 1) * rows_per, data.num_rows) - 1
            m.stats["cluster_key"] = {
                "min": int(skey[lo] >> np.uint64(16)),
                "max": int(skey[hi] >> np.uint64(16)),
                "null_count": 0,
            }
        return metas, data.num_rows, {}

    lineage.load_or_run(root, job_id, pid, kernel, frags_in=["<full-table>"])


def run_clustering(table, *, order: str | None = None, job_id: str | None = None,
                   num_partitions: int | None = None, failpoint: int | None = None):
    """Cluster-rewrite the whole table in space-filling-curve order; returns
    (new_table, report).  Resumable via job_id (boundaries + finished
    partitions come from the journal)."""
    cfg = table.config
    order = order or (cfg.cluster_order if cfg.cluster_order != "none" else "zorder")
    job_id = job_id or lineage.default_job_id(f"cluster-{order}", table)
    t0 = time.time()

    def plan() -> dict:
        P = num_partitions or choose_num_partitions(
            table.manifest.total_bytes, cfg.target_fragment_bytes,
            num_fragments=len(table.fragments),
        )
        return {"order": order, "num_parts": P,
                "boundaries": sample_boundaries(table, order, P),
                "base_version": table.version}

    meta = lineage.open_job(table.root, job_id,
                            lineage.fingerprint(order, num_partitions, KEY_VERSION),
                            plan)
    bounds = np.array(meta["boundaries"], dtype=np.uint64)
    P = meta["num_parts"]

    def assign(batch: pa.Table) -> pa.Table:
        sk = _salted(batch, order)
        part = np.searchsorted(bounds, sk, side="right").astype(np.int32)
        return batch.append_column(SKEY_COL, pa.array(sk, pa.uint64())) \
                    .append_column(PART_COL, pa.array(part, pa.int32()))

    # read with enough blocks that the shuffle's map side saturates the
    # cluster (small-file coalescing would otherwise cap it at ~2 blocks/GB)
    import ray

    from .fs_shuffle import cleanup, fs_shuffle_groups

    nblocks = max(P, 2 * int(ray.cluster_resources().get("CPU", 8)))
    ds = table.to_dataset(override_num_blocks=nblocks)
    assigned = ds.map_batches(assign, batch_format="pyarrow")
    # partials are rebuilt from scratch on resume (cheap map-only pass);
    # COMPLETED partitions still short-circuit via their lineage records
    work = os.path.join(lineage.journal_dir(table.root, job_id), "shuffle")
    cleanup(work)
    try:
        fs_shuffle_groups(assigned, part_col=PART_COL, work_dir=work,
                          reduce_fn=_write_partition,
                          fn_kwargs=dict(root=table.root, job_id=job_id,
                                         target_bytes=cfg.target_fragment_bytes,
                                         failpoint=failpoint))
    finally:
        cleanup(work)
    # journal is authoritative (covers resumed partitions whose groups were
    # recomputed but skipped, and empty partitions produce no record)
    records = lineage.load_records(table.root, job_id)
    by_id = {m.fragment_id: m for rec in records.values() for m in rec.out_metas()}
    add = list(by_id.values())
    rows = sum(rec.rows for rec in records.values())
    if rows != table.manifest.total_rows:
        raise RuntimeError(
            f"clustering dropped rows: journaled {rows} vs table {table.manifest.total_rows}"
        )
    elapsed = time.time() - t0
    new_table = table.commit(
        operation=f"cluster-{order}",
        add=add,
        remove_ids=table.manifest.fragment_ids(),
        summary={"job_id": job_id, "order": order, "partitions": P,
                 "fragments_out": len(add), "rows": rows, "seconds": round(elapsed, 3)},
    )
    report = {
        "job_id": job_id, "order": order, "partitions": P,
        "fragments_out": len(add), "rows": rows,
        "seconds": round(elapsed, 3),
        "rows_per_sec": round(rows / elapsed, 1) if elapsed > 0 else None,
    }
    return new_table, report
