"""Storage-partitioned shuffle: map tasks write ONE parquet partial per task
with one ROW GROUP per partition id present in the batch; one reduce task per
partition then reads exactly its row groups and runs the group function.

Why not Ray's groupby shuffle for the rewrite jobs?  A maintenance rewrite
(cluster, MERGE) moves every byte of the table; routing those bytes through
the object store costs an extra copy in/out of shared memory plus the
all-to-all object transfer, and measured 0.65-0.70 scaling efficiency on the
bench box.  Writing map-side partials straight to table storage is the
external-shuffle pattern production engines use for exactly these jobs
(Spark's external shuffle / push-based Magnet): on a multi-node cluster the
partials directory lives on the shared table store (S3/HDFS), so reduce
locality is identical — and the map and reduce stages each scale like plain
parallel file I/O.

File-count bound (VERDICT r2 #6): one file per MAP TASK regardless of the
partition count — a batch's partitions become row groups inside that task's
single file, and the manifest records (part → [(path, row_group), ...]) so
each reduce task reads only its row groups (parquet row-group reads are
independent seeks, the same I/O pattern as separate files without the
metadata/inode storm at high P × many map tasks).

Reduce tasks are plain Ray tasks (one per partition) whose group function is
responsible for idempotence (every caller runs the journal protocol of
state/lineage.py per partition, so a retried or resumed reduce returns the
journaled result without rewriting)."""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def write_partials(batch: pa.Table, *, part_col: str, work_dir: str) -> pa.Table:
    """map_batches stage: sort one batch by partition id and write a SINGLE
    parquet file with one row group per partition present.  Emits
    (part, path, rg) rows so the caller can fan reduce tasks without listing
    or footer-scanning the directory."""
    if batch.num_rows == 0:  # empty upstream block: nothing to write
        return pa.table({"part": pa.array([], pa.int32()),
                         "path": pa.array([], pa.string()),
                         "rg": pa.array([], pa.int32())})
    part = batch[part_col].to_numpy()
    order = np.argsort(part, kind="stable")
    sorted_part = part[order]
    bounds = np.nonzero(np.diff(sorted_part))[0] + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(part)]])
    sorted_batch = batch.take(pa.array(order))
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, f"{uuid.uuid4().hex}.parquet")
    tmp = path + ".tmp"
    out_p, out_rg = [], []
    from ..sources.fragments import column_compression

    with pq.ParquetWriter(tmp, sorted_batch.schema,
                          compression=column_compression(sorted_batch.schema)) as w:
        for rg, (s, e) in enumerate(zip(starts, ends)):
            # one write_table call = one row group (slice length < default
            # row_group_size), addressable independently by the reducer
            w.write_table(sorted_batch.slice(s, e - s))
            out_p.append(int(sorted_part[s]))
            out_rg.append(rg)
    os.replace(tmp, path)
    return pa.table({"part": pa.array(out_p, pa.int32()),
                     "path": pa.array([path] * len(out_p), pa.string()),
                     "rg": pa.array(out_rg, pa.int32())})


def fs_shuffle_map(ds, *, part_col: str, work_dir: str) -> dict:
    """Map side alone: partition ``ds`` into ``work_dir`` partials and return
    the manifest {part: [(path, row_group), ...]} — for callers that fan
    different reduce functions over different partition subsets (cow merge
    routes fragments and the insert partition through ONE exchange)."""
    os.makedirs(work_dir, exist_ok=True)
    manifest: dict[int, list[tuple[str, int]]] = {}
    map_ds = ds.map_batches(
        write_partials, fn_kwargs=dict(part_col=part_col, work_dir=work_dir),
        batch_format="pyarrow",
    )
    for b in map_ds.iter_batches(batch_format="pyarrow"):
        for p, f, rg in zip(b["part"].to_pylist(), b["path"].to_pylist(),
                            b["rg"].to_pylist()):
            manifest.setdefault(p, []).append((f, rg))
    return manifest


def read_partition(pieces: list[tuple[str, int]]) -> pa.Table:
    """Assemble one partition from its manifest pieces (single-threaded:
    callers run one task per CPU)."""
    by_file: dict[str, list[int]] = {}
    for f, rg in pieces:
        by_file.setdefault(f, []).append(rg)
    tables = []
    for f, rgs in by_file.items():
        pf = pq.ParquetFile(f)
        tables.append(pf.read_row_groups(sorted(rgs), use_threads=False))
    return pa.concat_tables(tables).combine_chunks()


def drain(refs: list) -> list:
    """``ray.get`` every ref, waiting for ALL tasks before re-raising the
    first error: a caller's cleanup then never deletes inputs under a
    sibling that is still running, and every sibling that can finish
    journals its partition, so a crashed job journals the same set of
    records from run to run."""
    import ray

    out, first_err = [], None
    for r in refs:
        try:
            out.append(ray.get(r))
        except Exception as e:  # noqa: BLE001 — re-raised below
            first_err = first_err or e
    if first_err is not None:
        raise first_err
    return out


def fs_reduce(manifest: dict, reduce_fn, fn_kwargs: dict | None = None):
    """Fan one Ray task per manifest partition; returns reduce outputs."""
    import ray

    fn_kwargs = fn_kwargs or {}

    @ray.remote(num_cpus=1)
    def reduce_task(part: int, pieces: list[tuple[str, int]]):
        # one task = one CPU: arrow's default 8-thread IO pool makes 16
        # concurrent reduce tasks run 128 reader threads that thrash the
        # (shared) memory bus — measured 4-5x slower per read than
        # single-threaded (BASELINE.md round-5 oversubscription note)
        if pa.io_thread_count() > 1:
            pa.set_io_thread_count(1)
        return reduce_fn(read_partition(pieces), **fn_kwargs)

    return drain([reduce_task.remote(p, pieces)
                  for p, pieces in sorted(manifest.items())])


def fs_shuffle_groups(ds, *, part_col: str, work_dir: str, reduce_fn,
                      fn_kwargs: dict | None = None):
    """Run ``reduce_fn(group: pa.Table, **fn_kwargs) -> pa.Table`` once per
    partition of ``ds`` (partition ids in ``part_col``), shuffling through
    ``work_dir`` instead of the object store.  Returns the list of reduce
    outputs (Arrow tables)."""
    manifest = fs_shuffle_map(ds, part_col=part_col, work_dir=work_dir)
    return fs_reduce(manifest, reduce_fn, fn_kwargs)


def cleanup(work_dir: str) -> None:
    import shutil

    shutil.rmtree(work_dir, ignore_errors=True)
