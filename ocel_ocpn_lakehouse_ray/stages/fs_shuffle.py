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
journaled result without rewriting).

``fan_out`` is the engine's one task fan-out, and the only place it declares
a Ray task; maintenance starts tasks through nothing else.  ``map_files``
runs a function over read blocks of parquet files on it (the map side here,
both verify gates and MERGE's distributed pruning), and the reduce side
here, compaction's and DELETE/UPDATE's bin rewrites
(``compaction.rewrite_bins``), cow MERGE's insert pass, export shards,
clustering's key sample and the seed-table build
(``generator.create_image_table``) call it directly, so every job lets each
sibling task finish — and journal — before a failure surfaces."""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def write_partials(batch: pa.Table, *, part_col: str,
                   work_dir: str) -> list[tuple[int, str, int]]:
    """Map task body: sort one block by partition id and write a SINGLE
    parquet file with one row group per partition present.  Returns its
    (part, path, row_group) pieces, so the caller can fan reduce tasks
    without listing or footer-scanning the directory; an empty block
    writes nothing."""
    if batch.num_rows == 0:
        return []
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
    out = []
    from ..sources.fragments import column_compression

    with pq.ParquetWriter(tmp, sorted_batch.schema,
                          compression=column_compression(sorted_batch.schema)) as w:
        for rg, (s, e) in enumerate(zip(starts, ends)):
            # one write_table call = one row group (slice length < default
            # row_group_size), addressable independently by the reducer
            w.write_table(sorted_batch.slice(s, e - s))
            out.append((int(sorted_part[s]), path, rg))
    os.replace(tmp, path)
    return out


def fs_shuffle_map(paths: list[str], map_fn, *, part_col: str, work_dir: str,
                   num_blocks: int | None = None,
                   schema: pa.Schema | None = None) -> dict:
    """Map side: ``map_fn(block)`` (partition ids in ``part_col``) over the
    read blocks of ``paths`` (``map_files``), each task writing one partial
    to ``work_dir``; returns the manifest {part: [(path, row_group), ...]}."""
    manifest: dict[int, list[tuple[str, int]]] = {}
    for pieces in map_files(paths, lambda b: write_partials(
            map_fn(b), part_col=part_col, work_dir=work_dir),
            num_blocks=num_blocks, schema=schema):
        for p, f, rg in pieces:
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


def fan_out(fn, calls) -> list:
    """The engine's one task fan-out: ``fn(*args)`` as one plain Ray task per
    ``args`` tuple in ``calls``, results in call order (``drain``: every
    task finishes before the first error is re-raised).  Each task takes one
    CPU and one Arrow IO thread: arrow's default 8-thread IO pool makes 16
    concurrent tasks run 128 reader threads that thrash the (shared) memory
    bus — measured 4-5x slower per read than single-threaded (BASELINE.md
    round-5 oversubscription note)."""
    import ray

    @ray.remote(num_cpus=1)
    def task(*args):
        if pa.io_thread_count() > 1:
            pa.set_io_thread_count(1)
        return fn(*args)

    return drain([task.remote(*args) for args in calls])


def map_files(paths: list[str], fn, *, num_blocks: int | None = None,
              schema: pa.Schema | None = None,
              columns: list[str] | None = None) -> list:
    """``fn(block)`` as one ``fan_out`` task per read block of parquet
    ``paths``, results in block order (none for no paths).  The blocks are
    ``read_files``' (``sources.fragments._plan_pieces``: one per file, or
    ``num_blocks`` row-group / row-range pieces), and each task reads its
    block with the one read kernel (``_read_pieces``), so it holds about
    total bytes / blocks.  ``schema`` defaults to the first file's."""
    from ..sources.fragments import _plan_pieces, _read_pieces

    if not paths:
        return []
    paths = [os.path.abspath(p) for p in paths]
    schema = (schema or pq.read_schema(paths[0])).remove_metadata()
    return fan_out(lambda pieces: fn(_read_pieces(
        pieces, schema=schema, columns=columns, filter=None,
        include_paths=False)), [(b,) for b in _plan_pieces(paths, num_blocks)])


def fs_reduce(manifest: dict, reduce_fn, fn_kwargs: dict | None = None):
    """One ``fan_out`` task per manifest partition; returns reduce outputs."""
    fn_kwargs = fn_kwargs or {}
    return fan_out(lambda pieces: reduce_fn(read_partition(pieces), **fn_kwargs),
                   [(pieces,) for _, pieces in sorted(manifest.items())])


def cleanup(work_dir: str) -> None:
    import shutil

    shutil.rmtree(work_dir, ignore_errors=True)
