"""Training-shard export: table snapshot → size-targeted parquet shards with
per-shard lineage, resumable after interruption.

The build brief's resumable-output requirement made a first-class job:
"write partitioned Parquet (one directory per input shard / key range) so a
failed run can skip finished partitions; never one giant file."  A training
pipeline consumes the lake table as a directory of uniform shards (the
webdataset layout convention); this job produces that directory from a
PINNED snapshot so a concurrent MERGE/compaction cannot tear the export.

Physical shape: the driver plans shard membership over MANIFEST metadata
only (greedy contiguous packing of the manifest's fragment order — which is
cluster order after a Z-order/Hilbert job, so shards inherit data locality).
Each shard is one task of the engine's fan-out (``fs_shuffle.fan_out``):
read its fragments (columns pruned), write ``shard-NNNNN.parquet`` via
tmp+atomic-rename, journal a state/lineage.py record.  A failed shard
surfaces only after its siblings finish and journal.  Resume = re-run with
the same job_id: journaled shards are skipped without reading a byte.  No
shuffle, no exchange — at 100 TB this is ~400k independent tasks bounded by
storage bandwidth, same scaling class as compaction.

A ``_MANIFEST.json`` (shard list + rows + bytes + source table version) and
``_SUCCESS`` marker publish the export atomically at the end.
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

from ..state import lineage

DEFAULT_SHARD_BYTES = 128 << 20


def plan_shards(fragments, *, shard_bytes: int) -> list[list]:
    """Contiguous greedy packing of manifest-ordered fragments into shards
    of ~shard_bytes (an oversized fragment becomes its own shard)."""
    shards: list[list] = []
    cur: list = []
    cur_bytes = 0
    for f in fragments:
        if cur and cur_bytes + f.bytes > shard_bytes:
            shards.append(cur)
            cur, cur_bytes = [], 0
        cur.append(f)
        cur_bytes += f.bytes
    if cur:
        shards.append(cur)
    return shards


def run_export(table, out_dir: str, *, job_id: str | None = None,
               columns: list[str] | None = None,
               shard_bytes: int = DEFAULT_SHARD_BYTES,
               from_version: int | None = None,
               failpoint: int | None = None) -> dict:
    """Export ``table``'s pinned snapshot to ``out_dir`` as parquet shards.

    ``from_version`` exports only the DELTA — fragments added since that
    snapshot (the CDC shape of ``LakeTable.read_incremental``), so a
    training pipeline ships new data without re-exporting the corpus;
    check ``table.diff(from_version)['append_only']`` when a rewrite in
    the range matters.  Returns a report; re-running with the same job_id
    after an interruption resumes, skipping journaled shards (exercised in
    tests with a failpoint)."""
    from ..state import manifest as mf
    from ..sources.fragments import column_compression
    from .fs_shuffle import fan_out

    job_id = job_id or f"export-v{table.version}"
    t0 = time.time()
    os.makedirs(out_dir, exist_ok=True)
    frags = table.fragments
    if from_version is not None:
        old = {f.fragment_id
               for f in mf.load_manifest(table.root, from_version,
                                         branch=table.branch).fragments}
        frags = [f for f in frags if f.fragment_id not in old]
    shards = plan_shards(frags, shard_bytes=shard_bytes)
    schema = table.schema
    out_schema = (pa.schema([schema.field(c) for c in columns])
                  if columns else schema)
    root = table.root
    done = lineage.load_records(root, job_id)

    def write_shard(idx: int, paths: list[str], frag_ids: list[str]):
        pid = f"shard-{idx:05d}"

        def kernel(write):
            if failpoint is not None and idx == failpoint:
                raise RuntimeError(f"failpoint shard {idx}")
            name = f"{pid}.parquet"
            final = os.path.join(out_dir, name)
            tbl = pa.concat_tables(
                [pq.read_table(p, columns=columns, use_threads=False)
                 for p in paths]
            ).combine_chunks()
            tmp = final + f".tmp.{os.getpid()}"
            pq.write_table(tbl, tmp, compression=column_compression(tbl.schema))
            os.replace(tmp, final)
            # the shard is the partition's one output file (path relative
            # to out_dir, not to the table root)
            shard = mf.FragmentMeta(fragment_id=pid, path=name,
                                    rows=tbl.num_rows,
                                    bytes=os.path.getsize(final))
            return [shard], tbl.num_rows, {"file": name}

        # run, never load: a journaled shard whose file is missing from
        # out_dir (a rerun into another directory) must be rewritten
        lineage.run_partition(root, job_id, pid, kernel, frags_in=frag_ids)
        return idx

    calls = []
    skipped = 0
    for i, shard in enumerate(shards):
        pid = f"shard-{i:05d}"
        if pid in done and os.path.exists(
                os.path.join(out_dir, done[pid].extra["file"])):
            skipped += 1
            continue
        calls.append((i, table.fragment_paths(shard),
                      [f.fragment_id for f in shard]))
    # in-flight shards finish and journal, so the resume run only redoes
    # the failed ones
    fan_out(write_shard, calls)

    # Manifest covers exactly the shards PLANNED IN THIS RUN, in numeric
    # shard order: the journal may hold stale records from a prior run of
    # the same job_id over a different table version / shard plan, and a
    # lexical sort of 'shard-NNNNN' ids mis-orders shards once the zero
    # padding overflows (past shard 99999 at the ~400k-shard scale the
    # module docstring targets).
    recs = lineage.collect(root, job_id,
                           [f"shard-{i:05d}" for i in range(len(shards))],
                           "export")
    manifest = {
        "table_root": root,
        "table_version": table.version,
        "from_version": from_version,
        "job_id": job_id,
        "columns": columns or [f.name for f in out_schema],
        "shards": [
            {"shard": i, "file": rec.extra["file"], "rows": rec.rows,
             "bytes": rec.bytes}
            for i, rec in enumerate(recs)
        ],
        "total_rows": sum(r.rows for r in recs),
        "total_bytes": sum(r.bytes for r in recs),
    }
    mf.write_atomic(os.path.join(out_dir, "_MANIFEST.json"),
                    json.dumps(manifest, indent=1))
    with open(os.path.join(out_dir, "_SUCCESS"), "w") as f:
        f.write(job_id)
    return {
        "job_id": job_id, "shards": len(shards), "skipped_resumed": skipped,
        "rows": manifest["total_rows"], "bytes": manifest["total_bytes"],
        "seconds": round(time.time() - t0, 3),
    }
