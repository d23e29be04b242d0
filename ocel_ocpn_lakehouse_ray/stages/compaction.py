"""Compaction: greedy first-fit bin packing of under-target fragments into
target-size rewrites — the job the reference only *simulates*
(`ops/maintenance_system.py:134-160` computes ``estimated_files_after``;
nothing is rewritten).  Here the plan is executed.

Physical shape (SURVEY.md §7 step 4): compaction needs NO shuffle — each bin
is an independent read→concat→write task.  The driver plans over manifest
metadata (tiny); a ``Dataset`` of bin descriptors fans the rewrites out as
``map_batches`` tasks, each bin one partition of the journal protocol
(state/lineage.py); the job fingerprints its bin plan, so a resume over a
re-packed plan raises instead of rewriting a fragment twice.

At 100 TB: bins are ~target_fragment_bytes (256 MB) units, so a full-table
compaction is ~400k independent 256 MB read+write tasks with zero data
exchange — embarrassingly parallel across a 256-node cluster, bounded only by
storage bandwidth.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from ..state import lineage
from ..state.manifest import FragmentMeta
from .health import estimate_compaction


@dataclass
class CompactionPlan:
    bins: list            # list[list[FragmentMeta]] — each bin → one rewrite task
    untouched: list       # fragments left as-is
    estimate: dict = field(default_factory=dict)


def plan_compaction(fragments, *, target_bytes: int, small_bytes: int) -> CompactionPlan:
    """Greedy first-fit-decreasing bin packing (A14 made real).

    Candidates are all fragments below the target size; bins are capped at
    ``target_bytes``.  A bin that would contain a single fragment already
    above the small-file threshold is not worth rewriting and stays untouched.
    """
    candidates = sorted(
        (f for f in fragments if f.bytes < target_bytes),
        key=lambda f: f.bytes,
        reverse=True,
    )
    untouched = [f for f in fragments if f.bytes >= target_bytes]
    bins: list[list[FragmentMeta]] = []
    room: list[int] = []
    for f in candidates:
        for i in range(len(bins)):
            if room[i] >= f.bytes:
                bins[i].append(f)
                room[i] -= f.bytes
                break
        else:
            bins.append([f])
            room.append(target_bytes - f.bytes)
    # single-fragment bins above the small-file threshold gain nothing
    real_bins = []
    for b in bins:
        if len(b) == 1 and b[0].bytes >= small_bytes:
            untouched.append(b[0])
        else:
            real_bins.append(b)
    return CompactionPlan(
        bins=real_bins,
        untouched=untouched,
        estimate=estimate_compaction(fragments, target_bytes),
    )


def _compact_bin(batch: pa.Table, *, root: str, job_id: str, target_bytes: int,
                 failpoint=None) -> pa.Table:
    """map_batches stage (stateless TASK) over the bin-descriptor dataset:
    one row = one bin, run through the journal protocol (state/lineage.py).
    The kernel reads the bin's fragments directly with pyarrow (the
    task-local analog of a custom datasource read) and concatenates them."""
    for row in batch.to_pylist():
        bin_id = row["bin_id"]

        def kernel(write):
            if failpoint is not None and int(bin_id.split("-")[1]) >= failpoint:
                raise RuntimeError(f"failpoint: simulated crash at {bin_id}")
            # single-threaded reads: one bin task per CPU; arrow's default
            # 8-thread IO pool across 16 concurrent tasks thrashes the bus
            merged = pa.concat_tables(  # zero-copy chunk-list concat
                [pq.read_table(os.path.join(root, p), use_threads=False,
                               memory_map=True)
                 for p in json.loads(row["paths"])])
            return write(merged, target_bytes=target_bytes), merged.num_rows, {}

        lineage.load_or_run(root, job_id, bin_id, kernel,
                            frags_in=json.loads(row["frag_ids"]))
    return batch.slice(0, 0)


def run_compaction(table, *, job_id: str | None = None, failpoint: int | None = None):
    """Execute a compaction job end-to-end; returns (new_table, report).

    Resumable: rerun with the SAME ``job_id`` after an interruption — bins
    already in the lineage journal are skipped (their outputs are reused), and
    the final commit is built from the journal."""
    import ray.data

    cfg = table.config
    job_id = job_id or lineage.default_job_id("compact", table)
    t0 = time.time()
    plan = plan_compaction(
        table.fragments,
        target_bytes=cfg.target_fragment_bytes,
        small_bytes=cfg.small_file_bytes,
    )
    if not plan.bins:
        return table, {"job_id": job_id, "bins": 0, "rows": 0, "seconds": 0.0,
                       "skipped": "nothing to compact", "estimate": plan.estimate}
    bin_frags = [[f.fragment_id for f in b] for b in plan.bins]
    lineage.open_job(table.root, job_id, lineage.fingerprint(bin_frags))

    bin_ids = [f"bin-{i:05d}" for i in range(len(plan.bins))]
    ray.data.from_items([
        {"bin_id": bin_id, "paths": json.dumps([f.path for f in b]),
         "frag_ids": json.dumps(ids)}
        for bin_id, b, ids in zip(bin_ids, plan.bins, bin_frags)
    ]).map_batches(
        _compact_bin,
        fn_kwargs=dict(root=table.root, job_id=job_id,
                       target_bytes=cfg.target_fragment_bytes, failpoint=failpoint),
        batch_format="pyarrow",
        batch_size=1,
    ).materialize()  # drive all bin tasks; results land in the journal

    # Build the commit from the journal (works for fresh AND resumed runs)
    add, remove_ids, rows = [], set(), 0
    for rec in lineage.collect(table.root, job_id, bin_ids, "compaction"):
        add.extend(rec.out_metas())
        remove_ids.update(rec.frags_in)
        rows += rec.rows
    elapsed = time.time() - t0
    new_table = table.commit(
        operation="compact",
        add=add,
        remove_ids=remove_ids,
        summary={
            "job_id": job_id,
            "bins": len(plan.bins),
            "fragments_in": len(remove_ids),
            "fragments_out": len(add),
            "rows": rows,
            "seconds": round(elapsed, 3),
        },
    )
    report = {
        "job_id": job_id,
        "bins": len(plan.bins),
        "fragments_in": len(remove_ids),
        "fragments_out": len(add),
        "rows": rows,
        "bytes": sum(m.bytes for m in add),
        "seconds": round(elapsed, 3),
        "rows_per_sec": round(rows / elapsed, 1) if elapsed > 0 else None,
        "estimate": plan.estimate,
    }
    return new_table, report
