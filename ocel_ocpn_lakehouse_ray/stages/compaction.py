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

Sizes are Arrow bytes (``FragmentMeta.arrow_bytes``): ``target_fragment_bytes``
is the unit the writer splits an output on (sources/fragments.py), so the
planner measures in it too.  A bin is then at most one target in the writer's
unit and becomes exactly one output, and a full output is never a candidate
again; in parquet file bytes, an output whose columns encode well stays under
the target and was re-read at every later pass.

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
from .clustering import STAMP
from .health import estimate_compaction


@dataclass
class CompactionPlan:
    bins: list            # list[list[FragmentMeta]] — each bin → one rewrite task
    untouched: list       # fragments left as-is
    estimate: dict = field(default_factory=dict)


def first_fit(fragments, target_bytes: int) -> list[list[FragmentMeta]]:
    """Greedy first-fit-decreasing bin packing in Arrow bytes, each bin
    capped at ``target_bytes`` (a fragment over the cap gets a bin of its
    own).  Shared by compaction and the MERGE rewrite (stages/merge_cow.py)."""
    bins: list[list[FragmentMeta]] = []
    room: list[int] = []
    for f in sorted(fragments, key=lambda f: f.arrow_bytes, reverse=True):
        for i in range(len(bins)):
            if room[i] >= f.arrow_bytes:
                bins[i].append(f)
                room[i] -= f.arrow_bytes
                break
        else:
            bins.append([f])
            room.append(target_bytes - f.arrow_bytes)
    return bins


def plan_compaction(fragments, *, target_bytes: int) -> CompactionPlan:
    """Greedy first-fit-decreasing bin packing (A14 made real), in Arrow bytes.

    Candidates are all fragments below the target size but clustered runs
    (a ``cluster_range`` stamp, stages/clustering.py): binning one with
    unclustered files would drop its placement, and a range's delta run is
    small by design.  Bins are capped at ``target_bytes``.  A bin holding a
    single fragment stays untouched: rewriting one file into one file cannot
    lower the file count.
    """
    def candidate(f) -> bool:
        return f.arrow_bytes < target_bytes and STAMP not in f.stats

    untouched = [f for f in fragments if not candidate(f)]
    bins = first_fit(filter(candidate, fragments), target_bytes)
    untouched += [b[0] for b in bins if len(b) == 1]
    return CompactionPlan(
        bins=[b for b in bins if len(b) > 1],
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
    plan = plan_compaction(table.fragments, target_bytes=cfg.target_fragment_bytes)
    if not plan.bins:
        return table, {"job_id": job_id, "bins": 0, "rows": 0, "seconds": 0.0,
                       "skipped": "nothing to compact", "estimate": plan.estimate}
    bin_frags = [[f.fragment_id for f in b] for b in plan.bins]
    lineage.open_job(table.root, job_id, lineage.fingerprint(bin_frags))
    phases = {"plan": round(time.time() - t0, 3)}

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
    phases["rewrite"] = round(time.time() - t0 - sum(phases.values()), 3)

    # Build the commit from the journal (works for fresh AND resumed runs)
    add, remove_ids, rows = [], set(), 0
    for rec in lineage.collect(table.root, job_id, bin_ids, "compaction"):
        add.extend(rec.out_metas())
        remove_ids.update(rec.frags_in)
        rows += rec.rows
    summary = {"job_id": job_id, "bins": len(plan.bins),
               "fragments_in": len(remove_ids), "fragments_out": len(add),
               "rows": rows}
    new_table = table.commit(
        operation="compact", add=add, remove_ids=remove_ids,
        summary={**summary, "seconds": round(time.time() - t0, 3)})
    phases["commit"] = round(time.time() - t0 - sum(phases.values()), 3)
    elapsed = time.time() - t0
    report = {
        **summary,
        "bytes_read": sum(f.bytes for b in plan.bins for f in b),
        "bytes_written": sum(m.bytes for m in add),
        "seconds": round(elapsed, 3),
        "rows_per_sec": round(rows / elapsed, 1) if elapsed > 0 else None,
        "phase_seconds": phases,
        "estimate": plan.estimate,
    }
    return new_table, report
