"""Micro-batch streaming ingestion with exactly-once commits — the
implemented version of the reference's ingest surface (its published
"1,000 events/s current / 10,000 max" claim, `docs/PRODUCTION_SYSTEM_
SUMMARY.md:162`, runs through a staged-load area + a separate commit step,
`ops/commit_staged_files.py:47-88`).

Shape: each micro-batch is one partition ``micro-NNNNNN`` of the journal
protocol (state/lineage.py), journaled BEFORE any manifest change, and
every ``commit_every``
micro-batches the staged fragments publish in ONE manifest commit — so a
1000-batch stream costs ~1000/commit_every manifest versions instead of
1000 (manifest churn is what kills snapshot retention at ingest rates).

Exactly-once on resume: re-running the same ``job_id`` over the same
deterministic stream (i) skips re-encoding journaled micro-batches — their
fragments are already durable — and (ii) the flush adds only fragments not
yet live in the current manifest, so a crash BETWEEN journal and commit
re-publishes exactly the missing ones and a crash AFTER a commit re-adds
nothing.  Concurrent-writer safety is the normal optimistic commit
(state/manifest.py CommitConflict).
"""

from __future__ import annotations

import time

from ..state import lineage


def stream_append(table, batches, *, job_id: str,
                  commit_every: int = 10,
                  failpoint: int | None = None):
    """Append an ordered iterable of Arrow tables as micro-batches; returns
    (new_table, report).  ``batches`` must replay deterministically under
    the same job_id for resume (the journal, not the stream, is the source
    of truth for already-ingested content)."""
    root = table.root
    t0 = time.time()
    t = table
    staged: list = []
    rows = commits = ran = n_batches = 0

    def flush(t, staged):
        nonlocal commits
        live = t.manifest.fragment_ids()
        add = [m for m in staged if m.fragment_id not in live]
        if not add:
            return t
        commits += 1
        return t.commit(
            operation="append", add=add, remove_ids=set(),
            summary={"job_id": job_id, "streamed_fragments": len(add),
                     "streamed_rows": sum(m.rows for m in add)})

    for i, b in enumerate(batches):
        pid = f"micro-{i:06d}"

        def kernel(write):
            nonlocal ran
            ran += 1
            if failpoint is not None and i == failpoint:
                raise RuntimeError(f"failpoint: simulated crash at {pid}")
            return (write(b, target_bytes=t.config.target_fragment_bytes),
                    b.num_rows, {})

        metas = lineage.load_or_run(root, job_id, pid, kernel,
                                    frags_in=[pid]).out_metas()
        staged.extend(metas)
        rows += b.num_rows
        n_batches += 1
        if (i + 1) % commit_every == 0:
            t = flush(t, staged)
            staged = []
    t = flush(t, staged)
    secs = time.time() - t0
    return t, {
        "job_id": job_id,
        "micro_batches": n_batches,
        "resumed_skips": n_batches - ran,
        "rows": rows,
        "commits": commits,
        "seconds": round(secs, 3),
        "rows_per_sec": round(rows / secs, 1) if secs > 0 else None,
    }
