"""Per-partition lineage journal: the one resume protocol every maintenance
job (compaction, clustering, MERGE, DELETE/UPDATE, streaming, export) runs.

The reference's only cross-run state is a timestamps file
(`ops/view_refresh_scheduler.py:184-201` refresh_stats.json) and a crude
staged-load write-ahead area (`ops/commit_staged_files.py:54-80`).  The north
rule requires real per-partition lineage — fragments-in → fragments-out, row
counts, bytes — so an interrupted job resumes without recomputing committed
partitions.  The protocol, stated once for every job:

1. **Open** (``open_job``): the first run stores the job's plan state and a
   fingerprint of the parameters and plan that decide its partitions in
   ``journal/<job_id>/meta.json``; a resume under the same job_id with a
   different fingerprint raises instead of mixing two plans in one commit.
2. **Load-or-run** (``load_or_run``): each partition task returns its
   journaled record if one exists; otherwise it runs the job's kernel
   (``run_partition``).
3. **Naming**: the kernel writes its fragments through the ``write``
   callback, which names them content-addressed by ``(job_id,
   partition_id, seq)`` (functions/hashing.content_address; ``seq`` runs on
   across the kernel's calls) — a replayed task re-creates the identical
   file names, so journal + naming give exactly-once output effects per
   partition.
4. **Record**: after the outputs are durable the task writes
   ``journal/<job_id>/part-<partition_id>.json`` via ``write_atomic``
   (no cross-worker append races; safe on any POSIX fs and
   shardable across nodes on shared storage).
5. **Collect** (``collect``): the driver builds the commit from the journal,
   raising if any planned partition has no record.
6. **Drop payload** (``drop_payload``): once the job's manifest commit is
   durable, everything else a job staged under its journal directory (MERGE's
   staged source, cow's sidecars, a crashed shuffle's partials) is garbage;
   only ``meta.json`` and the records stay.  The job calls it right after its
   commit, and GC calls it for every job stamped on a manifest, which covers
   a crash between the two.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field, asdict

from .manifest import JOURNAL_DIR, FragmentMeta, write_atomic


@dataclass
class PartitionRecord:
    job_id: str
    partition_id: str
    frags_in: list          # fragment ids (or source shard labels) consumed
    frags_out: list         # list[FragmentMeta dicts] produced
    rows: int
    bytes: int
    extra: dict = field(default_factory=dict)

    def out_metas(self) -> list:
        return [FragmentMeta.from_dict(d) for d in self.frags_out]


def journal_dir(root: str, job_id: str) -> str:
    return os.path.join(root, JOURNAL_DIR, job_id)


def record_path(root: str, job_id: str, partition_id: str) -> str:
    return os.path.join(journal_dir(root, job_id), f"part-{partition_id}.json")


def default_job_id(kind: str, table, *suffix: str) -> str:
    """``<kind>-[b-<branch>-]v<version>[-<suffix>...]``: the job id a run
    gets when the caller names none."""
    chain = f"b-{table.branch}-" if getattr(table, "branch", None) else ""
    return "-".join([f"{kind}-{chain}v{table.version}", *suffix])


def fingerprint(*objs) -> str:
    """Stable short hash of the parameters/plan that decide a job's
    partitions (checked by ``open_job``; DELETE/UPDATE also fold it into
    their default job id)."""
    blob = json.dumps(objs, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:10]


def open_job(root: str, job_id: str, fp: str, make_meta=dict) -> dict:
    """Job-open step.  The first run stores ``{"fingerprint": fp,
    **make_meta()}`` as the job meta; a resume returns the stored meta and
    raises ValueError when its fingerprint differs from ``fp`` (the journal
    was written under other parameters or another plan)."""
    meta = load_job_meta(root, job_id)
    if meta is None:
        meta = {"fingerprint": fp, **make_meta()}
        write_job_meta(root, job_id, meta)
    elif meta.get("fingerprint") != fp:
        raise ValueError(
            f"job {job_id!r} was previously run with different parameters "
            f"or plan (journal fingerprint {meta.get('fingerprint')} != {fp}); "
            f"use a fresh job_id or clear the journal")
    return meta


def _write_record(root: str, rec: PartitionRecord) -> None:
    os.makedirs(journal_dir(root, rec.job_id), exist_ok=True)
    write_atomic(record_path(root, rec.job_id, rec.partition_id),
                 json.dumps(asdict(rec)))


def _load_record(root: str, job_id: str, partition_id: str):
    """Single-partition journal lookup (one stat + one small read) — the
    per-task idempotency check; never scans the whole journal directory."""
    p = record_path(root, job_id, partition_id)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return PartitionRecord(**json.load(f))


def run_partition(root: str, job_id: str, partition_id: str, kernel, *,
                  frags_in: list) -> PartitionRecord:
    """Run ``kernel(write)`` for one partition and journal its record.

    ``write(tbl, target_bytes=...)`` writes ``tbl`` as fragments named
    ``(job_id, partition_id, seq)`` and returns their metas; ``seq`` runs on
    across calls, so a kernel may call it more than once.  The kernel
    returns ``(frags_out, rows, extra)``; the record's bytes are its
    outputs'."""
    from ..sources.fragments import write_table_as_fragments

    seq = 0

    def write(tbl, *, target_bytes):
        nonlocal seq
        metas = write_table_as_fragments(
            root, tbl, target_bytes=target_bytes,
            name_parts=(job_id, partition_id), first_seq=seq)
        seq += len(metas)
        return metas

    metas, rows, extra = kernel(write)
    rec = PartitionRecord(
        job_id=job_id, partition_id=partition_id, frags_in=frags_in,
        frags_out=[m.to_dict() for m in metas], rows=rows,
        bytes=sum(m.bytes for m in metas), extra=extra)
    _write_record(root, rec)
    return rec


def load_or_run(root: str, job_id: str, partition_id: str, kernel, *,
                frags_in: list) -> PartitionRecord:
    """The partition's journaled record, or ``run_partition``'s when none
    exists (a retried or resumed task never redoes journaled work)."""
    rec = _load_record(root, job_id, partition_id)
    if rec is not None:
        return rec
    return run_partition(root, job_id, partition_id, kernel,
                         frags_in=frags_in)


def load_records(root: str, job_id: str) -> dict[str, PartitionRecord]:
    d = journal_dir(root, job_id)
    out: dict[str, PartitionRecord] = {}
    if not os.path.isdir(d):
        return out
    for name in sorted(os.listdir(d)):
        if not (name.startswith("part-") and name.endswith(".json")):
            continue
        with open(os.path.join(d, name)) as f:
            rec = PartitionRecord(**json.load(f))
        out[rec.partition_id] = rec
    return out


def collect(root: str, job_id: str, partition_ids: list, what: str) -> list:
    """The records of ``partition_ids``, in order; raises RuntimeError
    naming the first missing partitions when any has no record."""
    records = load_records(root, job_id)
    missing = [p for p in partition_ids if p not in records]
    if missing:
        raise RuntimeError(
            f"{what} incomplete: {len(missing)} planned partitions not "
            f"journaled (first: {missing[:5]})")
    return [records[p] for p in partition_ids]


def write_job_meta(root: str, job_id: str, meta: dict) -> None:
    """Persist job-level plan state (e.g. sampled range boundaries) so a resumed
    run reuses the SAME partitioning instead of re-sampling a different one."""
    d = journal_dir(root, job_id)
    os.makedirs(d, exist_ok=True)
    write_atomic(os.path.join(d, "meta.json"), json.dumps(meta))


def payload(root: str, job_id: str) -> list[str]:
    """Names under ``journal/<job_id>/`` other than ``meta.json`` and the
    ``part-*.json`` records: the job's staged payload."""
    d = journal_dir(root, job_id)
    if not os.path.isdir(d):
        return []
    return sorted(n for n in os.listdir(d) if n != "meta.json"
                  and not (n.startswith("part-") and n.endswith(".json")))


def drop_payload(root: str, job_id: str) -> list[str]:
    """Delete a committed job's payload (``payload``); the meta and records
    stay.  Returns the names removed."""
    names = payload(root, job_id)
    for name in names:
        p = os.path.join(journal_dir(root, job_id), name)
        if os.path.isdir(p):
            shutil.rmtree(p, ignore_errors=True)
        else:
            with contextlib.suppress(FileNotFoundError):
                os.remove(p)
    return names


def load_job_meta(root: str, job_id: str) -> dict | None:
    p = os.path.join(journal_dir(root, job_id), "meta.json")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)
