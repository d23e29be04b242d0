"""Snapshot expiry + reachability GC + orphan fsck — the real version of the
reference's retention *analyzer* (`ops/maintenance_system.py:169-228`, which
only prints recommendations) and file-registration repair
(`ops/fix_iceberg_registration.py:26-74`, S7).

Semantics:
- **expire_snapshots** drops main-chain manifest versions outside the
  retention policy (keep-last-k AND max-age, always keeping the current
  version and tagged ones); expired manifest JSON files are deleted.  The
  policy works on one listing of the chain, so a commit that lands during
  expiry is never expired.  Branch chains are never expired.
- **garbage_collect** deletes data files unreachable from any RETAINED
  manifest (reachability over the surviving manifest set of main and every
  branch chain).  Readers pinned to a retained version are never broken —
  that is the snapshot-isolation contract; readers pinned to an EXPIRED
  version lose their files by design (same as Iceberg's expire_snapshots).
  Unreferenced files younger than a grace period survive, so in-flight jobs'
  staged fragments do too.
- **Committed payload**: every job stamps its id on its commit
  (``summary["job_id"]``), and once that commit is durable the job's staged
  payload under ``journal/<job_id>/`` is garbage.  The job drops it right
  after its commit (``lineage.drop_payload``); GC drops it for every stamped
  job, which covers a crash between the two.  ``expire_and_gc`` reads the
  ids before expiry deletes the manifests that carry them.
- **fsck** reports ``orphans`` (files in data/ referenced by NO manifest,
  e.g. a crashed write before its commit), ``missing`` fragments and
  ``stale_payload`` (the payload of committed jobs).
- **cleanup_journal** removes whole job directories by age: the meta and
  records of committed jobs, and everything an abandoned job left.

All metadata/file-listing work is driver-side: one reachability pass over
the manifest JSON per call (expiry reads a manifest only for the max-age
test), O(fragments) over data/.
"""

from __future__ import annotations

import os
import time

from ..state import lineage
from ..state import manifest as mf


def scan_chains(root: str, expired=()) -> tuple[set, set]:
    """One read of every manifest on main and on each branch chain.  Returns
    ``(live, jobs)``: the fragment ids of every manifest except the main
    versions in ``expired``, and the job ids stamped on any manifest.
    Branch-only fragments stay live until their branch is deleted or
    published."""
    from ..state import branches as br

    live, jobs = set(), set()
    for branch in (None, *br.list_branches(root)):
        for v in mf.list_manifest_versions(root, branch=branch):
            m = mf.load_manifest(root, v, branch=branch)
            if m.summary.get("job_id"):
                jobs.add(m.summary["job_id"])
            if branch is not None or v not in expired:
                live |= m.fragment_ids()
    return live, jobs


def _retention(root: str, keep_last: int, max_age_days: float | None,
               now: float | None) -> tuple[list, list]:
    """``(retained, expired)`` main versions, both from ONE listing, so a
    version a concurrent writer commits after it is never expired.  A
    manifest is read only for the max-age test."""
    now = time.time() if now is None else now
    versions = mf.list_manifest_versions(root)
    keep = set(versions[-max(1, keep_last):])
    keep.add(mf.read_latest_version(root))
    keep |= mf.tagged_versions(root)  # named refs pin their snapshots
    if max_age_days is not None:
        for v in versions:
            if v in keep:
                continue
            m = mf.load_manifest(root, v)
            if (now - m.created_at) / 86400.0 <= max_age_days:
                keep.add(v)
    return sorted(keep), [v for v in versions if v not in keep]


def _expire(root: str, retained: list, expired: list) -> dict:
    for v in expired:
        os.remove(mf.manifest_path(root, v))
    return {"expired": expired, "retained": retained}


def expire_snapshots(root: str, *, keep_last: int, max_age_days: float | None = None,
                     now: float | None = None) -> dict:
    """Drop manifests beyond the retention policy; returns a report."""
    return _expire(root, *_retention(root, keep_last, max_age_days, now))


def fsck(root: str) -> dict:
    """Diff data/ listing vs manifest-referenced files (reference S7), and
    list the journal payload committed jobs left behind."""
    live, jobs = scan_chains(root)
    data_dir = os.path.join(root, mf.DATA_DIR)
    on_disk, orphans = [], []
    for name in os.listdir(data_dir):
        if name.endswith(".bloom"):
            # key-bloom sidecar: owned by its fragment, orphan iff it is
            if name.rsplit(".", 1)[0] not in live:
                orphans.append(name)
            continue
        if not name.endswith(".parquet"):
            orphans.append(name)  # tmp leftovers etc.
            continue
        on_disk.append(name)
        if name.rsplit(".", 1)[0] not in live:
            orphans.append(name)
    missing = [
        fid for fid in live
        if not os.path.exists(os.path.join(data_dir, fid + ".parquet"))
    ]
    stale = [f"{job}/{name}" for job in sorted(jobs)
             for name in lineage.payload(root, job)]
    return {"files_on_disk": len(on_disk), "live_fragments": len(live),
            "orphans": sorted(set(orphans)), "missing": missing,
            "stale_payload": stale}


def garbage_collect(root: str, *, delete_orphans: bool = True,
                    orphan_grace_seconds: float = 3600.0,
                    now: float | None = None) -> dict:
    """Delete data files unreachable from any retained manifest, and the
    journal payload of every committed job."""
    return _collect(root, *scan_chains(root), delete_orphans=delete_orphans,
                    grace=orphan_grace_seconds, now=now)


def _collect(root: str, live: set, jobs: set, *, delete_orphans: bool,
             grace: float, now: float | None) -> dict:
    now = time.time() if now is None else now
    data_dir = os.path.join(root, mf.DATA_DIR)
    deleted, kept_grace = [], []
    for name in os.listdir(data_dir):
        path = os.path.join(data_dir, name)
        # .parquet and .bloom sidecars share the fragment's lifetime
        frag_id = (name.rsplit(".", 1)[0]
                   if name.endswith((".parquet", ".bloom")) else name)
        if frag_id in live:
            continue
        age = now - os.path.getmtime(path)
        if not delete_orphans or age < grace:
            # recent unreferenced file: possibly a staged write of an
            # in-flight job (reference S6 staged-load area) — leave it
            kept_grace.append(name)
            continue
        os.remove(path)
        deleted.append(name)
    dropped = [job for job in sorted(jobs) if lineage.drop_payload(root, job)]
    return {"deleted": sorted(deleted), "kept_in_grace": sorted(kept_grace),
            "live_fragments": len(live), "payload_dropped": dropped}


def cleanup_journal(root: str, *, max_age_days: float = 7.0,
                    now: float | None = None) -> dict:
    """Remove lineage-journal directories older than the retention window.
    A job's journal is only a resume aid.  A committed job's payload is gone
    already (dropped at its commit, or by GC), so this removes its meta and
    records; an abandoned job, never committed, loses everything it staged."""
    import shutil

    now = time.time() if now is None else now
    jroot = os.path.join(root, mf.JOURNAL_DIR)
    removed, kept = [], []
    if not os.path.isdir(jroot):
        return {"removed": [], "kept": []}
    for name in sorted(os.listdir(jroot)):
        path = os.path.join(jroot, name)
        if not os.path.isdir(path):
            continue
        age_days = (now - os.path.getmtime(path)) / 86400.0
        if age_days > max_age_days:
            shutil.rmtree(path, ignore_errors=True)
            removed.append(name)
        else:
            kept.append(name)
    return {"removed": removed, "kept": kept}


def expire_and_gc(root: str, *, keep_last: int, max_age_days: float | None = None,
                  orphan_grace_seconds: float = 3600.0, now: float | None = None) -> dict:
    retained, expired = _retention(root, keep_last, max_age_days, now)
    # one pass reads the job ids before expiry deletes the manifests
    live, jobs = scan_chains(root, set(expired))
    exp = _expire(root, retained, expired)
    gc = _collect(root, live, jobs, delete_orphans=True,
                  grace=orphan_grace_seconds, now=now)
    return {"expiry": exp, "gc": gc}
