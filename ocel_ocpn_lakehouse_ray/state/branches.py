"""Branch refs: Iceberg-style writable snapshot branches over the manifest
chain, enabling the write-audit-publish (WAP) pattern.

Reference parity: the reference's tables sit on Iceberg
(`ingest/production_bootstrap.py`), whose ref system (branches + tags) is
the public surface this mirrors; the reference itself only ever writes to
main.  Tags (read-only refs) live in `state/manifest.py`; this module adds
the writable kind.

Design — a branch is one more manifest chain.  `state/manifest.py` owns
every chain (layout, loader, head swap and the one commit protocol; pass
``branch=name``); this module holds only the ref operations: name check,
fork, mirror, delete and publish.  A branch chain lives in
``_branches/<name>/`` and starts at v0, a copy of the main manifest it
forked from.  Keeping branch manifests out of main's ``manifests/`` matters:
a commit's roll-forward advances the head to the highest manifest in ITS
chain's directory, so a branch manifest numbered past main's head can never
be published on main by accident.  Data files are shared (`data/` is
content-addressed), so a branch append writes fragments exactly like a main
append — only the chain differs; GC reachability includes branch chains
(`stages/gc.scan_chains`).

Publishing applies the branch's NET change (relative to its fork point)
onto CURRENT main — appends that landed on main meanwhile are preserved,
and `commit_version`'s removed-fragments-still-live validation raises
`CommitConflict` if main rewrote what the branch also rewrote (the Iceberg
cherry-pick validation).  All metadata ops are O(fragments), driver-side.
"""

from __future__ import annotations

import os
import re
import shutil
import time
import uuid

from . import manifest as mf

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid branch name {name!r}")
    return name


def list_branches(root: str) -> list[str]:
    d = os.path.join(root, mf.BRANCHES_DIR)
    if not os.path.isdir(d):
        return []
    return sorted(n for n in os.listdir(d)
                  if os.path.isdir(os.path.join(d, n)))


def create_branch(root: str, name: str, *, from_version: int | None = None,
                  if_exists: str = "error") -> mf.Manifest:
    """Fork a branch at a main-chain snapshot (default: current latest).
    The fork point is branch manifest v0 — a copy of the main manifest with
    the fork recorded in its summary."""
    src = mf.load_manifest(root, from_version)
    bdir = mf._chain(root, name).dir
    if os.path.isdir(bdir):
        if if_exists == "error":
            raise FileExistsError(f"branch {name!r} already exists")
        return mf.load_manifest(root, branch=name)
    os.makedirs(bdir)
    fork = mf.Manifest(
        version=0,
        parent=None,
        created_at=time.time(),
        operation="branch_fork",
        schema=src.schema,
        config=src.config,
        fragments=list(src.fragments),
        # fork_uuid disambiguates re-created branches under a reused name:
        # publish_branch's idempotency scan matches on it, so "fork, commit,
        # publish" cycles that repeat (same name, same head version) are
        # never mistaken for a crash-retry of an earlier publish.
        summary={"fork_of_main_version": src.version, "branch": name,
                 "fork_uuid": uuid.uuid4().hex},
    )
    mf.publish_manifest(root, fork, branch=name)
    return fork


def write_branch_chain(root: str, name: str,
                       manifests: list[mf.Manifest]) -> None:
    """Create (or replace) a branch subchain with the given manifests —
    the branch-replication primitive (pipelines/replicate.py): a follower
    mirrors a source branch as [fork copy, collapsed head] so its
    publish_branch computes the IDENTICAL net change as the source's.
    Versions must be contiguous from 0; the head pointer lands on the last."""
    if not manifests or [m.version for m in manifests] != list(
            range(len(manifests))):
        raise ValueError("branch chain must be contiguous versions from 0")
    bdir = mf._chain(root, name).dir
    if os.path.isdir(bdir):
        shutil.rmtree(bdir)
    os.makedirs(bdir)
    for m in manifests:
        mf.publish_manifest(root, m, branch=name)


def delete_branch(root: str, name: str) -> None:
    """Drop the branch chain.  Data files referenced only by the branch
    become unreachable and are collected by the normal GC sweep."""
    bdir = mf._chain(root, name).dir
    if not os.path.isdir(bdir):
        raise KeyError(f"unknown branch {name!r}")
    shutil.rmtree(bdir)


def publish_branch(root: str, name: str, *, delete: bool = True) -> mf.Manifest:
    """Apply the branch's net change (head vs fork point) onto current main
    as ONE commit.  Main appends since the fork survive; a main rewrite of
    fragments the branch also removed raises CommitConflict (stale branch —
    re-fork and replay).  Returns the new main manifest."""
    head = mf.load_manifest(root, branch=name)
    fork = mf.load_manifest(root, 0, branch=name)
    head_ids = head.fragment_ids()
    fork_ids = fork.fragment_ids()
    added = [f for f in head.fragments if f.fragment_id not in fork_ids]
    removed = fork_ids - head_ids
    current = mf.load_manifest(root)
    cur_ids = current.fragment_ids()
    # crash-resume idempotency: a publish that committed but crashed before
    # deleting the branch must not raise (or double-apply) on retry.  The
    # publish commit itself is the discriminator — fragment-set heuristics
    # can't tell "already applied" from "main rewrote the same fragments".
    # Match on the fork's uuid (stamped at create_branch) so a branch
    # RE-CREATED under a reused name with the same head version is never
    # treated as already-applied; for pre-uuid forks fall back to comparing
    # the fork point, which always advances after a publish.
    fork_uuid = fork.summary.get("fork_uuid")
    fork_of = fork.summary.get("fork_of_main_version")
    for v in reversed(mf.list_manifest_versions(root)):
        m = mf.load_manifest(root, v)
        if (m.operation == "publish_branch"
                and m.summary.get("branch") == name
                and m.summary.get("branch_head") == head.version
                and m.summary.get("fork_of_main_version") == fork_of
                and (fork_uuid is None
                     or m.summary.get("fork_uuid") == fork_uuid)):
            if delete:
                delete_branch(root, name)
            return current
    # commit_version validates removals only when REBASING; a publish whose
    # base is already latest would silently no-op a removal main already
    # rewrote — check liveness explicitly (raced commits re-validate inside
    # commit_version's rebase path)
    gone = removed - cur_ids
    if gone:
        raise mf.CommitConflict(
            f"branch {name}: fragments {sorted(gone)[:3]}... were rewritten "
            f"on main since the fork — re-fork and replay")
    new = mf.commit_version(
        root,
        base_version=current.version,
        operation="publish_branch",
        add=added,
        remove_ids=removed,
        schema=head.schema,
        config=head.config,
        summary={"branch": name,
                 "fork_of_main_version": fork.summary.get("fork_of_main_version"),
                 "fork_uuid": fork.summary.get("fork_uuid"),
                 "branch_head": head.version,
                 "added_fragments": len(added),
                 "removed_fragments": len(removed)},
    )
    if delete:
        delete_branch(root, name)
    return new
