"""Incremental table replication: keep a follower table converged with a
source table by consuming snapshot diffs (CDC apply) — the downstream half
of the time-travel/CDC surface (`table.diff` / `read_incremental`).

Reference parity: the reference ships loads to a single Iceberg warehouse
and has no replication; this is the standard lakehouse DR / locality
pattern (Iceberg's replication via snapshot shipping) built on this repo's
manifest chain.

Semantics per sync step (src advanced v0 -> v1):
- **append-only range** (``diff()['append_only']``): ship ONLY the added
  fragments and commit one follower append — O(new data).
- **range containing a rewrite** (merge/compact/delete/cluster/rollback):
  mirror the v1 snapshot: ship fragments the follower lacks, then one
  commit whose remove-set drops everything not in v1.  Fragment ids are
  content-addressed, so the follower converges to the IDENTICAL fragment
  set — scan-equivalence holds byte-for-byte.

Scale: fragment files ship via a Ray Data pipeline (one copy task per
batch of fragments, parallel across the cluster); metadata work is
O(changed fragments) on the driver.  The follower records the last applied
source version in `_replication.json` (and in each commit's summary), so
sync is idempotent and resumable — a crashed sync re-ships only missing
files (copies are to tmp + atomic rename).
"""

from __future__ import annotations

import json
import os
import uuid

from ..state import manifest as mf
from ..table import LakeTable

_STATE_FILE = "_replication.json"


def _read_state(dst_root: str) -> dict:
    try:
        with open(os.path.join(dst_root, _STATE_FILE)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def _write_state(dst_root: str, state: dict) -> None:
    mf.write_atomic(os.path.join(dst_root, _STATE_FILE), json.dumps(state))


def _ship_fragments(src_root: str, dst_root: str, frags: list) -> int:
    """Copy fragment parquet files (+ bloom sidecars) in parallel Ray tasks.
    Idempotent: existing destination files are skipped; copies go to a tmp
    name then atomically rename, so a crashed sync never leaves a torn
    file."""
    import ray.data

    items = []
    for f in frags:
        items.append({"rel": f.path})
        bloom = f.path.rsplit(".", 1)[0] + ".bloom"
        if os.path.exists(os.path.join(src_root, bloom)):
            items.append({"rel": bloom})
    if not items:
        return 0

    def copy_batch(batch):
        import shutil

        for rel in batch["rel"]:
            dst = os.path.join(dst_root, rel)
            if os.path.exists(dst):
                continue
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            tmp = dst + f".tmp.{uuid.uuid4().hex[:8]}"
            shutil.copyfile(os.path.join(src_root, rel), tmp)
            os.replace(tmp, dst)
        return batch

    ray.data.from_items(items).map_batches(
        copy_batch, batch_size=16, batch_format="numpy").materialize()
    return len(items)


def replicate(src_root: str, dst_root: str, *, branch: str | None = None) -> dict:
    """One sync step: advance the follower at ``dst_root`` to the source's
    current snapshot.  Creates the follower on first call.  With ``branch``,
    mirrors that source BRANCH onto the follower instead (see
    replicate_branch) — the WAP-across-sites composition: stage on the
    source, replicate the branch, audit and publish on the follower."""
    if branch is not None:
        return replicate_branch(src_root, dst_root, branch)
    src = LakeTable.load(src_root)
    state = _read_state(dst_root) if os.path.isdir(dst_root) else {}

    if not os.path.isdir(os.path.join(dst_root, mf.MANIFEST_DIR)):
        dst = LakeTable.create(dst_root, src.schema, src.config)
    else:
        dst = LakeTable.load(dst_root)

    last = state.get("last_src_version")
    if last == src.version:
        return {"applied": False, "src_version": src.version,
                "dst_version": dst.version, "reason": "up to date"}

    dst_ids = dst.manifest.fragment_ids()
    src_ids = src.manifest.fragment_ids()
    to_ship = [f for f in src.fragments if f.fragment_id not in dst_ids]
    shipped = _ship_fragments(src_root, dst_root, to_ship)

    append_only = False
    if last is not None:
        try:
            append_only = src.diff(last, src.version)["append_only"]
        except FileNotFoundError:
            append_only = False  # source expired the old manifest: mirror

    remove_ids = set() if append_only else dst_ids - src_ids
    # schema/config ride along from the SOURCE manifest so schema evolution
    # (new columns + the schema_evolved config flag, stages/evolution.py)
    # propagates: a follower committing with its own stale schema would ship
    # evolved fragments whose new columns every follower scan then drops.
    # Append-only syncs carry it too — an append after an evolution is still
    # append_only in diff() terms, and fragments are content-addressed so
    # adopting the source schema is always scan-consistent.
    dst = dst.commit(
        operation="replicate",
        add=to_ship,
        remove_ids=remove_ids,
        schema=src.manifest.schema,
        config=src.manifest.config,
        summary={"replicated_from_version": src.version,
                 "src_root": src_root,
                 "mode": "append" if append_only else "mirror",
                 "shipped_fragments": len(to_ship),
                 "removed_fragments": len(remove_ids)},
    )
    state.update({"last_src_version": src.version, "src_root": src_root})
    _write_state(dst_root, state)
    return {"applied": True, "mode": "append" if append_only else "mirror",
            "src_version": src.version, "dst_version": dst.version,
            "shipped_fragments": len(to_ship), "shipped_files": shipped,
            "removed_fragments": len(remove_ids)}


def replicate_branch(src_root: str, dst_root: str, name: str) -> dict:
    """Mirror one source branch onto the follower so that publishing it on
    the FOLLOWER applies the same net change the source's publish applies.

    The follower branch is written as a two-manifest subchain: v0 = a copy
    of the source branch's FORK manifest (fork_uuid and fork point carried
    over), v1 = the source branch HEAD collapsed into one commit.  Because
    publish_branch applies head-vs-fork deltas, mirroring BOTH endpoints —
    not just the head fragment set — keeps the delta identical even when
    main advanced after the fork on either side; main appends replicated
    meanwhile survive the follower's publish exactly as they survive the
    source's.  Every data file the chain references ships (idempotent
    tmp+rename, existing files skipped); sync state per branch is keyed by
    (fork_uuid, head version) so re-created source branches re-mirror."""
    from ..state import branches as br

    src_head = mf.load_manifest(src_root, branch=name)
    src_fork = mf.load_manifest(src_root, 0, branch=name)
    if not os.path.isdir(os.path.join(dst_root, mf.MANIFEST_DIR)):
        replicate(src_root, dst_root)  # bootstrap the follower's main first
    state = _read_state(dst_root)
    bstate = state.get("branches", {}).get(name)
    key = {"fork_uuid": src_fork.summary.get("fork_uuid"),
           "head": src_head.version}
    if bstate == key and name in br.list_branches(dst_root):
        return {"applied": False, "branch": name, "reason": "up to date",
                **key}

    # ship every data file the branch chain references that the follower
    # lacks (fork fragments too: the chain pins them against follower GC)
    frags = {f.fragment_id: f
             for m in (src_fork, src_head) for f in m.fragments}
    shipped = _ship_fragments(src_root, dst_root, list(frags.values()))

    chain = [src_fork]
    if src_head.version > 0:
        chain.append(mf.Manifest(
            version=1,
            parent=0,
            created_at=src_head.created_at,
            operation="replicate_branch",
            schema=src_head.schema,
            config=src_head.config,
            fragments=list(src_head.fragments),
            summary={"branch": name,
                     "replicated_from_branch_head": src_head.version,
                     "src_root": src_root},
        ))
    br.write_branch_chain(dst_root, name, chain)
    state.setdefault("branches", {})[name] = key
    _write_state(dst_root, state)
    return {"applied": True, "branch": name,
            "shipped_files": shipped,
            "src_branch_head": src_head.version,
            "dst_branch_head": chain[-1].version, **key}
