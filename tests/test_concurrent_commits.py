"""Optimistic-concurrency stress: many writers committing appends at once
must all succeed via rebase (no lost updates), and a maintenance commit
racing a conflicting removal must abort with CommitConflict — on main and
on a branch chain alike (one commit path serves both)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from ocel_ocpn_lakehouse_ray.config import TableConfig
from ocel_ocpn_lakehouse_ray.sources.generator import gen_batch
from ocel_ocpn_lakehouse_ray.state.manifest import CommitConflict
from ocel_ocpn_lakehouse_ray.table import IMAGE_SCHEMA, LakeTable

SEED = 42


@pytest.mark.parametrize("branch", [None, "audit"])
def test_concurrent_appends_all_land(tmp_path, branch):
    root = str(tmp_path / "t")
    t0 = LakeTable.create(root, IMAGE_SCHEMA, TableConfig(target_fragment_bytes=1 << 20))
    if branch:
        t0.create_branch(branch)  # the branch chain starts at v0 like main
    n_writers, rows_each = 8, 20
    errors = []

    def writer(i):
        try:
            # every writer starts from SOME version
            t = LakeTable.load(root, branch=branch)
            t.append_arrow(gen_batch(np.arange(rows_each) + i * 1000, SEED),
                           name_parts=("w", str(i)))
        except Exception as e:  # pragma: no cover
            errors.append(e)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(n_writers)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert errors == []
    final = LakeTable.load(root, branch=branch)
    # no lost updates: every writer's rows are present exactly once
    assert final.manifest.total_rows == n_writers * rows_each
    assert final.version == n_writers  # one commit per writer, all rebased
    ids = final.to_arrow(columns=["image_id"])["image_id"].to_pylist()
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("branch", [None, "audit"])
def test_conflicting_removal_aborts(tmp_path, branch):
    root = str(tmp_path / "t")
    t0 = LakeTable.create(root, IMAGE_SCHEMA, TableConfig(target_fragment_bytes=1 << 20))
    if branch:
        t0 = t0.create_branch(branch)
    t0 = t0.append_arrow(gen_batch(np.arange(50), SEED), name_parts=("a", "0"))
    frag = t0.fragments[0]
    # writer A removes the fragment (e.g. a compaction rewrite)
    a = LakeTable.load(root, branch=branch)
    a.commit(operation="compact", add=[], remove_ids={frag.fragment_id})
    # writer B, still based on the old version, tries to remove it too —
    # its input is gone: this is the stale-maintenance abort
    b = LakeTable(root, t0.manifest, branch=branch)
    with pytest.raises(CommitConflict):
        b.commit(operation="compact", add=[], remove_ids={frag.fragment_id})
