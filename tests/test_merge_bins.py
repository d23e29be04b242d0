"""MERGE's one plan: touched fragments are rewritten in bins, pure inserts
fold into the unstamped bins, a source key may appear once, and a resume
never commits against a touched fragment that another commit replaced."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from ocel_ocpn_lakehouse_ray.config import TableConfig
from ocel_ocpn_lakehouse_ray.sources.generator import (
    create_image_table,
    gen_batch,
    gen_update_batch,
)
from ocel_ocpn_lakehouse_ray.stages.clustering import run_clustering
from ocel_ocpn_lakehouse_ray.stages.delete import run_delete
from ocel_ocpn_lakehouse_ray.stages.merge import prune_touched_fragments, run_merge
from ocel_ocpn_lakehouse_ray.stages.merge_cow import plan_bins
from ocel_ocpn_lakehouse_ray.stages.verify import scan_equivalence
from ocel_ocpn_lakehouse_ray.state import lineage
from ocel_ocpn_lakehouse_ray.state.manifest import CommitConflict
from ocel_ocpn_lakehouse_ray.table import IMAGE_SCHEMA, LakeTable

SEED = 42
NEW = 9 * 10**11  # insert ids sort above every seeded id


def test_small_upsert_into_unstamped_fragments_writes_one_file(tmp_path):
    """Four small unstamped fragments, each hit by one update, plus four
    pure inserts: one bin rewrites all four fragments and takes the inserts,
    so the commit adds exactly one fragment."""
    t = LakeTable.create(str(tmp_path / "t"), IMAGE_SCHEMA,
                         TableConfig(target_fragment_bytes=1 << 30))
    for i in range(4):
        t = t.append_arrow(gen_batch(np.arange(50 * i, 50 * i + 50), SEED),
                           name_parts=("seed", str(i)))
    upd_ids = np.array([3, 60, 111, 170])
    src = pa.concat_tables([gen_update_batch(upd_ids, SEED),
                            gen_batch(np.arange(4) + NEW, SEED + 1)])
    before = {f.fragment_id for f in t.fragments}
    t2, rep = run_merge(t, ray.data.from_arrow(src), job_id="m-fold")
    added = [f for f in t2.fragments if f.fragment_id not in before]
    assert len(added) == 1 and len(t2.fragments) == 1, t2.fragments
    assert rep["touched_fragments"] == 4 and rep["bins"] == 1, rep
    assert rep["updates"] == 4 and rep["inserts"] == 4, rep
    keep = np.setdiff1d(np.arange(200), upd_ids)
    expected = pa.concat_tables([gen_batch(keep, SEED), src])
    se = scan_equivalence(t2.to_dataset(), ray.data.from_arrow(expected),
                          num_parts=4)
    assert se["passed"], se


def test_resume_after_a_delete_rewrote_a_touched_fragment_raises(tmp_path):
    """On a clustered table (stamped bins, so the inserts take the insert
    pass) the bins are journaled and the insert pass crashes; a DELETE of
    another row then rewrites a touched fragment.  A resume from the new
    table raises on the fingerprint (its touched ids changed), and one from
    the stale handle loses the commit race — neither brings the deleted row
    back."""
    root = str(tmp_path / "t")
    t = create_image_table(root, 400, num_fragments=40, seed=SEED)
    t, _ = run_clustering(t, order="zorder", job_id="z")
    src_tbl = pa.concat_tables([gen_update_batch(np.arange(5), SEED),
                                gen_batch(np.arange(5) + NEW, SEED + 1)])
    src = ray.data.from_arrow(src_tbl)
    keys = np.asarray(src_tbl["image_id"].to_pylist(), dtype=object)
    touched, _ = prune_touched_fragments(t.fragments, keys, root=root)
    n_bins = len(plan_bins(touched, t.config.target_fragment_bytes))
    with pytest.raises(Exception, match="failpoint"):
        run_merge(t, src, job_id="probe", failpoint=n_bins)
    bins = [p for p in lineage.load_records(root, "probe")
            if p.startswith("cow-bin-")]
    assert len(bins) == n_bins

    victim = next(k for k in pq.read_table(
        os.path.join(root, touched[0].path), columns=["image_id"]
    )["image_id"].to_pylist() if k not in set(keys))
    t_del, rep = run_delete(
        t, [{"column": "image_id", "op": "eq", "value": victim}], job_id="d")
    assert rep["deleted"] == 1

    with pytest.raises(ValueError, match="fingerprint"):
        run_merge(t_del, src, job_id="probe")
    with pytest.raises(CommitConflict):
        run_merge(t, src, job_id="probe")
    head = LakeTable.load(root)
    assert head.version == t_del.version
    ids = head.to_arrow(columns=["image_id"])["image_id"].to_pylist()
    assert len(ids) == 399 and victim not in ids


def _flag(tbl: pa.Table, value: bool) -> pa.Table:
    return tbl.append_column("__del", pa.array([value] * tbl.num_rows))


@pytest.mark.parametrize("case", ["update", "insert", "clustered_insert",
                                  "update_and_delete_marker"])
def test_duplicate_source_key_raises_before_commit(tmp_path, case):
    """SQL MERGE's cardinality rule: a key that appears twice in the source
    raises ValueError, whether the key updates a row, inserts into an
    unstamped bin, inserts through the insert pass (clustered table), or
    is both an upsert and a delete marker; nothing is committed."""
    t = create_image_table(str(tmp_path / "t"), 200, num_fragments=6, seed=SEED)
    if case == "clustered_insert":
        t, _ = run_clustering(t, order="zorder", job_id="z")
    delete_col = None
    if case == "update":
        src = gen_update_batch(np.array([5, 9, 5]), SEED)
    elif case in ("insert", "clustered_insert"):
        src = pa.concat_tables([gen_update_batch(np.array([9]), SEED),
                                gen_batch(np.array([0, 1, 0]) + NEW, SEED + 1)])
    else:
        delete_col = "__del"
        src = pa.concat_tables([_flag(gen_update_batch(np.array([5]), SEED), False),
                                _flag(gen_batch(np.array([5]), SEED), True)])
    with pytest.raises(ValueError, match="may appear once"):
        run_merge(t, ray.data.from_arrow(src), job_id=f"dup-{case}",
                  delete_col=delete_col)
    assert LakeTable.load(t.root).version == t.version
