"""Round-4 ADVICE fixes, each pinned by a regression test:

1. cow MERGE insert-pass partition count (p_ins) is persisted in the lineage
   job meta and reused on resume — a resume on a cluster with a different
   CPU count must not repartition the insert set under journaled records.
2. DELETE/UPDATE job identity folds a predicate/SET fingerprint into the
   default job_id AND a resume under an explicit job_id with different
   predicates raises instead of silently mixing journaled fragments.
3. table.diff()'s append_only is computed from the two ENDPOINT manifests
   (removed_fragments == 0), robust to snapshot-retention-expired
   intermediate manifests whose rewrite ops vanish from the history.
4. export _MANIFEST.json covers exactly the shards planned in THIS run (no
   stale journal records from a prior plan under the same job_id) in
   numeric shard order.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ocel_ocpn_lakehouse_ray.sources.generator import (
    create_image_table,
    gen_batch,
    gen_update_batch,
)
from ocel_ocpn_lakehouse_ray.state import lineage
from ocel_ocpn_lakehouse_ray.state import manifest as mf
from ocel_ocpn_lakehouse_ray.stages.clustering import run_clustering
from ocel_ocpn_lakehouse_ray.stages.delete import run_delete
from ocel_ocpn_lakehouse_ray.stages.export import run_export
from ocel_ocpn_lakehouse_ray.stages.merge_cow import cow_merge, plan_bins
from ocel_ocpn_lakehouse_ray.stages.update import run_update
from ocel_ocpn_lakehouse_ray.table import LakeTable


# ---------------------------------------------------------------- 1: p_ins


def test_cow_insert_partition_count_persisted_across_resume(tmp_path, monkeypatch):
    import ray

    t = create_image_table(str(tmp_path / "t"), 200, num_fragments=6, seed=7)
    # clustered: each fragment is a stamped bin of its own, so the pure
    # inserts take the insert pass
    t, _ = run_clustering(t, order="zorder", job_id="z")
    upd_ids = np.arange(0, 40, 3)
    new_ids = np.arange(24) + 9 * 10**11
    src = pa.concat_tables(
        [gen_update_batch(upd_ids, 7), gen_batch(new_ids, 7 + 1)])
    src_path = str(tmp_path / "src.parquet")
    pq.write_table(src, src_path)

    touched = list(t.fragments)
    job = "cowp-resume"
    tgt_bytes = t.config.target_fragment_bytes

    # first attempt on a "16-CPU cluster" → p_ins = 8; crash inside the
    # insert pass (failpoint only fires for insert partitions >= 3)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 16.0})
    with pytest.raises(Exception):
        cow_merge(t, [src_path], touched, job_id=job, target_bytes=tgt_bytes,
                  failpoint=len(plan_bins(touched, tgt_bytes)) + 3)
    meta = lineage.load_job_meta(t.root, job)
    assert meta is not None and meta["p_ins"] == 8

    # resume on a "2-CPU cluster": must REUSE p_ins=8, not recompute 1
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 2.0})
    cow_merge(t, [src_path], touched, job_id=job, target_bytes=tgt_bytes)
    meta = lineage.load_job_meta(t.root, job)
    assert meta["p_ins"] == 8

    # every insert lands exactly once across all records
    records = lineage.load_records(t.root, job)
    expect = sorted(gen_batch(new_ids, 8)["image_id"].to_pylist())
    ins_ids = []
    for rec in records.values():
        for m in rec.out_metas():
            ins_ids += [k for k in pq.read_table(
                os.path.join(t.root, m.path), columns=["image_id"]
            )["image_id"].to_pylist() if k in set(expect)]
    assert sorted(ins_ids) == expect


# ------------------------------------------------- 2: DML job fingerprints


def test_delete_default_job_id_differs_by_predicate(tmp_path):
    t = create_image_table(str(tmp_path / "t"), 120, num_fragments=4, seed=3)
    # no-op predicates (all fragments pruned) so both runs share the same
    # base version — the default job_id must still differ by predicate
    _, rep1 = run_delete(
        t, [{"column": "w", "op": "between", "lo": 10**6, "hi": 10**6 + 1}])
    _, rep2 = run_delete(
        t, [{"column": "w", "op": "between", "lo": 10**6 + 2, "hi": 10**6 + 3}])
    assert rep1["job_id"] != rep2["job_id"]
    assert rep1["job_id"].startswith(f"delete-v{t.version}-")


def test_delete_resume_with_different_predicates_raises(tmp_path):
    t = create_image_table(str(tmp_path / "t"), 120, num_fragments=4, seed=3)
    with pytest.raises(Exception, match="failpoint"):
        run_delete(t, [{"column": "w", "op": "eq", "value": 32}],
                   job_id="del-fixed", failpoint=0)
    with pytest.raises(ValueError, match="different"):
        run_delete(t, [{"column": "w", "op": "eq", "value": 64}],
                   job_id="del-fixed")
    # same predicates resume fine
    t2, rep = run_delete(t, [{"column": "w", "op": "eq", "value": 32}],
                         job_id="del-fixed")
    assert rep["deleted"] > 0
    assert not any(v == 32
                   for v in t2.to_arrow(columns=["w"])["w"].to_pylist())


def test_update_resume_with_different_sets_raises(tmp_path):
    t = create_image_table(str(tmp_path / "t"), 120, num_fragments=4, seed=3)
    preds = [{"column": "w", "op": "eq", "value": 32}]
    with pytest.raises(Exception, match="failpoint"):
        run_update(t, preds, [{"column": "h", "set": 1}],
                   job_id="upd-fixed", failpoint=0)
    with pytest.raises(ValueError, match="different"):
        run_update(t, preds, [{"column": "h", "set": 2}], job_id="upd-fixed")
    t2, rep = run_update(t, preds, [{"column": "h", "set": 1}],
                         job_id="upd-fixed")
    assert rep["updated"] > 0
    got = t2.to_arrow(columns=["w", "h"])
    for w, h in zip(got["w"].to_pylist(), got["h"].to_pylist()):
        if w == 32:
            assert h == 1


# --------------------------------------- 3: append_only vs expired history


def test_diff_append_only_false_when_rewrite_manifest_expired(tmp_path):
    t = create_image_table(str(tmp_path / "t"), 120, num_fragments=4, seed=9)
    v1 = t.version
    # v2: a rewrite (DELETE drops rows / fragments)
    ids = t.to_arrow(columns=["image_id"])["image_id"].to_pylist()[:5]
    t2, _ = run_delete(t, [{"column": "image_id", "op": "isin", "values": ids}],
                       job_id="del-exp")
    v2 = t2.version
    # v3: a plain append
    t3 = t2.append_arrow(gen_batch(np.arange(10) + 5 * 10**11, 1),
                         name_parts=("x", "a"))
    # simulate snapshot retention expiring the intermediate rewrite manifest
    os.remove(mf.manifest_path(t3.root, v2))
    d = t3.diff(v1)
    assert d["operations"] == ["append"]  # the rewrite op is GONE from history
    assert d["removed_fragments"] > 0
    assert d["append_only"] is False  # endpoint-manifest check catches it


# ------------------------------------------------ 4: export manifest scope


def test_export_manifest_restricted_to_planned_shards(tmp_path):
    t = create_image_table(str(tmp_path / "t"), 200, num_fragments=8, seed=11)
    out1 = str(tmp_path / "o1")
    rep1 = run_export(t, out1, job_id="exp-reuse",
                      shard_bytes=2 * max(f.bytes for f in t.fragments))
    assert rep1["shards"] > 1  # first plan: several shards journaled

    # same job_id, NEW plan (single giant shard) into a fresh directory:
    # stale journal records from the first plan must not leak into the
    # manifest or its totals
    out2 = str(tmp_path / "o2")
    rep2 = run_export(t, out2, job_id="exp-reuse",
                      shard_bytes=10**12)
    assert rep2["shards"] == 1
    man = json.load(open(os.path.join(out2, "_MANIFEST.json")))
    assert len(man["shards"]) == 1
    assert man["total_rows"] == 200
    assert [s["shard"] for s in man["shards"]] == [0]
    got = pq.read_table(os.path.join(out2, man["shards"][0]["file"]))
    assert got.num_rows == 200
