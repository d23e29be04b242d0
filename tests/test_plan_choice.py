"""The engine picks every physical plan itself: state written under older
plans stays usable or raises, and each plan's edge cases hold (projected
predicates, MERGE's empty insert partitions, null fold keys)."""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from ocel_ocpn_lakehouse_ray.config import TableConfig
from ocel_ocpn_lakehouse_ray.sources.generator import (
    create_image_table,
    gen_batch,
    gen_update_batch,
    merge_source_dataset,
)
from ocel_ocpn_lakehouse_ray.stages.clustering import run_clustering
from ocel_ocpn_lakehouse_ray.stages.merge import run_merge
from ocel_ocpn_lakehouse_ray.stages.verify import verify_merged_map_only
from ocel_ocpn_lakehouse_ray.state import lineage
from ocel_ocpn_lakehouse_ray.table import IMAGE_SCHEMA, LakeTable


def test_stored_config_with_removed_strategy_fields_still_merges(tmp_path):
    """A table whose stored config still carries the removed
    ``shuffle_strategy`` / ``merge_strategy`` keys reopens (the keys are
    dropped on load) and clusters and merges normally."""
    root = str(tmp_path / "t")
    t = create_image_table(root, 200, num_fragments=6, seed=42)
    old_cfg = {**t.manifest.config, "shuffle_strategy": "ray",
               "merge_strategy": "shuffle"}
    t.commit(operation="set-config", add=[], remove_ids=set(), config=old_cfg)

    t = LakeTable.load(root)
    assert t.manifest.config["merge_strategy"] == "shuffle"
    assert t.config == TableConfig.from_dict(
        {k: v for k, v in old_cfg.items() if not k.endswith("_strategy")})
    assert not hasattr(t.config, "merge_strategy")
    t, _ = run_clustering(t, order="zorder", job_id="legacy-z")
    t2, rep = run_merge(t, merge_source_dataset(200, seed=42, num_blocks=2),
                        job_id="legacy-m")
    assert rep["updates"] > 0 and rep["inserts"] == 200 // 20
    vr = verify_merged_map_only(t2, n=200, seed=42)
    assert vr["passed"] and vr["id_checksum_ok"], vr


def test_resume_of_a_meta_without_fingerprint_raises(tmp_path, monkeypatch):
    """A MERGE journaled before MERGE opened its jobs through
    ``lineage.open_job`` (the hash co-group's meta: a plan, no fingerprint)
    raises on resume instead of committing its records; the same source
    merges under a new job id."""
    t = create_image_table(str(tmp_path / "t"), 200, num_fragments=6, seed=42)
    src = merge_source_dataset(200, seed=42, num_blocks=2)

    def crash(self, **kw):
        raise RuntimeError("failpoint: crash before commit")

    real_commit = LakeTable.commit
    monkeypatch.setattr(LakeTable, "commit", crash)
    with pytest.raises(RuntimeError, match="failpoint"):
        run_merge(t, src, job_id="legacy")
    monkeypatch.setattr(LakeTable, "commit", real_commit)
    meta = lineage.load_job_meta(t.root, "legacy")
    lineage.write_job_meta(t.root, "legacy", {
        "plan": "shuffle", "num_parts": 3, "touched": [],
        "source_rows": meta["source_rows"],
        "base_version": meta["base_version"]})

    with pytest.raises(ValueError, match="fingerprint"):
        run_merge(t, src, job_id="legacy")
    assert LakeTable.load(t.root).version == t.version
    t2, rep = run_merge(t, src, job_id="legacy-rerun")
    ids = t2.to_arrow(columns=["image_id"])["image_id"].to_pylist()
    assert len(ids) == len(set(ids)) == 200 + 200 // 20
    vr = verify_merged_map_only(t2, n=200, seed=42)
    assert vr["passed"] and vr["id_checksum_ok"], vr


def test_to_dataset_predicate_on_unprojected_column(tmp_path):
    t = create_image_table(str(tmp_path / "t"), 300, num_fragments=5, seed=9)
    full = t.to_arrow()
    want = full.filter(pc.and_(pc.greater_equal(full["w"], 32),
                               pc.less_equal(full["w"], 64)))
    ds = t.to_dataset(columns=["image_id"], predicates=[("w", 32, 64)])
    got = ds.to_pandas()
    assert list(got.columns) == ["image_id"]
    assert 0 < len(got) < full.num_rows
    assert sorted(got["image_id"]) == sorted(want["image_id"].to_pylist())
    # a projected predicate column stays in the output
    both = t.to_dataset(columns=["w", "image_id"], predicates=[("w", 32, 64)])
    assert both.columns() == ["w", "image_id"]
    assert both.count() == want.num_rows


def test_cow_empty_insert_parts_take_the_staged_source_schema(tmp_path):
    """Fragments and source share a column order that differs from the
    table schema's.  Every source key falls inside both fragments' ranges,
    so the insert exchange routes no rows; the insert parts are fed by
    leftovers only and must concat them under the source's schema."""
    root = str(tmp_path / "t")
    t = LakeTable.create(root, IMAGE_SCHEMA,
                         TableConfig(target_fragment_bytes=1 << 30))
    order = list(reversed(IMAGE_SCHEMA.names))
    # two fragments with interleaved key ranges; keys 2 mod 4 exist nowhere
    t = t.append_arrow(gen_batch(np.arange(0, 200, 4), 42).select(order),
                       name_parts=("seed", "a"))
    t = t.append_arrow(gen_batch(np.arange(1, 200, 4), 42).select(order),
                       name_parts=("seed", "b"))
    for b in glob.glob(os.path.join(root, "data", "*.bloom")):
        os.remove(b)  # range-only routing → every row claimed by both
    upd = gen_update_batch(np.arange(0, 40, 4), 42)         # 10 updates
    new = gen_batch(np.array([2, 6, 10]), 43)               # in-range inserts
    src = pa.concat_tables([upd, new]).select(order)
    t2, rep = run_merge(t, ray.data.from_arrow(src), job_id="cow-order")
    assert rep["updates"] == 10 and rep["inserts"] == 3, rep
    got = t2.to_arrow()
    ids = got["image_id"].to_pylist()
    assert len(ids) == len(set(ids)) == 100 + 3
    assert set(new["image_id"].to_pylist()) <= set(ids)
    caps = dict(zip(ids, got["caption"].to_pylist()))
    for k, c in zip(upd["image_id"].to_pylist(), upd["caption"].to_pylist()):
        assert caps[k] == c


@pytest.mark.parametrize("key_type,blocks", [(pa.int64(), 3), (pa.string(), 3)])
def test_fold_partials_null_keys_agree_on_both_paths(key_type, blocks,
                                                     monkeypatch):
    """Null keys form one group on the driver fold and on the bucketed
    fallback alike, with the null keys spread over several blocks."""
    from ocel_ocpn_lakehouse_ray.pipelines import queries

    keys = [1, None, 2, None, 1, 3, None]
    if key_type == pa.string():
        keys = [None if k is None else f"k{k}" for k in keys]
    v = pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64())
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, key_type), "s": v, "lo": v, "hi": v,
    })).repartition(blocks)
    aggs = {"s": "sum", "lo": "min", "hi": "max"}

    def rows(out: pa.Table) -> list[tuple]:
        cols = [out["k"].cast(key_type)] + [out[c].cast(pa.int64()) for c in aggs]
        return sorted(zip(*(c.to_pylist() for c in cols)),
                      key=lambda r: (r[0] is not None, str(r[0])))

    driver = rows(queries.fold_partials(ds, ["k"], aggs=aggs))
    monkeypatch.setattr(queries, "FOLD_BUDGET", 0)  # force the fallback
    fallback = rows(queries.fold_partials(ds, ["k"], aggs=aggs))
    assert driver == fallback
    assert driver[0] == (None, 13, 2, 7)
    assert len(driver) == 4
