"""Round-5 ADVICE fixes, each pinned by a regression test:

1. publish_branch idempotency matches on the fork's uuid (+ fork point),
   so repeated fork/commit/publish cycles under a REUSED branch name are
   applied every time — never mistaken for a crash-retry of an earlier
   publish (which silently dropped the staged data and deleted the branch).
2. replicate() commits with the SOURCE manifest's schema/config, so schema
   evolution (new columns + the schema_evolved scan flag) propagates to
   followers and mirror scan-equivalence includes the evolved columns.
3. q_ann_ivf_persisted keys its /tmp index cache by corpus CONTENT
   (file size/mtime fingerprint) and validates manifest rows, so
   regenerated fixture data at the same path rebuilds instead of serving
   stale neighbors.
4. q_conformance's driver-side DFG fold survives an empty events table
   (typed empty report, no pd.concat([]) ValueError) and falls back to a
   distributed groupby-sum past FOLD_BUDGET with identical
   results.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ocel_ocpn_lakehouse_ray.sources.generator import create_image_table, gen_batch
from ocel_ocpn_lakehouse_ray.table import LakeTable

SF = "/root/testdata/sf0.001"


def _ids(t):
    return sorted(t.to_arrow(columns=["image_id"])["image_id"].to_pylist())


# ------------------------------------------- 1: publish under a reused name


def test_republish_recreated_branch_applies_every_cycle(tmp_table_root):
    t = create_image_table(tmp_table_root, 30, num_fragments=2)
    expected = _ids(t)
    # three fork→commit→publish cycles under the SAME branch name, each
    # staging one commit so branch_head is identical (v1) every cycle
    for cycle in range(3):
        b = LakeTable.load(tmp_table_root).create_branch("daily")
        lo = 100 + 10 * cycle
        b.append_arrow(gen_batch(np.arange(lo, lo + 10)))
        m = LakeTable.load(tmp_table_root).publish_branch("daily")
        expected = sorted(expected + gen_batch(
            np.arange(lo, lo + 10))["image_id"].to_pylist())
        assert _ids(m) == expected, f"cycle {cycle} data lost"
        assert "daily" not in m.branches()
    # publish summaries carry distinct fork uuids
    from ocel_ocpn_lakehouse_ray.state import manifest as mf

    uuids = [
        mf.load_manifest(tmp_table_root, v).summary.get("fork_uuid")
        for v in mf.list_manifest_versions(tmp_table_root)
        if mf.load_manifest(tmp_table_root, v).operation == "publish_branch"
    ]
    assert len(uuids) == 3 and len(set(uuids)) == 3 and None not in uuids


def test_publish_crash_retry_still_idempotent(tmp_table_root):
    """The original contract survives: a publish that committed but crashed
    before deleting the branch no-ops (no double-apply) on retry."""
    t = create_image_table(tmp_table_root, 20, num_fragments=1)
    b = t.create_branch("wap")
    b.append_arrow(gen_batch(np.arange(50, 60)))
    m1 = LakeTable.load(tmp_table_root).publish_branch("wap", delete=False)
    # branch still exists (simulated crash between commit and delete)
    assert "wap" in m1.branches()
    m2 = LakeTable.load(tmp_table_root).publish_branch("wap")
    assert m2.version == m1.version  # no second publish commit
    assert _ids(LakeTable.load(tmp_table_root)) == _ids(m1)
    assert "wap" not in LakeTable.load(tmp_table_root).branches()


# ------------------------------------------- 2: replication schema evolution


def test_mirror_replication_propagates_schema_evolution(tmp_path):
    from ocel_ocpn_lakehouse_ray.pipelines.replicate import replicate
    from ocel_ocpn_lakehouse_ray.stages.evolution import evolve_schema

    src_root, dst_root = str(tmp_path / "src"), str(tmp_path / "dst")
    create_image_table(src_root, 40, num_fragments=2)
    replicate(src_root, dst_root)

    # evolve on the source, then append rows carrying the new column
    t = evolve_schema(LakeTable.load(src_root),
                      [pa.field("quality_score", pa.float64())])
    newb = gen_batch(np.arange(40, 60)).append_column(
        "quality_score", pa.array(np.linspace(0, 1, 20)))
    t.append_arrow(newb)

    rep = replicate(src_root, dst_root)
    assert rep["applied"]
    src, dst = LakeTable.load(src_root), LakeTable.load(dst_root)
    assert "quality_score" in dst.schema.names
    assert dst.manifest.config.get("schema_evolved") is True
    # scan-equivalence INCLUDING the evolved column
    cols = ["image_id", "quality_score"]
    s = src.to_dataset(columns=cols).to_pandas().sort_values("image_id")
    d = dst.to_dataset(columns=cols).to_pandas().sort_values("image_id")
    pd.testing.assert_frame_equal(s.reset_index(drop=True),
                                  d.reset_index(drop=True))


# ------------------------------------------- 3: IVF cache content keying


def _write_embeddings(sf_dir: str, n: int, dim: int = 8, seed: int = 0):
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n, dim)).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(list(emb), pa.list_(pa.float32())),
        "label": pa.array(np.zeros(n, dtype=np.int32)),
    })
    pq.write_table(tbl, os.path.join(sf_dir, "embeddings.parquet"))


def test_ivf_cache_rebuilds_when_corpus_regenerated(tmp_path):
    from ocel_ocpn_lakehouse_ray.pipelines.vector_index import (
        _corpus_fingerprint,
        q_ann_ivf_persisted,
    )

    d = str(tmp_path)
    _write_embeddings(d, 120, seed=1)
    tag1, rows1 = _corpus_fingerprint(d)
    assert rows1 == 120
    top1 = q_ann_ivf_persisted(d)
    assert set(top1["neighbor_id"]) <= set(range(120))

    # regenerate the fixture at the SAME path: different rows + content
    _write_embeddings(d, 60, seed=2)
    tag2, rows2 = _corpus_fingerprint(d)
    assert tag2 != tag1 and rows2 == 60
    top2 = q_ann_ivf_persisted(d)
    # neighbors come from the NEW corpus, not the stale 120-vector index
    assert set(top2["neighbor_id"]) <= set(range(60))
    assert os.path.exists(f"/tmp/graft_ivf_{tag2}/_INDEX.json")


def test_ivf_cache_row_mismatch_clears_stale_dir(tmp_path):
    """Belt-and-braces branch: a manifest whose rows disagree with the
    current corpus is cleared and rebuilt, not resumed over."""
    import json
    import shutil

    from ocel_ocpn_lakehouse_ray.pipelines.vector_index import (
        _corpus_fingerprint,
        q_ann_ivf_persisted,
    )

    d = str(tmp_path)
    _write_embeddings(d, 80, seed=3)
    tag, _ = _corpus_fingerprint(d)
    idx = f"/tmp/graft_ivf_{tag}"
    shutil.rmtree(idx, ignore_errors=True)
    os.makedirs(idx)
    with open(os.path.join(idx, "_INDEX.json"), "w") as f:
        json.dump({"nlist": 4, "dim": 8, "rows": 999, "lists": []}, f)
    top = q_ann_ivf_persisted(d)
    man = json.load(open(os.path.join(idx, "_INDEX.json")))
    assert man["rows"] == 80
    assert len(top) > 0


# ------------------------------------------- 4: conformance fold guards


def test_conformance_empty_events(tmp_path):
    from ocel_ocpn_lakehouse_ray.pipelines.conformance import q_conformance

    d = str(tmp_path)
    schema = pa.schema([
        ("event_id", pa.int64()), ("ts", pa.timestamp("us")),
        ("user_id", pa.int64()), ("event_type", pa.string()),
        ("value", pa.float64()), ("props", pa.string()),
    ])
    pq.write_table(schema.empty_table(), os.path.join(d, "events.parquet"))
    out = q_conformance(d)
    df = out.to_pandas()
    assert len(df) == 0
    assert list(df.columns) == ["user_id", "fitness", "prec", "score"]


def test_conformance_fold_budget_fallback_identical(monkeypatch):
    from ocel_ocpn_lakehouse_ray.pipelines.conformance import q_conformance

    def norm(ds):
        return (ds.to_pandas().sort_values("user_id")
                .reset_index(drop=True).round(12))

    base = norm(q_conformance(SF))
    from ocel_ocpn_lakehouse_ray.pipelines import queries

    monkeypatch.setattr(queries, "FOLD_BUDGET", 1)  # force distributed fold
    fb = norm(q_conformance(SF))
    pd.testing.assert_frame_equal(base, fb)
    assert len(base) > 0
