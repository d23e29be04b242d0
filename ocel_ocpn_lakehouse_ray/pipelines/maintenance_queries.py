"""Driver-facing wrappers that exercise the full maintenance engine on the
deterministic synthetic image table (FIXTURES.md F1/F2) — one `queries()`
entry per maintenance job.  These are not SQL-expressible (stateful,
multi-commit, binary payloads) → the driver records rows-only checks; the
exact oracles live in tests/test_maintenance.py.

Each call: (a) lazily builds a seed table sized by the sf tier into a shared
cache, (b) copies it to a fresh working root, (c) runs the job, (d) returns a
deterministic scan of the result (no file names / timestamps — identical
across runs)."""

from __future__ import annotations

import os
import re
import shutil
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.generator import create_image_table, merge_source_dataset
from ..stages.clustering import cluster_key_batch, run_clustering
from ..stages.compaction import run_compaction
from ..stages.gc import expire_and_gc, fsck
from ..stages.merge import run_merge
from ..table import LakeTable

# scratch roots: prefer tmpfs — on this single-node sandbox the disk is one
# shared device, so benchmarks on /tmp measure disk bandwidth, not the
# engine; on a real cluster each node brings its own disks.
_SCRATCH = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
CACHE_ROOT = os.environ.get("GRAFT_CACHE_ROOT", f"{_SCRATCH}/graft_cache")
WORK_ROOT = os.environ.get("GRAFT_WORK_ROOT", f"{_SCRATCH}/graft_work")
_SCALE_N = {"0.001": 400, "0.01": 2000, "0.1": 20000}


def _scale_n(sf_dir: str) -> int:
    m = re.search(r"sf([0-9.]+)", sf_dir or "")
    return _SCALE_N.get(m.group(1) if m else "", 2000)


def _seed_table_root(n: int) -> str:
    """Build-once shared seed table (atomic: build under tmp name, rename)."""
    root = os.path.join(CACHE_ROOT, f"images_{n}")
    if os.path.exists(os.path.join(root, "_latest")):
        return root
    os.makedirs(CACHE_ROOT, exist_ok=True)
    tmp = root + f".build.{os.getpid()}.{uuid.uuid4().hex[:6]}"
    create_image_table(tmp, n, num_fragments=max(8, n // 50))
    try:
        os.rename(tmp, root)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # lost a concurrent build race
    return root


def _working_copy(n: int, tag: str) -> str:
    src = _seed_table_root(n)
    dst = os.path.join(WORK_ROOT, f"{tag}_{n}_{uuid.uuid4().hex[:8]}")
    shutil.copytree(src, dst)
    return dst


def _scan(table: LakeTable, with_cluster_key: str | None = None) -> pd.DataFrame:
    cols = ["image_id", "caption", "w", "h", "fmt", "phash"]
    df = table.to_dataset(columns=cols).to_pandas()
    if with_cluster_key:
        tbl = pa.Table.from_pandas(df, preserve_index=False)
        df["cluster_key"] = cluster_key_batch(tbl, with_cluster_key).view(np.int64)
    return df.sort_values("image_id").reset_index(drop=True)


def maint_compaction(sf_dir: str) -> pd.DataFrame:
    root = _working_copy(_scale_n(sf_dir), "compact")
    t = LakeTable.load(root)
    t2, _ = run_compaction(t, job_id="q-compact")
    return _scan(t2)


def maint_cluster_zorder(sf_dir: str) -> pd.DataFrame:
    root = _working_copy(_scale_n(sf_dir), "zorder")
    t = LakeTable.load(root)
    t2, _ = run_clustering(t, order="zorder", job_id="q-zorder")
    return _scan(t2, with_cluster_key="zorder")


def maint_cluster_hilbert(sf_dir: str) -> pd.DataFrame:
    root = _working_copy(_scale_n(sf_dir), "hilbert")
    t = LakeTable.load(root)
    t2, _ = run_clustering(t, order="hilbert", job_id="q-hilbert")
    return _scan(t2, with_cluster_key="hilbert")


def maint_merge(sf_dir: str) -> pd.DataFrame:
    n = _scale_n(sf_dir)
    root = _working_copy(n, "merge")
    t = LakeTable.load(root)
    src = merge_source_dataset(n, num_blocks=max(2, n // 200))
    t2, _ = run_merge(t, src, job_id="q-merge")
    return _scan(t2)


def maint_evolve_schema(sf_dir: str) -> pd.DataFrame:
    """Additive schema evolution through the driver contract: evolve, append
    rows carrying the new column, scan back the mixed table (old fragments
    null-filled)."""
    import pyarrow as pa

    from ..sources.generator import gen_batch
    from ..stages.evolution import evolve_schema

    n = _scale_n(sf_dir)
    root = _working_copy(n, "evolve")
    t = LakeTable.load(root)
    t = evolve_schema(t, [pa.field("quality_score", pa.float64())])
    extra = gen_batch(np.arange(n, n + max(10, n // 100)))
    extra = extra.append_column(
        "quality_score", pa.array(np.linspace(0, 1, extra.num_rows))
    )
    t = t.append_arrow(extra, name_parts=("evolve", "x"))
    df = t.to_dataset(columns=["image_id", "quality_score"]).to_pandas()
    return df.sort_values("image_id").reset_index(drop=True)


def mv_refresh_dfg(sf_dir: str) -> pd.DataFrame:
    """Materialized-view layer through the driver contract: refresh the
    direct-follows MV twice (overwrite semantics) and read it back."""
    import uuid as _uuid

    from .mv import MaterializedView
    from .queries import q_direct_follows

    wh = os.path.join(WORK_ROOT, f"wh_{_uuid.uuid4().hex[:8]}")
    mv = MaterializedView(wh, "dfg", lambda: q_direct_follows(sf_dir))
    mv.refresh()
    mv.refresh()  # second refresh must fully overwrite, not append
    df = mv.read().to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
    shutil.rmtree(wh, ignore_errors=True)
    return df


def mv_refresh_variants(sf_dir: str) -> pd.DataFrame:
    """Trace-variants MV (the reference's MV #3, `ops/materialized_views.py:
    370-409`) refreshed twice through the overwrite path, then read back."""
    import uuid as _uuid

    from .conformance import q_trace_variants
    from .mv import MaterializedView

    wh = os.path.join(WORK_ROOT, f"wh_{_uuid.uuid4().hex[:8]}")
    mv = MaterializedView(wh, "variants", lambda: q_trace_variants(sf_dir))
    mv.refresh()
    mv.refresh()  # second refresh must fully overwrite, not append
    df = mv.read().to_pandas().sort_values("pattern").reset_index(drop=True)
    shutil.rmtree(wh, ignore_errors=True)
    return df


def maint_expire_gc(sf_dir: str) -> pd.DataFrame:
    root = _working_copy(_scale_n(sf_dir), "gc")
    t = LakeTable.load(root)
    t2, _ = run_compaction(t, job_id="q-gc-compact")
    expire_and_gc(root, keep_last=1, orphan_grace_seconds=0)
    rep = fsck(root)
    df = _scan(LakeTable.load(root))
    # fsck must be clean post-GC; surface it in the result for the rows check
    df["gc_clean"] = not (rep["orphans"] or rep["missing"]
                          or rep["stale_payload"])
    return df


def maint_export_shards(sf_dir: str) -> pd.DataFrame:
    """Training-shard export (stages/export.py): export the seed snapshot,
    read the shards back, prove scan equivalence — the resumable delta/full
    export surface a training pipeline consumes (rows-only check)."""
    import uuid as _uuid

    from ..stages.export import run_export

    root = _working_copy(_scale_n(sf_dir), "export")
    out = os.path.join(WORK_ROOT, f"shards_{_uuid.uuid4().hex[:8]}")
    t = LakeTable.load(root)
    run_export(t, out, job_id="q-export")
    import pyarrow.parquet as pq

    files = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))
    df = pa.concat_tables(
        [pq.read_table(os.path.join(out, f),
                       columns=["image_id", "caption", "w", "h", "fmt",
                                "phash"]) for f in files]
    ).to_pandas().sort_values("image_id").reset_index(drop=True)
    expected = _scan(t)[df.columns]
    assert df.equals(expected), "export scan-equivalence failed"
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(root, ignore_errors=True)
    return df


def maint_update(sf_dir: str) -> pd.DataFrame:
    """Predicate UPDATE (stages/update.py): CASE-conditional + arithmetic
    SET on a width band, return the updated scan — rows-only check (the SET
    semantics are asserted in place; the DuckDB UPDATE oracle lives in
    tests/test_verdict_r4.py)."""
    from ..stages.update import run_update

    root = _working_copy(_scale_n(sf_dir), "update")
    t = LakeTable.load(root)
    before = _scan(t)
    t2, rep = run_update(
        t, [{"column": "w", "op": "between", "lo": 48, "hi": 64}],
        [{"column": "h", "binop": {"op": "+", "lhs": {"col": "h"},
                                   "rhs": {"lit": 1000}}}],
        job_id="q-update")
    df = _scan(t2)
    assert len(df) == len(before)
    sel = (df["w"] >= 48) & (df["w"] <= 64)
    old = before.set_index("image_id")["h"]
    assert (df.loc[sel, "h"].to_numpy()
            == old[df.loc[sel, "image_id"]].to_numpy() + 1000).all()
    assert (df.loc[~sel, "h"].to_numpy()
            == old[df.loc[~sel, "image_id"]].to_numpy()).all()
    shutil.rmtree(root, ignore_errors=True)
    return df


def maint_delete(sf_dir: str) -> pd.DataFrame:
    """Predicate DELETE (stages/delete.py): delete a width band from the
    snapshot, return the surviving scan — rows-only check (the deleted rows
    are exactly the rows matching the predicate, asserted in place)."""
    from ..stages.delete import run_delete

    root = _working_copy(_scale_n(sf_dir), "delete")
    t = LakeTable.load(root)
    before = t.manifest.total_rows
    t2, rep = run_delete(
        t, [{"column": "w", "op": "between", "lo": 48, "hi": 64}],
        job_id="q-delete")
    df = _scan(t2)
    assert not ((df["w"] >= 48) & (df["w"] <= 64)).any()
    assert len(df) == before - rep["deleted"]
    shutil.rmtree(root, ignore_errors=True)
    return df
