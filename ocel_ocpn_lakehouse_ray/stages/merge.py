"""MERGE INTO: upsert a source dataset into the table on ``image_id`` —
matched rows are replaced by the source version, unmatched source rows are
inserted, and only touched fragments are rewritten.

The reference has no MERGE; its closest machinery is append loaders +
overwrite refresh + staged commit (SURVEY.md §2.4 J-row "MERGE INTO":
`ingest/proper_iceberg_loader.py:71-74`, `ops/materialized_views.py:288-290`,
`ops/commit_staged_files.py:47-88`).  This implements the north_star target
semantics as staged files plus one commit:

  1. **Stage** — the source pipeline runs exactly once, written as parquet
     into the job's journal area; a resume before the commit reuses it.
  2. **Touched-fragment pruning** — the source's image_id key set is tested
     against each fragment's manifest min/max image_id stats and key Bloom
     sidecar; fragments that can hold no source key pass through the commit
     UNREAD.  Past ``MAX_DRIVER_KEYS`` source rows the same probe runs
     distributed (``prune_touched_distributed``).
  3. **Rewrite** — one plan, copy-on-write over bins of touched fragments
     (stages/merge_cow.py): only source rows move through an exchange, each
     bin's task rewrites its fragments in place, and a clustered fragment
     keeps its key range.
  4. **Commit** — the journal's records become one manifest commit that
     removes every rewritten fragment; the staged payload is dropped after.

image_id is unique in the table, and a key may appear once in the source, so
no partition can concentrate on one key (SURVEY.md §7 hard part (d): never
split a join key).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa

from ..state import lineage

# Staged source rows whose keys the driver collects for fragment pruning;
# past it the touched set comes from the distributed bloom probe instead
# (tests shrink this to force that path).
MAX_DRIVER_KEYS = 5_000_000
# Bumped when the rewrite's partitions change meaning: a journal written
# under another version never resumes.
PLAN_VERSION = 2


def prune_touched_fragments(fragments, source_keys: np.ndarray, root: str | None = None):
    """Split fragments into (touched, untouched): first by manifest image_id
    min/max range stats, then — for range-overlapping fragments that carry a
    key Bloom sidecar (functions/bloom.py) — by probing the in-range source
    keys against the bloom.  A fragment whose bloom misses EVERY source key
    definitely contains none of them (blooms have no false negatives)."""
    from ..functions import bloom as bl

    keys = np.sort(np.asarray(source_keys))
    h1 = h2 = None  # key hashes computed lazily ONCE, reused for every bloom
    touched, untouched = [], []
    for f in fragments:
        st = f.stats.get("image_id")
        if not st or st.get("min") is None:
            touched.append(f)
            continue
        lo = np.searchsorted(keys, st["min"], side="left")
        hi = np.searchsorted(keys, st["max"], side="right")
        if lo >= hi:  # key range disjoint from the source
            untouched.append(f)
            continue
        binfo = f.stats.get("__bloom")
        if root is not None and binfo:
            try:
                bits, k = bl.read_sidecar_cached(os.path.join(root, binfo["path"]))
            except (OSError, ValueError):
                touched.append(f)  # sidecar missing/corrupt → conservative
                continue
            if h1 is None:
                h1, h2 = bl.key_hashes(keys)
            if not bl.might_contain_hashes(bits, h1[lo:hi], h2[lo:hi], k).any():
                untouched.append(f)
                continue
        touched.append(f)
    return touched, untouched


def prune_touched_distributed(table, src_files, *, batch_size: int = 65536):
    """Touched-fragment ids for sources too large for a driver key set:
    every fragment's (tiny) bloom + key range is broadcast once, and Ray
    tasks stream the staged source key column, probing each batch against
    each bloom; the driver unions only fragment-id hits.  Fragments without
    a bloom sidecar are conservatively touched."""
    import ray

    from ..functions import bloom as bl
    from ..sources.fragments import read_files

    blooms, touched = {}, set()
    for f in table.fragments:
        st = f.stats.get("image_id") or {}
        binfo = f.stats.get("__bloom")
        if not binfo:
            touched.add(f.fragment_id)
            continue
        try:
            bits, k = bl.read_sidecar_cached(os.path.join(table.root, binfo["path"]))
        except (OSError, ValueError):
            touched.add(f.fragment_id)
            continue
        blooms[f.fragment_id] = (bits, k, st.get("min"), st.get("max"))
    if not blooms:
        return sorted(touched)
    ref = ray.put(blooms)

    def probe(batch):
        import ray as _r

        bmap = _r.get(ref)
        ks = np.sort(np.asarray(batch["image_id"].to_pylist(), dtype=object))
        h1, h2 = bl.key_hashes(ks)  # hash once, probe every bloom
        hits = []
        for fid, (bits, k, mn, mx) in bmap.items():
            if mn is not None:
                lo = np.searchsorted(ks, mn, side="left")
                hi = np.searchsorted(ks, mx, side="right")
            else:
                lo, hi = 0, len(ks)
            if lo < hi and bl.might_contain_hashes(bits, h1[lo:hi], h2[lo:hi], k).any():
                hits.append(fid)
        return pa.table({"fragment_id": pa.array(hits, pa.string())})

    ds = read_files(src_files, columns=["image_id"])
    hit_ds = ds.map_batches(probe, batch_format="pyarrow", batch_size=batch_size)
    for b in hit_ds.iter_batches(batch_format="pyarrow"):
        touched.update(b["fragment_id"].to_pylist())
    return sorted(touched)


def run_merge(table, source_ds, *, job_id: str | None = None,
              failpoint: int | None = None, delete_col: str | None = None):
    """MERGE source_ds INTO table ON image_id; returns (new_table, report).

    Each key may appear at most once in the source (SQL MERGE's cardinality
    rule): a key that appears twice raises ValueError before anything is
    committed.

    ``delete_col``: name of a boolean column on the source marking WHEN
    MATCHED THEN DELETE rows — matched target rows are deleted, the marker
    rows are never inserted, unmatched markers are no-ops.

    The job opens through ``lineage.open_job``.  Its fingerprint covers the
    touched fragment ids, computed from the staged source on every run, so a
    resume after a commit that rewrote a touched fragment raises ValueError
    instead of committing against inputs that changed."""
    import glob

    import pyarrow.parquet as pq

    from .merge_cow import cow_merge

    cfg = table.config
    job_id = job_id or lineage.default_job_id("merge", table)
    t0 = time.time()
    ph = {}  # per-phase seconds (stage_source / plan / shuffle / commit)
    subph = {}  # cow sub-phases (inside 'shuffle'); reported separately

    # STAGE THE SOURCE: run the source pipeline exactly once, writing it as
    # parquet into the job's journal area, so key collection and routing
    # never execute it twice.  The staged source lives until the commit: a
    # resume before it reuses the files (``_SUCCESS`` marks them whole), and
    # ``lineage.drop_payload`` deletes them, with cow's sidecars, right after
    # it (or GC does, after a crash).
    src_dir = os.path.join(lineage.journal_dir(table.root, job_id), "source")
    marker = os.path.join(src_dir, "_SUCCESS")
    if not os.path.exists(marker):  # resume reuses the staged source
        # a crash mid-write leaves partial parquet without the marker; clear
        # them so the re-run's glob can't pick up two copies of any row.
        for stale in glob.glob(os.path.join(src_dir, "*.parquet")):
            os.remove(stale)

        from ..sources.fragments import column_compression

        stage_schema = table.schema
        if delete_col:
            stage_schema = stage_schema.append(pa.field(delete_col, pa.bool_()))
        source_ds.write_parquet(src_dir,
                                compression=column_compression(stage_schema))
        with open(marker, "w") as f:
            f.write("ok")
    src_files = sorted(glob.glob(os.path.join(src_dir, "*.parquet")))
    ph["stage_source"] = round(time.time() - t0, 3)

    # source key set for fragment pruning from the staged files (columnar,
    # keys only) — recomputed on a resume, so the fingerprint below sees a
    # touched fragment that a concurrent commit replaced
    src_rows = sum(pq.ParquetFile(p).metadata.num_rows for p in src_files)
    if not src_rows:  # empty source: nothing to do
        return table, {"job_id": job_id, "bins": 0, "rows": 0,
                       "updates": 0, "inserts": 0, "seconds": 0.0,
                       "touched_fragments": 0,
                       "untouched_fragments": len(table.fragments)}
    if src_rows > MAX_DRIVER_KEYS:
        # source keys won't fit on the driver → distributed bloom probe
        # (fragments lacking blooms are conservatively touched)
        touched_ids = prune_touched_distributed(table, src_files)
    else:
        key_tbls = [pq.read_table(p, columns=["image_id"]) for p in src_files]
        src_keys = (
            pa.concat_tables(key_tbls)["image_id"].to_numpy(zero_copy_only=False)
            if key_tbls else np.array([], dtype=object)
        )
        touched, _ = prune_touched_fragments(table.fragments, src_keys,
                                             root=table.root)
        touched_ids = sorted(f.fragment_id for f in touched)
    # "plan" stays in the meta: perfbench counts merge.plan_cow from it
    lineage.open_job(
        table.root, job_id,
        lineage.fingerprint(touched_ids, cfg.target_fragment_bytes, delete_col,
                            PLAN_VERSION),
        lambda: {"plan": "cow", "source_rows": int(src_rows),
                 "base_version": table.version})
    ph["plan"] = round(time.time() - t0 - sum(ph.values()), 3)

    ids = set(touched_ids)
    cow_merge(table, src_files, [f for f in table.fragments if f.fragment_id in ids],
              job_id=job_id, target_bytes=cfg.target_fragment_bytes,
              failpoint=failpoint, delete_col=delete_col, phases=subph)
    ph["shuffle"] = round(time.time() - t0 - sum(ph.values()), 3)
    records = lineage.load_records(table.root, job_id).values()
    # only fragments ACTUALLY rewritten leave the manifest: a bin that
    # received no routed source rows (possible only if planning and routing
    # filters ever disagree) passes through unchanged
    bins = [rec for rec in records if rec.partition_id.startswith("cow-bin-")]
    removed = {fid for rec in bins for fid in rec.frags_in}
    add = [m for rec in records for m in rec.out_metas()]
    rows = sum(rec.rows for rec in records)
    updates = sum(rec.extra.get("updates", 0) for rec in records)
    inserts = sum(rec.extra.get("inserts", 0) for rec in records)
    deletes = sum(rec.extra.get("deletes", 0) for rec in records)
    elapsed = time.time() - t0
    new_table = table.commit(
        operation="merge",
        add=add,
        remove_ids=removed,
        summary={"job_id": job_id, "bins": len(bins),
                 "touched_fragments": len(removed),
                 "untouched_fragments": len(table.fragments) - len(removed),
                 "rows": rows, "updates": updates, "inserts": inserts,
                 "deletes": deletes, "seconds": round(elapsed, 3)},
    )
    lineage.drop_payload(table.root, job_id)
    ph["commit"] = round(time.time() - t0 - sum(ph.values()), 3)
    report = dict(new_table.manifest.summary)
    report["rows_per_sec"] = round(rows / elapsed, 1) if elapsed > 0 else None
    report["phase_seconds"] = {**ph, **subph}
    return new_table, report
