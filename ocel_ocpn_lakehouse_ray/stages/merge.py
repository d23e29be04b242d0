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
  2. **Touched-fragment pruning** — one probe (``probe_keys``) tests the
     source's image_id keys against each fragment's manifest min/max
     image_id stats, then the in-range keys against its key Bloom sidecar;
     fragments that can hold no source key pass through the commit UNREAD.
     Scale: O(n log n + F log n + candidates) for n keys and F fragments.
     Past ``MAX_DRIVER_KEYS`` source rows the same probe runs in one
     ``fan_out`` task per staged file (``prune_touched_distributed``), as
     the rewrite's route does; maintenance starts tasks only through
     ``fan_out``.  A null source key raises ValueError before any probe.
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
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state import lineage

# Staged source rows whose keys the driver collects for fragment pruning;
# past it the same probe runs in Ray tasks instead (tests shrink this to
# force that path).
MAX_DRIVER_KEYS = 5_000_000
# Source keys one distributed-pruning task probes at once, so a task's sort
# and hash arrays stay bounded however large a staged file is.
PROBE_SLICE_KEYS = 65536
# Bumped when the rewrite's partitions change meaning: a journal written
# under another version never resumes.
PLAN_VERSION = 2


def probe_descriptors(fragments, root: str | None = None) -> list[tuple]:
    """One ``probe_keys`` descriptor per fragment, ``(min, max, bloom_bits,
    k)``: its image_id range stats (None without them) and its key Bloom
    sidecar (None without ``root``, or when the sidecar is missing or
    corrupt, which leaves that fragment range-only)."""
    from ..functions import bloom as bl

    out = []
    for f in fragments:
        st = f.stats.get("image_id") or {}
        binfo = f.stats.get("__bloom")
        bits, k = None, bl.NUM_HASHES
        if root is not None and binfo:
            try:
                bits, k = bl.read_sidecar_cached(os.path.join(root, binfo["path"]))
            except (OSError, ValueError):
                pass  # missing or corrupt: range-only
        out.append((st.get("min"), st.get("max"), bits, k))
    return out


def probe_keys(frags, keys):
    """Yield ``(fragment index, row indices into keys)`` for each fragment
    of ``frags`` (``probe_descriptors``) that may hold any of ``keys``, one
    fragment at a time and in fragment order; the rows come in key order.

    The keys are sorted once and every fragment's min and max are located in
    them by one vectorised ``searchsorted``, so a fragment's in-range keys
    are one slice; a fragment without range stats takes every key.  Only
    those keys are then probed against the fragment's Bloom filter (none:
    range-only), with the key hashes computed once per call.  Cost per call:
    O(n log n + F log n + candidates) for n keys and F fragments."""
    from ..functions import bloom as bl

    keys = np.asarray(keys, dtype=object)
    # arrow sorts in C; numpy's object argsort compares Python strings
    order = pc.sort_indices(pa.array(keys)).to_numpy()
    sk = keys[order]
    lo = np.zeros(len(frags), np.int64)
    hi = np.full(len(frags), len(sk), np.int64)
    ranged = [i for i, f in enumerate(frags) if f[0] is not None]
    if ranged:
        lo[ranged] = np.searchsorted(
            sk, np.array([frags[i][0] for i in ranged], dtype=object), side="left")
        hi[ranged] = np.searchsorted(
            sk, np.array([frags[i][1] for i in ranged], dtype=object), side="right")
    h1 = h2 = None
    for i in np.nonzero(lo < hi)[0]:
        a, b = lo[i], hi[i]
        rows = order[a:b]
        bits, k = frags[i][2], frags[i][3]
        if bits is not None:
            if h1 is None:
                h1, h2 = bl.key_hashes(sk)
            rows = rows[bl.might_contain_hashes(bits, h1[a:b], h2[a:b], k)]
        if rows.size:
            yield int(i), rows


def prune_touched_fragments(fragments, source_keys, root: str | None = None):
    """Split fragments into (touched, untouched): a fragment is touched when
    ``probe_keys`` finds any source key it may hold, by its image_id range
    and, with ``root``, its key Bloom sidecar (blooms have no false
    negatives, so an untouched fragment holds none of the keys)."""
    hit = {i for i, _ in probe_keys(probe_descriptors(fragments, root),
                                    source_keys)}
    return ([f for i, f in enumerate(fragments) if i in hit],
            [f for i, f in enumerate(fragments) if i not in hit])


def prune_touched_distributed(table, src_files):
    """Touched-fragment ids for sources too large for a driver key set: the
    fragments' (tiny) probe descriptors are broadcast once, and one
    ``fan_out`` task per staged file (``fs_shuffle.map_files``) runs its key
    column through ``probe_keys`` in slices of PROBE_SLICE_KEYS keys; the
    driver unions only fragment-id hits, so it touches what
    ``prune_touched_fragments`` would."""
    import ray

    from .fs_shuffle import map_files

    ref = ray.put(([f.fragment_id for f in table.fragments],
                   probe_descriptors(table.fragments, table.root)))

    def probe(block: pa.Table) -> set:
        ids, descs = ray.get(ref)
        keys = block["image_id"]
        return {ids[i] for s in range(0, len(keys), PROBE_SLICE_KEYS)
                for i, _ in probe_keys(
                    descs, keys.slice(s, PROBE_SLICE_KEYS).to_pylist())}

    return sorted(set().union(*map_files(src_files, probe,
                                         columns=["image_id"])))


def null_keys(metas, src_files, key: str = "image_id") -> int:
    """Null ``key`` count of the staged files: from their footers
    (``metas``), or from the column for a file without null-count stats."""
    total = 0
    for md, path in zip(metas, src_files):
        col = md.schema.names.index(key)
        stats = [md.row_group(r).column(col).statistics
                 for r in range(md.num_row_groups)]
        if all(st is not None and st.has_null_count for st in stats):
            total += sum(st.null_count for st in stats)
        else:
            total += pq.read_table(path, columns=[key])[key].null_count
    return total


def run_merge(table, source_ds, *, job_id: str | None = None,
              failpoint: int | None = None, delete_col: str | None = None):
    """MERGE source_ds INTO table ON image_id; returns (new_table, report).

    Each key may appear at most once in the source (SQL MERGE's cardinality
    rule): a key that appears twice raises ValueError before anything is
    committed.  A null key raises ValueError naming the null count before
    any prune or task runs, and the staged source is dropped first.

    ``delete_col``: name of a boolean column on the source marking WHEN
    MATCHED THEN DELETE rows — matched target rows are deleted, the marker
    rows are never inserted, unmatched markers are no-ops.

    The job opens through ``lineage.open_job``.  Its fingerprint covers the
    touched fragment ids, computed from the staged source on every run, so a
    resume after a commit that rewrote a touched fragment raises ValueError
    instead of committing against inputs that changed."""
    import glob

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
    metas = [pq.read_metadata(p) for p in src_files]
    src_rows = sum(m.num_rows for m in metas)
    if not src_rows:  # empty source: nothing to do
        return table, {"job_id": job_id, "bins": 0, "rows": 0,
                       "updates": 0, "inserts": 0, "seconds": 0.0,
                       "touched_fragments": 0,
                       "untouched_fragments": len(table.fragments)}
    nulls = null_keys(metas, src_files)
    if nulls:  # a null key matches nothing and sorts against no key
        lineage.drop_payload(table.root, job_id)
        raise ValueError(f"MERGE source holds {nulls} null image_id key(s); "
                         "every key must be non-null")
    if src_rows > MAX_DRIVER_KEYS:
        # source keys won't fit on the driver → the probe runs in tasks
        touched_ids = prune_touched_distributed(table, src_files)
    else:
        src_keys = pa.concat_tables(
            pq.read_table(p, columns=["image_id"]) for p in src_files)["image_id"]
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
