"""MERGE INTO: hash-partitioned shuffle upsert of a source dataset into the
table on ``image_id`` — matched rows are replaced by the source version,
unmatched source rows are inserted, and only touched fragments are rewritten.

The reference has no MERGE; its closest machinery is append loaders +
overwrite refresh + staged commit (SURVEY.md §2.4 J-row "MERGE INTO":
`ingest/proper_iceberg_loader.py:71-74`, `ops/materialized_views.py:288-290`,
`ops/commit_staged_files.py:47-88`).  This implements the north_star target
semantics.

Physical shape (SURVEY.md §7 step 7):
  1. **Touched-fragment pruning** — the source's image_id key set is tested
     against each fragment's manifest min/max image_id stats; fragments whose
     range contains no source key pass through the commit UNREAD.  (At 10^12
     rows the same check runs on per-fragment key bloom filters; min/max is the
     stats we maintain today and is exact for range-disjoint fragments.)
  2. **One shuffle** — touched-target rows and source rows are tagged
     (__side 0/1), hash-partitioned on image_id (vectorized, P from data size
     + A16 heuristic) and co-grouped through the storage-partitioned exchange
     (stages/fs_shuffle.py), one reduce task per partition.  This is the
     hash co-group plan; ``choose_merge_plan`` picks it or the copy-on-write
     plan (stages/merge_cow.py) per job by byte math.
  3. **Per-partition upsert** — within a partition a vectorized Arrow
     anti-join keeps target rows whose key has no source row, then appends all
     source rows (update-wins; source-internal dups resolved keep-last).
     Each partition runs the journal protocol (state/lineage.py).

Skew note (north_rule): image_id is unique, so hash partitions are uniform —
the phash hot keys do NOT concentrate here (they hit the clustering job's
range partitioner, which salts; SURVEY.md §7 hard part (d): never split a join
key).  The pre-shuffle histogram check below still guards against pathological
sources (e.g. a source that repeats one image_id millions of times): oversized
partitions raise the partition count before the shuffle runs.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state import lineage
from .shuffle import (
    PART_COL,
    assign_hash_part,
    choose_num_partitions,
    partition_histogram,
    skew_ratio,
)

SIDE_COL = "__side"


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
                bits, k = bl.read_sidecar(os.path.join(root, binfo["path"]))
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
    import ray.data

    from ..functions import bloom as bl

    blooms, touched = {}, set()
    for f in table.fragments:
        st = f.stats.get("image_id") or {}
        binfo = f.stats.get("__bloom")
        if not binfo:
            touched.add(f.fragment_id)
            continue
        try:
            bits, k = bl.read_sidecar(os.path.join(table.root, binfo["path"]))
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

    ds = ray.data.read_parquet(src_files, columns=["image_id"])
    hit_ds = ds.map_batches(probe, batch_format="pyarrow", batch_size=batch_size)
    for b in hit_ds.iter_batches(batch_format="pyarrow"):
        touched.update(b["fragment_id"].to_pylist())
    return sorted(touched)


def _merge_partition(group: pa.Table, *, root, job_id, target_bytes,
                     key_col: str = "image_id", failpoint=None,
                     delete_col: str | None = None) -> None:
    """Reduce upsert (one plain Ray task): one group = one hash partition of
    both sides; vectorized anti-join keeps unmatched target rows, source rows
    win.  With ``delete_col`` set, source rows flagged true are WHEN MATCHED
    THEN DELETE markers: matched target rows are dropped and the marker row
    is never inserted (an unmatched marker is a no-op).  One partition of
    the journal protocol (state/lineage.py)."""
    part = group[PART_COL][0].as_py()
    pid = f"part-{part:05d}"

    def kernel(write):
        if failpoint is not None and part >= failpoint:
            raise RuntimeError(f"failpoint: simulated crash at {pid}")
        side = group[SIDE_COL].to_numpy()
        tgt = group.filter(pa.array(side == 0))
        src = group.filter(pa.array(side == 1))
        deletes = 0
        if src.num_rows:
            # source-internal dups: keep the LAST occurrence per key (a key
            # that appears as both upsert and delete marker resolves to the
            # last row)
            sk = src[key_col].to_pylist()
            last = {k: i for i, k in enumerate(sk)}
            if len(last) != src.num_rows:
                src = src.take(pa.array(sorted(last.values())))
            if delete_col and delete_col in src.column_names:
                dmask = pc.fill_null(pc.cast(src[delete_col], pa.bool_()), False)
                del_keys = src.filter(dmask)[key_col].combine_chunks()
                src = src.filter(pc.invert(dmask))
                if len(del_keys):
                    hit_del = pc.is_in(tgt[key_col], value_set=del_keys)
                    deletes = int(pc.sum(hit_del).as_py() or 0)
                    tgt = tgt.filter(pc.invert(hit_del))
            # anti-join: target rows whose key is absent from source survive
            keep = pc.invert(pc.is_in(tgt[key_col], value_set=src[key_col]))
            merged = pa.concat_tables([tgt.filter(keep), src]).combine_chunks()
        else:
            merged = tgt
        drop = [SIDE_COL, PART_COL]
        if delete_col and delete_col in merged.column_names:
            drop.append(delete_col)
        merged = merged.drop_columns(drop)
        return (write(merged, target_bytes=target_bytes), merged.num_rows,
                {"updates": int(tgt.num_rows - (merged.num_rows - src.num_rows)),
                 "inserts": int(merged.num_rows - tgt.num_rows),
                 "deletes": deletes})

    lineage.load_or_run(root, job_id, pid, kernel, frags_in=[f"part:{part}"])


def choose_merge_plan(src_bytes: int, touched_bytes: int) -> str:
    """Cost-based MERGE physical plan: copy-on-write moves ~2T + 3s bytes
    through storage vs the hash co-group's ~4T (stages/merge_cow.py module
    docstring), so "cow" wins when 3*src < 2*touched, else "shuffle" (the
    hash co-group).  Measured both ways: cow is faster at the 20k and 160k
    bench tiers, while the co-group writes ~2 % less on small upserts into
    few touched bytes (the perfbench ``ingest`` workload)."""
    return "cow" if 3 * src_bytes < 2 * touched_bytes else "shuffle"


def _journaled_plan(root: str, job_id: str) -> str | None:
    """Plan of a job whose meta has no ``plan`` key (it was journaled while
    the plan was forced from outside), read from its record prefixes: cow
    writes ``cow-*`` records, the co-group ``part-*``.  None when nothing
    was journaled yet."""
    pids = lineage.load_records(root, job_id)
    if any(p.startswith("cow-") for p in pids):
        return "cow"
    if any(p.startswith("part-") for p in pids):
        return "shuffle"
    return None


def run_merge(table, source_ds, *, job_id: str | None = None,
              num_partitions: int | None = None, failpoint: int | None = None,
              max_driver_keys: int = 5_000_000,
              delete_col: str | None = None):
    """MERGE source_ds INTO table ON image_id; returns (new_table, report).

    ``delete_col``: name of a boolean column on the source marking WHEN
    MATCHED THEN DELETE rows — matched target rows are deleted, the marker
    rows are never inserted, unmatched markers are no-ops.  Honored by both
    physical plans.

    The plan (``choose_merge_plan``) is persisted in the job meta, so a
    resume never flips plans over a half-written journal."""
    import glob

    import pyarrow.parquet as pq

    import ray.data

    cfg = table.config
    job_id = job_id or lineage.default_job_id("merge", table)
    t0 = time.time()
    ph = {}  # per-phase seconds (stage_source / plan / shuffle / commit)
    subph = {}  # cow sub-phases (inside 'shuffle'); reported separately

    # STAGE THE SOURCE: run the source pipeline exactly once, writing it as
    # parquet (tagged __side=1) into the job's journal area.  Both sides then
    # enter ONE read_parquet — target fragments lack __side and are null-filled
    # by the read schema — so there is no Dataset.union (Ray's union operator
    # serializes poorly and tripled the shuffle cost when measured) and no
    # second execution of the source pipeline for key collection.
    src_dir = os.path.join(lineage.journal_dir(table.root, job_id), "source")
    marker = os.path.join(src_dir, "_SUCCESS")
    if not os.path.exists(marker):  # resume reuses the staged source
        # a crash mid-write leaves partial parquet without the marker; clear
        # them so the re-run's glob can't pick up two copies of any row.
        for stale in glob.glob(os.path.join(src_dir, "*.parquet")):
            os.remove(stale)

        def tag_src(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                SIDE_COL, pa.array(np.full(batch.num_rows, 1, np.int8))
            )

        from ..sources.fragments import column_compression

        stage_schema = table.schema.append(pa.field(SIDE_COL, pa.int8()))
        if delete_col:
            stage_schema = stage_schema.append(pa.field(delete_col, pa.bool_()))
        source_ds.map_batches(tag_src, batch_format="pyarrow").write_parquet(
            src_dir, compression=column_compression(stage_schema))
        with open(marker, "w") as f:
            f.write("ok")
    src_files = sorted(
        p for p in glob.glob(os.path.join(src_dir, "*.parquet"))
    )
    ph["stage_source"] = round(time.time() - t0, 3)

    meta = lineage.load_job_meta(table.root, job_id)
    if meta is None:
        # source key set for fragment pruning from the staged files (columnar,
        # keys only — at 10^12 rows swap for per-fragment blooms; docstring)
        src_rows = sum(pq.ParquetFile(p).metadata.num_rows for p in src_files)
        if src_rows > max_driver_keys:
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
            touched_ids = [f.fragment_id for f in touched]
        touched_bytes = sum(f.bytes for f in table.fragments if f.fragment_id in set(touched_ids))
        P = num_partitions or choose_num_partitions(
            touched_bytes, cfg.target_fragment_bytes, num_fragments=len(touched_ids)
        )
        # guard against pathological key skew in the source (module docstring)
        if src_rows > 1_000_000:
            hist = partition_histogram(
                ray.data.read_parquet(src_files, columns=["image_id"]), "image_id", P
            )
            if skew_ratio(hist) > cfg.skew_alarm_ratio:
                P *= 2
        meta = {"touched": touched_ids, "num_parts": P,
                "source_rows": int(src_rows), "base_version": table.version}
        lineage.write_job_meta(table.root, job_id, meta)
    ph["plan"] = round(time.time() - t0 - sum(ph.values()), 3)
    touched_set = set(meta["touched"])
    P = meta["num_parts"]
    touched = [f for f in table.fragments if f.fragment_id in touched_set]

    both_paths = table.fragment_paths(touched) + src_files
    if not both_paths:  # empty source on empty/unmatched table: nothing to do
        return table, {"job_id": job_id, "partitions": P, "rows": 0,
                       "updates": 0, "inserts": 0, "seconds": 0.0,
                       "touched_fragments": 0,
                       "untouched_fragments": len(table.fragments)}
    merge_mode = meta.get("plan")
    if merge_mode is None:
        merge_mode = (_journaled_plan(table.root, job_id)
                      or choose_merge_plan(
                          sum(os.path.getsize(p) for p in src_files),
                          sum(f.bytes for f in touched)))
        meta["plan"] = merge_mode
        lineage.write_job_meta(table.root, job_id, meta)
    if merge_mode == "cow":
        # copy-on-write: only SOURCE rows shuffle; fragments are rewritten in
        # place by per-fragment tasks (stages/merge_cow.py — halves the bytes
        # through storage vs the hash co-group on the touched set)
        from .merge_cow import cow_merge

        cow_merge(table, src_files, touched, job_id=job_id,
                  target_bytes=cfg.target_fragment_bytes, failpoint=failpoint,
                  delete_col=delete_col, phases=subph)
    else:
        # hash co-group through the storage-partitioned exchange; completed
        # partitions short-circuit via their lineage records inside
        # _merge_partition
        from .fs_shuffle import cleanup, fs_shuffle_groups

        read_schema = table.schema.append(pa.field(SIDE_COL, pa.int8()))
        if delete_col:
            # target fragments lack the marker column → null-filled (= keep)
            read_schema = read_schema.append(pa.field(delete_col, pa.bool_()))
        nblocks = max(P, 2 * int(ray.cluster_resources().get("CPU", 8)))
        ds = ray.data.read_parquet(both_paths, schema=read_schema,
                                   override_num_blocks=nblocks)

        def assign(batch: pa.Table) -> pa.Table:
            side = pc.fill_null(batch[SIDE_COL], 0)  # null = target fragment row
            i = batch.schema.get_field_index(SIDE_COL)
            batch = batch.set_column(i, SIDE_COL, pc.cast(side, pa.int8()))
            return assign_hash_part(batch, "image_id", P)

        work = os.path.join(lineage.journal_dir(table.root, job_id), "shuffle")
        cleanup(work)
        try:
            fs_shuffle_groups(
                ds.map_batches(assign, batch_format="pyarrow"),
                part_col=PART_COL, work_dir=work, reduce_fn=_merge_partition,
                fn_kwargs=dict(root=table.root, job_id=job_id,
                               target_bytes=cfg.target_fragment_bytes,
                               failpoint=failpoint, delete_col=delete_col))
        finally:
            cleanup(work)
    ph["shuffle"] = round(time.time() - t0 - sum(ph.values()), 3)
    records = lineage.load_records(table.root, job_id)
    if merge_mode == "cow":
        # only fragments ACTUALLY rewritten leave the manifest: a fragment
        # planned as touched but receiving no routed source rows (possible
        # only if planning and routing filters ever disagree) passes through
        # unchanged instead of being dropped with no replacement
        touched_set = {rec.frags_in[0] for rec in records.values()
                       if rec.partition_id.startswith("cow-frag-")}
    by_id = {m.fragment_id: m for rec in records.values() for m in rec.out_metas()}
    add = list(by_id.values())
    rows = sum(rec.rows for rec in records.values())
    updates = sum(rec.extra.get("updates", 0) for rec in records.values())
    inserts = sum(rec.extra.get("inserts", 0) for rec in records.values())
    deletes = sum(rec.extra.get("deletes", 0) for rec in records.values())
    elapsed = time.time() - t0
    new_table = table.commit(
        operation="merge",
        add=add,
        remove_ids=touched_set,
        summary={"job_id": job_id, "partitions": P, "touched_fragments": len(touched_set),
                 "untouched_fragments": len(table.fragments) - len(touched_set),
                 "rows": rows, "updates": updates, "inserts": inserts,
                 "deletes": deletes, "seconds": round(elapsed, 3)},
    )
    ph["commit"] = round(time.time() - t0 - sum(ph.values()), 3)
    report = dict(new_table.manifest.summary)
    report["rows_per_sec"] = round(rows / elapsed, 1) if elapsed > 0 else None
    report["phase_seconds"] = {**ph, **subph}
    return new_table, report
