"""Copy-on-write MERGE strategy: route the (small) source to the fragments it
touches instead of hash-shuffling the whole table.

The shuffle strategy (stages/merge.py step 2-3) moves EVERY touched-fragment
byte through the exchange twice (map partials out, reduce in) to co-locate
target and source rows.  But the target rows are already co-located — they
live in fragments.  At a realistic merge ratio (~10 % of rows change) the
data that actually needs to MOVE is the source, not the table.  This
strategy:

  1. **Route** (map-only over the staged source): every source row is tagged
     with the candidate fragments whose image_id range (+ key bloom) may
     contain it — one output row per (source row, candidate fragment); rows
     with no candidate go straight to the insert set.  Only SOURCE rows ever
     enter a shuffle.
  2. **Fragment rewrite** (one task per touched fragment, co-grouped by
     fragment id): the task reads ITS fragment directly from table storage,
     replaces matched rows with the source version, writes the new
     fragment(s), journals lineage, and records which source keys it
     consumed (a `matched/<fragment>.parquet` journal sidecar).  A fragment
     a clustering stamped with its key range (``cluster_range``,
     stages/clustering.py) stays in range: its rewrite keeps the rows whose
     cluster key is still inside the range, sorted and re-stamped, and
     writes the movers — updates whose new phash/w/h left the range — as a
     separate unstamped fragment, which the next re-cluster routes.
  3. **Insert pass**: source rows whose key was consumed by NO fragment
     (range/bloom candidates can be false positives) are anti-joined against
     the matched-key sidecars (a source-sized hash join, never a driver key
     set), hash-partitioned, deduped, and written as new fragments.

I/O balance at table bytes T, source bytes s ≈ 0.1 T: shuffle strategy moves
~4T through storage/object store (read T, partials out T, partials in T,
write T); copy-on-write moves ~2T + 3s (read T, write T, route + co-group +
anti-join of s).  On the bench box the single ~430 MB/s disk is the rewrite
jobs' scaling floor (BASELINE.md), so halving bytes-through-disk is the same
win a 4N-node store gets from 4× aggregate bandwidth.

Scale notes: the routing table broadcast is (min, max, bloom_bits) per
TOUCHED fragment — bounded by the merge's blast radius, not the table — plus
an elementary-segment interval index (build_interval_index) so each batch
routes in O(n log F + candidates) instead of scanning every touched fragment;
at millions of touched fragments the per-batch work stays proportional to the
keys' actual overlap, with a linear fallback only under pathological range
overlap (cap documented on the builder).  Duplicate source keys get a
single arbitrary winner (same contract as the shuffle strategy, whose
winner is concat-order-dependent); duplicate keys ACROSS table fragments
(which the verify gate forbids) would be updated in every fragment that
holds them rather than collapsed to one row.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions import bloom as bl
from ..state import lineage
from .clustering import STAMP, write_in_range
from .shuffle import PART_COL, assign_hash_part

FRAG_COL = "__fidx"   # int32 index into the sorted touched-fragment list
INSERT_KEY = -1       # routing tag for "no candidate fragment"


def _write_sidecar(root: str, job_id: str, kind: str, fragment_id: str,
                   tbl: pa.Table) -> None:
    """Idempotent journal sidecar ``<kind>/<fragment_id>.parquet`` (tmp +
    atomic rename): ``matched`` holds the source keys a fragment consumed,
    ``leftover`` its routed-but-unmatched source rows (full payload;
    bounded by the routing false-positive rate, not the source).  Both are
    job payload, deleted once the MERGE commits (``lineage.drop_payload``)."""
    import uuid

    from ..sources.fragments import column_compression

    d = os.path.join(lineage.journal_dir(root, job_id), kind)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{fragment_id}.parquet")
    if not os.path.exists(path):
        tmp = path + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:6]}"
        pq.write_table(tbl, tmp, compression=column_compression(tbl.schema))
        os.replace(tmp, path)


def _sidecars(root: str, job_id: str, kind: str) -> list[str]:
    return sorted(glob.glob(
        os.path.join(lineage.journal_dir(root, job_id), kind, "*.parquet")))


def build_interval_index(frags):
    """Elementary-segment interval index over the touched fragments' key
    ranges — the sub-linear routing structure the module's scale note calls
    for.  ``pts`` is the sorted distinct set of all fragment min/max bounds;
    segment ``j`` covers keys in ``[pts[j], pts[j+1])`` (the last segment is
    open-ended) and ``seg_lists[j]`` holds the fragment indices whose range
    intersects that segment.  A key routes via ONE binary search; segment
    membership over-approximates only within the segment that starts at a
    fragment's max bound, and the caller re-checks exact min/max on the
    candidate rows, so no false negatives and bounded false positives.

    Returns None (→ linear fallback) when no fragment has bounds or when
    heavy range overlap would blow the index up quadratically (cap: 64
    fragment entries per segment on average)."""
    bounded = [(i, f[2], f[3]) for i, f in enumerate(frags) if f[2] is not None]
    unbounded = [i for i, f in enumerate(frags) if f[2] is None]
    if not bounded:
        return None
    pts = np.array(sorted({b for _, mn, mx in bounded for b in (mn, mx)}),
                   dtype=object)
    seg_lists: list[list[int]] = [[] for _ in range(len(pts))]
    total = 0
    cap = 64 * len(bounded)
    for i, mn, mx in bounded:
        jm = int(np.searchsorted(pts, mn, side="right")) - 1
        jM = int(np.searchsorted(pts, mx, side="right")) - 1
        total += jM - jm + 1
        if total > cap:
            return None  # pathological overlap → linear scan is no worse
        for j in range(jm, jM + 1):
            seg_lists[j].append(i)
    return pts, seg_lists, unbounded


def candidate_rows(index, frags, keys_np: np.ndarray) -> dict[int, np.ndarray]:
    """fragment index → row indices of keys whose value lies inside that
    fragment's exact [min, max] range.  With an index the per-batch work is
    O(n log F + total candidates) — independent of the touched-fragment
    count F; without one it degrades to the linear per-fragment scan."""
    n = len(keys_np)
    out: dict[int, np.ndarray] = {}
    if index is None:
        for fidx, (_fid, _p, mn, mx, _b, _k) in enumerate(frags):
            if mn is None:
                out[fidx] = np.arange(n)
                continue
            m = (keys_np >= mn) & (keys_np <= mx)
            if m.any():
                out[fidx] = np.nonzero(m)[0]
        return out
    pts, seg_lists, unbounded = index
    for fidx in unbounded:
        out[fidx] = np.arange(n)
    seg = np.searchsorted(pts, keys_np, side="right") - 1
    uniq, inv = np.unique(seg, return_inverse=True)
    acc: dict[int, list] = {}
    for si, s in enumerate(uniq):
        if s < 0:
            continue  # key below every fragment's min
        rows = np.nonzero(inv == si)[0]
        for fidx in seg_lists[int(s)]:
            acc.setdefault(fidx, []).append(rows)
    for fidx, parts in acc.items():
        rows = np.concatenate(parts) if len(parts) > 1 else parts[0]
        mn, mx = frags[fidx][2], frags[fidx][3]
        k = keys_np[rows]
        rows = rows[(k >= mn) & (k <= mx)]
        if rows.size:
            rows.sort()
            out[fidx] = rows
    return out


def _routing_ref(table, touched):
    """Broadcast payload: per touched fragment (id, path, min, max, bloom)
    plus the interval index built ONCE here on the driver."""
    import ray

    frags = []
    for f in touched:
        st = f.stats.get("image_id") or {}
        bits = None
        k = bl.NUM_HASHES
        binfo = f.stats.get("__bloom")
        if binfo:
            try:
                bits, k = bl.read_sidecar(os.path.join(table.root, binfo["path"]))
            except (OSError, ValueError):
                bits = None  # corrupt/missing sidecar → range-only routing
        frags.append((f.fragment_id, f.path, st.get("min"), st.get("max"),
                      bits, k))
    return ray.put({"frags": frags, "index": build_interval_index(frags)})


def _route_batches(frags_ref, key_col: str = "image_id", *,
                   include_unclaimed: bool = False,
                   insert_parts: int = 1):
    """map_batches fn: one output row per (source row, candidate fragment),
    FRAG_COL = the fragment's index in the sorted touched list.  Key hashes
    are computed once per batch and sliced per fragment for the bloom
    probes.  With ``include_unclaimed``, rows with no candidate fragment
    (pure inserts) ride the same exchange under negative partition ids
    -1 .. -insert_parts (hash-salted so the insert write parallelizes)."""

    def route(batch: pa.Table) -> pa.Table:
        import ray as _r

        payload = _r.get(frags_ref)
        frags, index = payload["frags"], payload["index"]
        if "__side" in batch.column_names:
            batch = batch.drop_columns(["__side"])
        out_schema = batch.schema.append(pa.field(FRAG_COL, pa.int32()))
        if batch.num_rows == 0:
            return out_schema.empty_table()
        col = batch[key_col]
        n = batch.num_rows
        keys_np = np.asarray(col.to_pylist(), dtype=object)
        cands = candidate_rows(index, frags, keys_np)
        h1 = h2 = None
        claimed = np.zeros(n, bool)
        outs = []
        for fidx in sorted(cands):
            rows = cands[fidx]
            bits, k = frags[fidx][4], frags[fidx][5]
            if bits is not None and rows.size:
                if h1 is None:
                    h1, h2 = bl.key_hashes(keys_np)
                hit = bl.might_contain_hashes(bits, h1[rows], h2[rows], k)
                rows = rows[hit]
            if rows.size:
                mask = np.zeros(n, bool)
                mask[rows] = True
                sub = batch.filter(pa.array(mask))
                outs.append(sub.append_column(
                    FRAG_COL, pa.array([fidx] * sub.num_rows, pa.int32())))
                claimed |= mask
        if include_unclaimed:
            rest = batch.filter(pa.array(~claimed))
            if rest.num_rows:
                salted = assign_hash_part(rest, key_col, insert_parts)
                ids = -1 - salted[PART_COL].to_numpy()
                outs.append(rest.append_column(
                    FRAG_COL, pa.array(ids, pa.int32())))
        return (pa.concat_tables(outs).combine_chunks() if outs
                else out_schema.empty_table())

    return route


def _dedup_keep_one(tbl: pa.Table, key_col: str) -> pa.Table:
    """One winner per key (arbitrary, stable within this table's order —
    the shuffle strategy's contract for duplicate source keys)."""
    keys = tbl[key_col].to_pylist()
    last = {kv: i for i, kv in enumerate(keys)}
    if len(last) == tbl.num_rows:
        return tbl
    return tbl.take(pa.array(sorted(last.values())))


def cow_merge(table, src_files: list[str], touched, *, job_id: str,
              target_bytes: int, failpoint: int | None = None,
              num_insert_parts: int | None = None,
              delete_col: str | None = None,
              phases: dict | None = None) -> None:
    """Execute the copy-on-write merge; results land in the job's lineage
    journal (the caller aggregates records and commits, same as the shuffle
    strategy).  Idempotent/resumable per fragment and per insert partition.
    ``phases`` (optional dict) receives per-sub-phase seconds
    (route+rewrite / insert) for the caller's report."""
    import time as _time

    import ray
    import ray.data

    _t0 = _time.time()
    root = table.root
    touched = sorted(touched, key=lambda f: f.fragment_id)
    frags_ref = _routing_ref(table, touched)
    frag_ids = [f.fragment_id for f in touched]
    frag_paths = [f.path for f in touched]
    frag_stamps = [f.stats.get(STAMP) for f in touched]

    # p_ins must be STABLE across resume: cow-insert-NNNNN journal records
    # are keyed by hash partition (and the route itself salts by it), so
    # replaying under a different partition count would silently drop or
    # duplicate insert rows.  Persist it BEFORE routing.
    meta = lineage.load_job_meta(root, job_id) or {}
    if num_insert_parts is not None:
        p_ins = int(num_insert_parts)
    elif "p_ins" in meta:
        p_ins = int(meta["p_ins"])
    else:
        n_cpus = int(ray.cluster_resources().get("CPU", 8))
        p_ins = max(1, min(8, n_cpus // 2))
    if meta.get("p_ins") != p_ins:
        meta["p_ins"] = p_ins
        lineage.write_job_meta(root, job_id, meta)

    # ONE source read feeds the whole merge: claimed rows fan to their
    # candidate fragments, unclaimed rows (pure inserts) ride the same
    # exchange under salted negative parts — no second source scan anywhere
    routed = ray.data.read_parquet(src_files).map_batches(
        _route_batches(frags_ref, include_unclaimed=True,
                       insert_parts=p_ins),
        batch_format="pyarrow")

    def rewrite(group: pa.Table) -> None:
        fidx = group[FRAG_COL][0].as_py()
        fid = frag_ids[fidx]
        pid = f"cow-frag-{fid}"

        def kernel(write):
            if failpoint is not None and fidx >= failpoint:
                raise RuntimeError(f"failpoint: simulated crash at {pid}")
            src = _dedup_keep_one(group.drop_columns([FRAG_COL]), "image_id")
            deletes = 0
            if delete_col and delete_col in src.column_names:
                dmask = pc.fill_null(pc.cast(src[delete_col], pa.bool_()), False)
                dels = src.filter(dmask)
                src = src.filter(pc.invert(dmask)).drop_columns([delete_col])
            else:
                dels = None
            # single-threaded read: this runs one-task-per-CPU; arrow's
            # default parallel read thrashes when 16 tasks each fan 8 IO
            # threads
            tgt = pq.read_table(os.path.join(root, frag_paths[fidx]),
                                use_threads=False, memory_map=True)
            hit = pc.is_in(tgt["image_id"],
                           value_set=src["image_id"].combine_chunks())
            if dels is not None and dels.num_rows:
                hit_del = pc.is_in(tgt["image_id"],
                                   value_set=dels["image_id"].combine_chunks())
                deletes = int(pc.sum(hit_del).as_py() or 0)
                hit = pc.or_(hit, hit_del)
            # matched = source keys actually present in THIS fragment (upsert
            # AND delete matches — both are consumed, so the insert pass
            # skips them)
            matched = tgt.filter(hit)["image_id"]
            applied_mask = pc.is_in(src["image_id"],
                                    value_set=matched.combine_chunks())
            applied = src.filter(applied_mask)
            # concat without combine_chunks: concat is zero-copy (chunk-list
            # append); combining would memcpy the full payload a second time
            merged = pa.concat_tables([tgt.filter(pc.invert(hit)), applied])
            metas = write_in_range(write, merged, frag_stamps[fidx],
                                   target_bytes=target_bytes)
            _write_sidecar(root, job_id, "matched", fid,
                           pa.table({"image_id": matched}))
            # leftover = rows ROUTED here (range/bloom candidates) but
            # matching no target row: bloom false positives and rows whose
            # true match lives in another candidate fragment.  The insert
            # pass consumes them (anti-joined against ALL matched sidecars),
            # so no stage ever rescans the source.  Written BEFORE the
            # lineage record → a journaled fragment's leftovers always exist
            # on resume.
            leftover = src.filter(pc.invert(applied_mask))
            if leftover.num_rows:
                _write_sidecar(root, job_id, "leftover", fid, leftover)
            return metas, merged.num_rows, {
                "updates": int(applied.num_rows), "inserts": 0,
                "deletes": deletes}

        lineage.load_or_run(root, job_id, pid, kernel, frags_in=[fid])

    # One REAL task per touched fragment via the storage-partitioned shuffle
    # (a Dataset.groupby().map_groups over the tiny routed source collapses
    # all groups into one block → one serial task; fs map + reduce fans one
    # Ray task per partition regardless of input size).  Only SOURCE rows
    # move; each task side-reads its fragment directly from table storage.
    from .fs_shuffle import cleanup, drain, fs_reduce, fs_shuffle_map

    work = os.path.join(lineage.journal_dir(root, job_id), "cow-route")
    cleanup(work)
    try:
        manifest = fs_shuffle_map(routed, part_col=FRAG_COL, work_dir=work)
        if phases is not None:
            phases["cow_route_map"] = round(_time.time() - _t0, 3)
            _t0 = _time.time()
        fs_reduce({p: v for p, v in manifest.items() if p >= 0}, rewrite)
        if phases is not None:
            phases["cow_rewrite"] = round(_time.time() - _t0, 3)
            _t0 = _time.time()

        # ---- insert pass: unclaimed rows (negative parts of the SAME
        # exchange) plus each fragment's routed-but-unmatched leftovers,
        # anti-joined against the matched sidecars.  Every side here is
        # bounded by insert/update/false-positive counts — the source is
        # never rescanned and no Dataset groupby runs.
        matched_files = _sidecars(root, job_id, "matched")
        leftover_files = _sidecars(root, job_id, "leftover")
        n_frags = len(frag_ids)

        def write_inserts(group: pa.Table, *, part: int) -> None:
            pid = f"cow-insert-{part:05d}"

            def kernel(write):
                if failpoint is not None and n_frags + part >= failpoint:
                    raise RuntimeError(f"failpoint: simulated crash at {pid}")
                g = group.drop_columns([FRAG_COL])
                if delete_col and delete_col in g.column_names:
                    # WHEN MATCHED THEN DELETE markers never insert (an
                    # unmatched marker is a no-op) — strip BEFORE the
                    # leftover concat: leftover sidecars are written
                    # marker-stripped, so both sides must share the schema
                    dmask = pc.fill_null(pc.cast(g[delete_col], pa.bool_()),
                                         False)
                    g = g.filter(pc.invert(dmask)).drop_columns([delete_col])
                pieces = [g]
                # leftovers re-salt to THIS part's keys (files are FP-bounded
                # small; read by each insert task — p_ins × tiny)
                for f in leftover_files:
                    t = pq.read_table(f, use_threads=False)
                    if t.num_rows:
                        sp = assign_hash_part(t, "image_id", p_ins)
                        pieces.append(sp.filter(
                            pc.equal(sp[PART_COL], part)).drop_columns([PART_COL]))
                rows = pa.concat_tables(pieces).combine_chunks()
                if matched_files:
                    # matched keys = update count, bounded by the source —
                    # the sidecars are key-only parquet, read once per
                    # insert task
                    mk = pa.concat_tables(
                        [pq.read_table(f, use_threads=False)
                         for f in matched_files])["image_id"].combine_chunks()
                    rows = rows.filter(
                        pc.invert(pc.is_in(rows["image_id"], value_set=mk)))
                rows = _dedup_keep_one(rows, "image_id")
                return (write(rows, target_bytes=target_bytes), rows.num_rows,
                        {"updates": 0, "inserts": int(rows.num_rows)})

            lineage.load_or_run(root, job_id, pid, kernel, frags_in=["source"])

        # every insert partition runs even when the exchange routed it no
        # rows (leftovers alone can populate it) — and journaling each part
        # keeps resume exact.  An empty part takes the routed rows' schema
        # (the staged source's, minus __side, plus FRAG_COL) so it concats
        # with the leftovers, which keep the source's column order.
        routed_empty = pa.schema(
            [f for f in pq.read_schema(src_files[0]) if f.name != "__side"]
            + [pa.field(FRAG_COL, pa.int32())]).empty_table()

        from .fs_shuffle import read_partition

        @ray.remote(num_cpus=1)
        def insert_task(k: int, pieces):
            if pa.io_thread_count() > 1:
                pa.set_io_thread_count(1)
            group = read_partition(pieces) if pieces else routed_empty
            return write_inserts(group, part=k)

        ins_manifest = {p: v for p, v in manifest.items() if p < 0}
        drain([insert_task.remote(k, ins_manifest.get(-1 - k, []))
               for k in range(p_ins)])
    finally:
        cleanup(work)
    if phases is not None:
        phases["cow_insert"] = round(_time.time() - _t0, 3)
