"""MERGE INTO's one physical plan: copy-on-write over bins of the touched
fragments.  Only the source moves through an exchange; target rows are read
in place by the task that rewrites their fragments.

  1. **Bins** (``plan_bins``): the touched fragments (stages/merge.py prunes
     them) are packed the way compaction packs (``compaction.first_fit``: in
     Arrow bytes, up to ``target_fragment_bytes``).  A fragment a clustering
     stamped with its key range (``cluster_range``, stages/clustering.py) is
     a bin of its own, so its rewrite can stay in range.
  2. **Route** (map-only over the staged source): every source row is tagged
     with each bin holding a fragment whose image_id range (+ key bloom) may
     contain it — one output row per (source row, candidate bin).  A row no
     fragment claims is a pure insert: it is hash-salted by key into one of
     the unstamped bins, or into an insert partition when there is none.
  3. **Bin rewrite** (one task per bin): the task reads its fragments,
     replaces matched rows with the source version, adds its pure inserts,
     writes the result, and journals one record whose ``frags_in`` are all
     of the bin's fragments (the commit removes them).  It also records
     which source keys it consumed (a ``matched/`` journal sidecar).  A
     stamped bin keeps the rows whose cluster key is still inside its range,
     sorted and re-stamped, and writes the movers — updates whose new
     phash/w/h left the range — as a separate unstamped fragment, which the
     next re-cluster routes (``write_in_range``).
  4. **Insert pass**: the insert partitions' rows, plus the source rows a bin
     was routed but matched in none of its fragments (``leftover/``: range or
     bloom false positives, or keys whose match lives in another bin),
     anti-joined against the matched sidecars (a source-sized hash join,
     never a driver key set) and written as new fragments.

Output shape: a small upsert into a few small unstamped fragments writes one
file holding their rows, the updates and the inserts, not one file per
touched fragment plus insert files; parquet's dictionary encoding then also
folds payloads repeated across those rows.

I/O balance at touched bytes T and source bytes s: the plan moves ~2T + 3s
through storage (read T, write T; route, exchange and anti-join s), where a
hash co-group of both sides would move ~4T (read T, partials out T, partials
in T, write T).  On the bench box the single ~430 MB/s disk is the rewrite
jobs' scaling floor (BASELINE.md), so bytes through disk are the cost.

Scale notes: the routing table broadcast is (min, max, bloom_bits) per
TOUCHED fragment — bounded by the merge's blast radius, not the table — and
each batch routes through the same probe that pruned the touched set
(``merge.probe_keys``): the batch's n keys are sorted once, every touched
fragment's range is one slice of them, and only in-range keys meet a bloom,
so a batch costs O(n log n + F log n + candidates) over F touched
fragments.  A key may appear once in the source: every row of a key routes
to the same tasks, so each task's check (``_check_unique_keys``) is exact.
Duplicate keys ACROSS table fragments (which the verify gate forbids) would
be updated in every fragment that holds them rather than collapsed to one
row.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state import lineage
from .clustering import STAMP, write_in_range
from .compaction import first_fit
from .merge import probe_descriptors, probe_keys
from .shuffle import PART_COL, assign_hash_part

BIN_COL = "__bin"     # int32 bin index; negative = insert partition
INS_COL = "__ins"     # true for a pure insert (no fragment claims its key)


def _write_sidecar(root: str, job_id: str, kind: str, name: str,
                   tbl: pa.Table) -> None:
    """Idempotent journal sidecar ``<kind>/<name>.parquet`` (tmp + atomic
    rename): ``matched`` holds the source keys a bin consumed, ``leftover``
    its routed-but-unmatched source rows (full payload; bounded by the
    routing false-positive rate, not the source).  Both are job payload,
    deleted once the MERGE commits (``lineage.drop_payload``)."""
    import uuid

    from ..sources.fragments import column_compression

    d = os.path.join(lineage.journal_dir(root, job_id), kind)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{name}.parquet")
    if not os.path.exists(path):
        tmp = path + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:6]}"
        pq.write_table(tbl, tmp, compression=column_compression(tbl.schema))
        os.replace(tmp, path)


def _sidecars(root: str, job_id: str, kind: str) -> list[str]:
    return sorted(glob.glob(
        os.path.join(lineage.journal_dir(root, job_id), kind, "*.parquet")))


def plan_bins(touched, target_bytes: int) -> list[list]:
    """The rewrite bins: the unstamped touched fragments packed by
    ``first_fit``, then each stamped one alone.  Deterministic in the
    touched fragments and ``target_bytes``, which the job fingerprints."""
    touched = sorted(touched, key=lambda f: f.fragment_id)
    return (first_fit([f for f in touched if STAMP not in f.stats],
                      target_bytes)
            + [[f] for f in touched if STAMP in f.stats])


def _routing_ref(table, bins):
    """Broadcast payload: a ``probe_keys`` descriptor per touched fragment
    and its bin, and the unstamped bins that take pure inserts."""
    import ray

    open_bins = [b for b, members in enumerate(bins)
                 if STAMP not in members[0].stats]
    return ray.put({
        "frags": probe_descriptors([f for members in bins for f in members],
                                   table.root),
        "bin_of": [b for b, members in enumerate(bins) for _ in members],
        "open_bins": open_bins})


def _tag(tbl: pa.Table, bin_ids: np.ndarray, insert: bool) -> pa.Table:
    return (tbl.append_column(BIN_COL, pa.array(bin_ids, pa.int32()))
               .append_column(INS_COL, pa.array(np.full(tbl.num_rows, insert))))


def _route_batches(payload_ref, insert_parts: int, key_col: str = "image_id"):
    """map_batches fn: one output row per (source row, candidate bin), with
    BIN_COL the bin's index; the candidates come from ``probe_keys`` over
    the batch's keys.  A row no fragment claims goes out once with INS_COL
    set, hash-salted by key into an unstamped bin, or into insert partition
    -1 .. -insert_parts when there is none."""

    def route(batch: pa.Table) -> pa.Table:
        import ray as _r

        payload = _r.get(payload_ref)
        frags, bin_of, open_bins = (payload["frags"], payload["bin_of"],
                                    payload["open_bins"])
        out_schema = (batch.schema.append(pa.field(BIN_COL, pa.int32()))
                      .append(pa.field(INS_COL, pa.bool_())))
        if batch.num_rows == 0:
            return out_schema.empty_table()
        n = batch.num_rows
        by_bin: dict[int, np.ndarray] = {}
        for fidx, rows in probe_keys(frags, batch[key_col].to_pylist()):
            by_bin.setdefault(bin_of[fidx], np.zeros(n, bool))[rows] = True
        claimed = np.zeros(n, bool)
        outs = []
        for b, mask in sorted(by_bin.items()):
            claimed |= mask
            outs.append(_tag(batch.filter(pa.array(mask)),
                             np.full(int(mask.sum()), b), False))
        rest = batch.filter(pa.array(~claimed))
        if rest.num_rows:
            salt = assign_hash_part(rest, key_col, len(open_bins) or insert_parts
                                    )[PART_COL].to_numpy()
            ids = np.asarray(open_bins)[salt] if open_bins else -1 - salt
            outs.append(_tag(rest, ids, True))
        return (pa.concat_tables(outs).combine_chunks() if outs
                else out_schema.empty_table())

    return route


def _check_unique_keys(tbl: pa.Table, key_col: str = "image_id") -> None:
    """Raise ValueError when a key appears in ``tbl`` twice (SQL MERGE's
    cardinality rule: at most one source row per key)."""
    counts = pc.value_counts(tbl[key_col])
    dup = counts.filter(pc.greater(counts.field("counts"), 1))
    if len(dup):
        raise ValueError(
            f"MERGE source holds key {dup[0]['values'].as_py()!r} "
            f"{dup[0]['counts'].as_py()} times; each key may appear once")


def _strip_markers(tbl: pa.Table, delete_col: str | None):
    """(rows that are not WHEN MATCHED THEN DELETE markers, without the
    marker column; the markers' keys, or None without ``delete_col``)."""
    if not delete_col or delete_col not in tbl.column_names:
        return tbl, None
    dmask = pc.fill_null(pc.cast(tbl[delete_col], pa.bool_()), False)
    return (tbl.filter(pc.invert(dmask)).drop_columns([delete_col]),
            tbl.filter(dmask)["image_id"].combine_chunks())


def cow_merge(table, src_files: list[str], touched, *, job_id: str,
              target_bytes: int, failpoint: int | None = None,
              delete_col: str | None = None,
              phases: dict | None = None) -> None:
    """Execute the merge; results land in the job's lineage journal (the
    caller aggregates the records and commits).  Idempotent/resumable per
    bin and per insert partition.  ``phases`` (optional dict) receives
    per-sub-phase seconds (route / rewrite / insert) for the caller's
    report."""
    import time as _time

    import ray

    from ..sources.fragments import read_files

    _t0 = _time.time()
    root = table.root
    bins = plan_bins(touched, target_bytes)
    payload_ref = _routing_ref(table, bins)

    # p_ins must be STABLE across resume: cow-insert-NNNNN journal records
    # are keyed by hash partition (and the route itself salts by it), so
    # replaying under a different partition count would silently drop or
    # duplicate insert rows.  Persist it BEFORE routing.
    meta = lineage.load_job_meta(root, job_id) or {}
    if "p_ins" not in meta:
        n_cpus = int(ray.cluster_resources().get("CPU", 8))
        meta["p_ins"] = max(1, min(8, n_cpus // 2))
        lineage.write_job_meta(root, job_id, meta)
    p_ins = int(meta["p_ins"])

    # ONE source read feeds the whole merge: claimed rows fan to their
    # candidate bins, pure inserts ride the same exchange — no second
    # source scan anywhere
    routed = read_files(src_files).map_batches(
        _route_batches(payload_ref, p_ins), batch_format="pyarrow")

    def rewrite(group: pa.Table) -> None:
        b = group[BIN_COL][0].as_py()
        pid = f"cow-bin-{b:05d}"
        members = bins[b]

        def kernel(write):
            if failpoint is not None and b >= failpoint:
                raise RuntimeError(f"failpoint: simulated crash at {pid}")
            _check_unique_keys(group)
            ins = group[INS_COL].to_numpy(zero_copy_only=False)
            g = group.drop_columns([BIN_COL, INS_COL])
            src, dels = _strip_markers(g.filter(pa.array(~ins)), delete_col)
            new, _ = _strip_markers(g.filter(pa.array(ins)), delete_col)
            # single-threaded reads: this runs one-task-per-CPU; arrow's
            # default parallel read thrashes when 16 tasks each fan 8 IO
            # threads
            tgt = pa.concat_tables([
                pq.read_table(os.path.join(root, f.path), use_threads=False,
                              memory_map=True) for f in members])
            hit = pc.is_in(tgt["image_id"],
                           value_set=src["image_id"].combine_chunks())
            deletes = 0
            if dels is not None and len(dels):
                hit_del = pc.is_in(tgt["image_id"], value_set=dels)
                deletes = int(pc.sum(hit_del).as_py() or 0)
                hit = pc.or_(hit, hit_del)
            # matched = source keys actually present in THIS bin (upsert
            # AND delete matches — both are consumed, so the insert pass
            # skips them)
            matched = tgt.filter(hit)["image_id"]
            applied_mask = pc.is_in(src["image_id"],
                                    value_set=matched.combine_chunks())
            applied = src.filter(applied_mask)
            # concat without combine_chunks: concat is zero-copy (chunk-list
            # append); combining would memcpy the full payload a second time
            merged = pa.concat_tables([tgt.filter(pc.invert(hit)), applied, new])
            # a stamped bin is one fragment; an unstamped bin's first
            # member carries no stamp
            metas = write_in_range(write, merged, members[0].stats.get(STAMP),
                                   target_bytes=target_bytes)
            _write_sidecar(root, job_id, "matched", pid,
                           pa.table({"image_id": matched}))
            # leftover = rows ROUTED here (range/bloom candidates) but
            # matching no target row: bloom false positives and rows whose
            # true match lives in another bin.  The insert pass consumes
            # them (anti-joined against ALL matched sidecars), so no stage
            # ever rescans the source.  Written BEFORE the lineage record →
            # a journaled bin's leftovers always exist on resume.
            leftover = src.filter(pc.invert(applied_mask))
            if leftover.num_rows:
                _write_sidecar(root, job_id, "leftover", pid, leftover)
            return metas, merged.num_rows, {
                "updates": int(applied.num_rows),
                "inserts": int(new.num_rows), "deletes": deletes}

        lineage.load_or_run(root, job_id, pid, kernel,
                            frags_in=[f.fragment_id for f in members])

    # One REAL task per bin via the storage-partitioned shuffle (a
    # Dataset.groupby().map_groups over the tiny routed source collapses
    # all groups into one block → one serial task; fs map + reduce fans one
    # Ray task per partition regardless of input size).  Only SOURCE rows
    # move; each task side-reads its fragments directly from table storage.
    from .fs_shuffle import (cleanup, fan_out, fs_reduce, fs_shuffle_map,
                             read_partition)

    work = os.path.join(lineage.journal_dir(root, job_id), "cow-route")
    cleanup(work)
    try:
        manifest = fs_shuffle_map(routed, part_col=BIN_COL, work_dir=work)
        if phases is not None:
            phases["cow_route_map"] = round(_time.time() - _t0, 3)
            _t0 = _time.time()
        fs_reduce({p: v for p, v in manifest.items() if p >= 0}, rewrite)
        if phases is not None:
            phases["cow_rewrite"] = round(_time.time() - _t0, 3)
            _t0 = _time.time()

        # ---- insert pass: the insert partitions (negative parts of the
        # SAME exchange) plus each bin's routed-but-unmatched leftovers,
        # anti-joined against the matched sidecars.  Every side here is
        # bounded by insert/update/false-positive counts — the source is
        # never rescanned and no Dataset groupby runs.
        matched_files = _sidecars(root, job_id, "matched")
        leftover_files = _sidecars(root, job_id, "leftover")

        def write_inserts(group: pa.Table, *, part: int) -> None:
            pid = f"cow-insert-{part:05d}"

            def kernel(write):
                if failpoint is not None and len(bins) + part >= failpoint:
                    raise RuntimeError(f"failpoint: simulated crash at {pid}")
                # unmatched delete markers never insert (a no-op) — strip
                # them BEFORE the leftover concat: leftover sidecars are
                # written marker-stripped, so both sides share the schema
                _check_unique_keys(group)
                g, _ = _strip_markers(group.drop_columns([BIN_COL, INS_COL]),
                                      delete_col)
                pieces = [g]
                # leftovers re-salt to THIS part's keys (files are FP-bounded
                # small; read by each insert task — p_ins × tiny)
                left = []
                for f in leftover_files:
                    t = assign_hash_part(pq.read_table(f, use_threads=False),
                                         "image_id", p_ins)
                    left.append(t.filter(pc.equal(t[PART_COL], part))
                                 .drop_columns([PART_COL]))
                if left:
                    # a row routed to several bins that matched in none is
                    # a leftover of each of them: keep one copy
                    lt = pa.concat_tables(left)
                    _, first = np.unique(np.asarray(
                        lt["image_id"].to_pylist(), dtype=object),
                        return_index=True)
                    pieces.append(lt.take(pa.array(np.sort(first))))
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
                return (write(rows, target_bytes=target_bytes), rows.num_rows,
                        {"updates": 0, "inserts": int(rows.num_rows)})

            lineage.load_or_run(root, job_id, pid, kernel, frags_in=["source"])

        # An empty insert partition takes the routed rows' schema (the staged
        # source's plus BIN_COL and INS_COL) so it concats with the
        # leftovers, which keep the source's column order.
        routed_empty = (pq.read_schema(src_files[0])
                        .append(pa.field(BIN_COL, pa.int32()))
                        .append(pa.field(INS_COL, pa.bool_()))).empty_table()

        def insert_task(k: int, pieces):
            group = read_partition(pieces) if pieces else routed_empty
            return write_inserts(group, part=k)

        # the pass runs when the exchange routed rows to an insert partition
        # or a bin left leftovers — both are fixed once every bin is
        # journaled, so a resume decides the same.  Then every insert
        # partition runs, even one the exchange routed no rows (leftovers
        # alone can populate it), and journaling each keeps resume exact.
        ins_manifest = {p: v for p, v in manifest.items() if p < 0}
        if ins_manifest or leftover_files:
            fan_out(insert_task, [(k, ins_manifest.get(-1 - k, []))
                                  for k in range(p_ins)])
    finally:
        cleanup(work)
    if phases is not None:
        phases["cow_insert"] = round(_time.time() - _t0, 3)
