"""Space-filling-curve clustering: rewrite the table in Z-order (Morton) or
Hilbert order of the (phash, w, h) key tuple.

The reference's clustering is declarative sort metadata — "Optimal
clustering: (type, time, id)" (`ops/advanced_partitioning.py:167-176`) and DDL
sort orders (`ingest/production_bootstrap.py:219-242`) that nothing physically
applies.  This job applies it: after clustering, each fragment covers a tight
cluster-key range, recorded in manifest stats (`cluster_key`, plus tighter
phash/w/h min-max) → predicate pruning becomes effective (the whole point of
the manifest rewrite).

Physical shape (SURVEY.md §7 step 5) — ONE all-to-all exchange:
  1. plan the ranges (below) → P-1 salted-key boundaries, persisted in the
     job meta and fingerprinted, so a RESUMED run reuses the same ranges;
  2. map tasks (``fs_shuffle.fs_shuffle_map``: one ``fan_out`` task per
     read block — maintenance starts tasks only through ``fan_out``):
     vectorized key kernel (functions/zorder.py) + searchsorted range
     assignment.  Hot keys — the injected 10 % hot-phash skew —
     share one cluster key, so ranges are cut on a SALTED key
     (48-bit key ‖ 16-bit image_id hash): identical keys spread over
     ranges without disturbing the order of distinct keys (north_rule
     skew handling);
  3. storage-partitioned exchange (stages/fs_shuffle.py), one reduce task
     per range — one partition of the journal protocol (state/lineage.py):
     sort by salted key, write one stamped run.

The stamp.  Every fragment a reduce writes carries, besides ``cluster_key``,
a ``cluster_range`` stat: the order, ``zorder.KEY_VERSION``, the inclusive
salted-key bounds ``lo``/``hi`` of its range, and whether it is the range's
``base`` or ``delta`` run.  The table's layout thus lives in fragment stats,
with no manifest format change.  Every row-level rewrite — cow MERGE,
DELETE and UPDATE — keeps it honest (``write_in_range``): a stamped fragment
it rewrites keeps only the rows still inside its range, re-sorted and
re-stamped; the movers (updates whose key left the range) go out as a
separate unstamped fragment.

Two paths:
  * **full** — sample salted keys → fresh boundaries, read every fragment,
    write every range as a base run, remove every fragment.  It runs for a
    table without stamps of the requested order and key version, with an
    explicit ``num_partitions``, or when unstamped bytes pass
    UNPLACED_SHARE of the table.  The fingerprint covers every fragment id,
    so a resume after any other commit raises.
  * **incremental** (DISC, ICDE 2021: re-stride only the region an update
    touched) — the ranges come from the stamps (``incremental_plan``); only
    the unstamped fragments' rows are read and routed.  Each range that
    receives rows writes them with its old delta run as one new delta run,
    or — once that passes DELTA_SHARE of the base run's bytes — folds base,
    delta and routed rows into a new base run, so a range never holds more
    than one base and one delta run.  The commit removes only what the job
    read; the fingerprint covers the input fragment ids and the ranges, so
    a resume after any other commit raises.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import hash_strings
from ..functions.zorder import KEY_VERSION, hilbert_key, salted_key, zorder_key
from ..state import lineage
from .shuffle import choose_num_partitions

SKEY_COL = "__skey"
PART_COL = "__part"
KEY_MAX = (1 << 64) - 1  # largest salted key
STAMP = "cluster_range"  # the fragment stat that places a fragment in a range
# A range's delta run is folded into a new base run once it would hold more
# than this share of the base run's bytes (LSM-style tiering: every range
# holds at most one base run and one delta run).
DELTA_SHARE = 0.5
# The incremental path runs only while unstamped bytes are at most this share
# of the table; past it the full path re-samples the ranges.
UNPLACED_SHARE = 0.5


def cluster_key_batch(batch: pa.Table, order: str) -> np.ndarray:
    ph = batch["phash"].to_numpy(zero_copy_only=False)
    w = batch["w"].to_numpy(zero_copy_only=False)
    h = batch["h"].to_numpy(zero_copy_only=False)
    if order == "zorder":
        return zorder_key(ph, w, h)
    if order == "hilbert":
        return hilbert_key(ph, w, h)
    raise ValueError(f"unknown cluster order {order!r}")


def _salted(batch: pa.Table, order: str) -> np.ndarray:
    key = cluster_key_batch(batch, order)
    salt = hash_strings(batch["image_id"].to_pylist(), seed=7)
    return salted_key(key, salt)


def _content_key(f) -> str:
    """A fragment's identity by content, not by file name (appends get
    random names): its ``image_id`` range and row count."""
    st = f.stats.get("image_id") or {}
    return f"{st.get('min')}|{st.get('max')}|{f.rows}"


def sample_boundaries(table, order: str, num_parts: int, sample_frac: float = None) -> list[int]:
    """Deterministic boundary estimation: sample salted keys, take evenly
    spaced quantiles.  Only the (phash, w, h, image_id) columns are read —
    never the image payload — and when a small row fraction suffices, only
    a stratified subset of FRAGMENTS is opened at all (every k-th in content
    order: cheap, unbiased enough for range boundaries; persisted to the job
    journal so resume never depends on re-sampling).  Fragments are ordered,
    and their row samples seeded, by ``_content_key``, so the same rows give
    the same boundaries whatever the files are called."""
    total = table.manifest.total_rows
    if total == 0 or not table.fragments or num_parts <= 1:
        return []
    target_sample = min(max(20 * num_parts, 2000), 200_000)
    frac = sample_frac if sample_frac is not None else min(1.0, target_sample / max(1, total))
    frags = sorted(table.fragments, key=_content_key)
    if frac < 0.25 and len(frags) >= 8:
        step = max(1, int(0.25 / max(frac, 1e-9)))
        subset = frags[:: min(step, max(1, len(frags) // 4))]
        frac = min(1.0, target_sample / max(1, sum(f.rows for f in subset)))
    else:
        subset = frags
    # Plain tasks (``fan_out``) instead of a Dataset: the sample is tiny
    # (<= 200k key rows) and the streaming executor's planning/startup was
    # the cluster job's dominant FIXED cost (~0.3-0.5 s), which caps its
    # measured scaling efficiency.  Deterministic per fragment content.
    import zlib

    import ray

    from .fs_shuffle import fan_out

    def sample_keys(items: list[tuple[str, str]]) -> np.ndarray:
        out = []
        for p, ckey in items:
            t = pq.read_table(p, columns=["phash", "w", "h", "image_id"],
                              use_threads=False)
            if frac < 1.0 and t.num_rows > 1:
                rng = np.random.default_rng(42 ^ zlib.crc32(ckey.encode()))
                take = max(1, int(t.num_rows * frac))
                t = t.take(np.sort(rng.choice(t.num_rows, take, replace=False)))
            if t.num_rows:
                out.append(_salted(t, order))
        return (np.concatenate(out) if out
                else np.empty(0, np.uint64))

    items = list(zip(table.fragment_paths(subset), map(_content_key, subset)))
    ntasks = max(1, min(len(items),
                        int(ray.cluster_resources().get("CPU", 8))))
    chunks = [items[i::ntasks] for i in range(ntasks)]
    keys = fan_out(sample_keys, [(c,) for c in chunks if c])
    allk = (np.sort(np.concatenate(keys))
            if any(len(k) for k in keys) else np.array([], np.uint64))
    if len(allk) == 0 or num_parts <= 1:
        return []
    qs = [allk[int(len(allk) * i / num_parts)] for i in range(1, num_parts)]
    return [int(q) for q in qs]


def stamp(frag, order: str) -> dict | None:
    """The fragment's ``cluster_range`` stamp when it places the fragment in
    ``order`` under today's key version, else None (unplaced)."""
    st = frag.stats.get(STAMP)
    if st and st["order"] == order and st["key_version"] == KEY_VERSION:
        return st
    return None


def range_of(bounds, part: int) -> tuple[int, int]:
    """Inclusive salted-key range ``[lo, hi]`` of range ``part``: the keys
    ``np.searchsorted(bounds, key, side="right")`` sends there."""
    lo = int(bounds[part - 1]) if part > 0 else 0
    hi = int(bounds[part]) - 1 if part < len(bounds) else KEY_MAX
    return lo, hi


def write_run(write, rows: pa.Table, *, target_bytes: int, order: str,
              lo: int, hi: int, run: str) -> list:
    """Sort ``rows`` (carrying SKEY_COL) by salted key and write them, minus
    that column, as one run of range ``[lo, hi]``.  Each fragment is stamped
    from the rows it holds: ``cluster_key`` (its 48-bit key min/max) and
    ``cluster_range`` (order, key version, range, ``base``/``delta``)."""
    g = rows.sort_by([(SKEY_COL, "ascending")])
    skey = g[SKEY_COL].to_numpy()
    metas = write(g.drop_columns([SKEY_COL]), target_bytes=target_bytes)
    end = 0
    for m in metas:
        start, end = end, end + m.rows
        m.stats["cluster_key"] = {"min": int(skey[start] >> np.uint64(16)),
                                  "max": int(skey[end - 1] >> np.uint64(16)),
                                  "null_count": 0}
        m.stats[STAMP] = {"order": order, "key_version": KEY_VERSION,
                                    "lo": lo, "hi": hi, "run": run}
    return metas


def write_in_range(write, rows: pa.Table, st: dict | None, *,
                   target_bytes: int) -> list:
    """Rewrite of one fragment by a row-level job (cow MERGE's bins, and
    ``compaction.rewrite_bins`` for compaction, DELETE and UPDATE): with a
    current stamp ``st``, the rows whose key is still inside its range are
    written sorted and re-stamped as the same run, and the movers (rows
    whose key left the range) go out as a separate unstamped fragment.
    Without one, ``rows`` are written as they are."""
    if st is None or st["key_version"] != KEY_VERSION:
        return write(rows, target_bytes=target_bytes)
    sk = _salted(rows, st["order"])
    inside = (sk >= np.uint64(st["lo"])) & (sk <= np.uint64(st["hi"]))
    kept = rows.filter(pa.array(inside)).append_column(
        SKEY_COL, pa.array(sk[inside], pa.uint64()))
    metas = write_run(write, kept, target_bytes=target_bytes, order=st["order"],
                      lo=st["lo"], hi=st["hi"], run=st["run"])
    return metas + write(rows.filter(pa.array(~inside)),
                         target_bytes=target_bytes)


def _write_range(group: pa.Table, *, root, job_id, order, bounds, ranges, schema,
                 target_bytes, failpoint=None) -> None:
    """Reduce function (one plain Ray task per range): one group = the rows
    routed to one range, one partition of the journal protocol
    (state/lineage.py).  They are written with the range's old delta run as
    its new delta run; once that passes DELTA_SHARE of the base run's bytes,
    base and delta are folded in and the range gets a new base run.  On the
    full path no range has runs, so every range writes a base run."""
    part = group[PART_COL][0].as_py()
    pid = f"part-{part:05d}"
    runs = ranges[part] if ranges else {"base": [], "delta": []}
    fold = (group.nbytes + sum(b for _, _, b in runs["delta"])
            > DELTA_SHARE * sum(b for _, _, b in runs["base"]))
    olds = runs["delta"] + (runs["base"] if fold else [])

    def kernel(write):
        if failpoint is not None and part >= failpoint:
            raise RuntimeError(f"failpoint: simulated crash at {pid}")
        pieces = [group.drop_columns([PART_COL])]
        for _, path, _ in olds:
            t = pq.read_table(os.path.join(root, path), schema=schema,
                              use_threads=False)
            pieces.append(t.append_column(
                SKEY_COL, pa.array(_salted(t, order), pa.uint64())))
        rows = pa.concat_tables(pieces)
        lo, hi = range_of(bounds, part)
        run = "base" if fold else "delta"
        return (write_run(write, rows, target_bytes=target_bytes, order=order,
                          lo=lo, hi=hi, run=run), rows.num_rows, {"run": run})

    lineage.load_or_run(root, job_id, pid, kernel,
                        frags_in=[fid for fid, _, _ in olds])


def incremental_plan(table, order: str) -> dict | None:
    """The incremental re-cluster's plan: the unstamped fragments to route
    (``inputs``) and the table's ranges in key order, each with its base and
    delta fragments as ``[id, path, bytes]``; gaps between stamped ranges (a range a MERGE
    emptied) become ranges with no runs.  None when the full path must run:
    no stamp of ``order`` under today's key version, unstamped bytes over
    UNPLACED_SHARE of the table, or stamps that overlap."""
    ranges, inputs, unplaced = {}, [], 0
    for f in table.fragments:
        st = stamp(f, order)
        if st is None:
            inputs.append(f.fragment_id)
            unplaced += f.bytes
        else:
            runs = ranges.setdefault((st["lo"], st["hi"]), {"base": [], "delta": []})
            runs[st["run"]].append([f.fragment_id, f.path, f.bytes])
    if not ranges or unplaced > UNPLACED_SHARE * table.manifest.total_bytes:
        return None
    out, nxt = [], 0
    for (lo, hi), runs in sorted(ranges.items()):
        if lo < nxt:
            return None
        if lo > nxt:
            out.append({"lo": nxt, "hi": lo - 1, "base": [], "delta": []})
        out.append({"lo": lo, "hi": hi, **runs})
        nxt = hi + 1
    if nxt <= KEY_MAX:
        out.append({"lo": nxt, "hi": KEY_MAX, "base": [], "delta": []})
    return {"inputs": inputs, "ranges": out}


def run_clustering(table, *, order: str | None = None, job_id: str | None = None,
                   num_partitions: int | None = None, failpoint: int | None = None):
    """Cluster the table in space-filling-curve order; returns (new_table,
    report).  Runs the incremental path when ``incremental_plan`` gives a
    plan and no ``num_partitions`` is set, else rewrites the whole table.
    Resumable via job_id (the plan and finished ranges come from the
    journal)."""
    cfg = table.config
    order = order or (cfg.cluster_order if cfg.cluster_order != "none" else "zorder")
    job_id = job_id or lineage.default_job_id(f"cluster-{order}", table)
    t0 = time.time()
    inc = None if num_partitions else incremental_plan(table, order)

    if inc is None:
        def plan() -> dict:
            P = num_partitions or choose_num_partitions(
                table.manifest.total_bytes, cfg.target_fragment_bytes,
                num_fragments=len(table.fragments),
            )
            return {"order": order, "num_parts": P,
                    "boundaries": sample_boundaries(table, order, P),
                    "base_version": table.version}

        # the inputs are the whole table: a resume after another commit
        # changed it must not skip ranges journaled from the old fragments
        fp = lineage.fingerprint(order, num_partitions, KEY_VERSION,
                                 sorted(f.fragment_id for f in table.fragments))
    else:
        def plan() -> dict:
            return {"order": order, "num_parts": len(inc["ranges"]),
                    "boundaries": [r["lo"] for r in inc["ranges"][1:]],
                    "base_version": table.version, **inc}

        fp = lineage.fingerprint(order, num_partitions, KEY_VERSION, inc)
    meta = lineage.open_job(table.root, job_id, fp, plan)
    bounds = np.array(meta["boundaries"], dtype=np.uint64)
    P = meta["num_parts"]
    by_id = {f.fragment_id: f for f in table.fragments}
    inputs = [by_id[i] for i in meta["inputs"]] if inc else table.fragments
    phases = {"plan": round(time.time() - t0, 3)}

    def assign(batch: pa.Table) -> pa.Table:
        sk = _salted(batch, order)
        part = np.searchsorted(bounds, sk, side="right").astype(np.int32)
        return batch.append_column(SKEY_COL, pa.array(sk, pa.uint64())) \
                    .append_column(PART_COL, pa.array(part, pa.int32()))

    import ray

    from .fs_shuffle import cleanup, fs_reduce, fs_shuffle_map

    if inputs:
        # partials are rebuilt from scratch on resume (cheap map-only pass);
        # COMPLETED ranges still short-circuit via their lineage records
        work = os.path.join(lineage.journal_dir(table.root, job_id), "shuffle")
        cleanup(work)
        try:
            # enough read blocks that the map side saturates the cluster
            # (one block per fragment would cap it at the fragment count)
            manifest = fs_shuffle_map(
                table.fragment_paths(inputs), assign, part_col=PART_COL,
                work_dir=work, schema=table.schema,
                num_blocks=max(P, 2 * int(ray.cluster_resources().get("CPU", 8))))
            fs_reduce(manifest, _write_range,
                      dict(root=table.root, job_id=job_id, order=order,
                           bounds=bounds, ranges=meta.get("ranges"),
                           schema=table.schema,
                           target_bytes=cfg.target_fragment_bytes,
                           failpoint=failpoint))
        finally:
            cleanup(work)
    phases["exchange"] = round(time.time() - t0 - sum(phases.values()), 3)
    # journal is authoritative (covers resumed ranges whose groups were
    # recomputed but skipped, and empty ranges produce no record)
    records = lineage.load_records(table.root, job_id)
    add = list({m.fragment_id: m for rec in records.values()
                for m in rec.out_metas()}.values())
    read = {f.fragment_id: f for f in inputs}
    read.update((i, by_id[i]) for rec in records.values() for i in rec.frags_in)
    rows = sum(rec.rows for rec in records.values())
    if rows != sum(f.rows for f in read.values()):
        raise RuntimeError(
            f"clustering dropped rows: journaled {rows} vs "
            f"{sum(f.rows for f in read.values())} read")
    path = "full" if inc is None else "incremental"
    summary = {"job_id": job_id, "order": order, "path": path, "partitions": P,
               "fragments_in": len(read), "fragments_out": len(add), "rows": rows,
               "ranges_rewritten": sum(rec.extra.get("run") == "base"
                                       for rec in records.values()),
               "bytes_written": sum(rec.bytes for rec in records.values())}
    new_table = table
    if read:
        new_table = table.commit(
            operation=f"cluster-{order}", add=add, remove_ids=set(read),
            summary={**summary, "seconds": round(time.time() - t0, 3)})
    phases["commit"] = round(time.time() - t0 - sum(phases.values()), 3)
    elapsed = time.time() - t0
    report = {**summary, "seconds": round(elapsed, 3),
              "rows_per_sec": round(rows / elapsed, 1) if elapsed > 0 else None,
              "phase_seconds": phases}
    return new_table, report
