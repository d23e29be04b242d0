#!/usr/bin/env python3
"""Benchmark of the table-maintenance engine (compaction, Z-order clustering,
MERGE INTO, strict verify, snapshot GC) and of reads after it.

Run from the repository root:

    python3 perfbench/run.py --workload lifecycle --seed 1 --seconds 10 --trace 0

Every workload runs the same session on an image+caption table built from
the seed, so that every metric is measured on every workload:

1. maintain: compaction, Z-order clustering, a 10 % MERGE (5 % updates and
   5 % inserts spread over all keys), the strict verify of the merged table
   and of the pinned pre-merge snapshot;
2. commit: a closed loop of small ``append_arrow`` commits (ingest also
   interleaves compaction, snapshot GC and co-group upserts);
3. re-cluster and the closing snapshot expiry + GC, then ``fsck``;
4. read: phash range scans, ``image_id`` point lookups and one pass of the
   14 ``bench.BENCH_QUERIES`` over the fixed query tables in
   ``perfbench/data/sf0.01``.

The measured session is a fixed amount of work; ``--seconds`` is accepted
because the command line requires it, and does not change the work.

The workloads differ in which phase dominates (see perfbench/README.md).
Load comes from one single-threaded closed-loop client; Ray runs locally
with 2 CPUs.  Set-up (warm-up of every operation shape, then three builds of
the seed table) is timed apart from the measured session.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``, as BENCHMARK.json names them.
Ray and engine logs go to ``.perfbench/logs/``, span traces to
``.perfbench/traces/``; the run's scratch (tables, Ray session) lives in
``.perfbench/`` and is deleted on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

RAY_CPUS = 2
OBJECT_STORE_BYTES = 400 << 20
APPEND_BASE = 950_000_000_000  # appended ids sort above seed and merge-insert ids
SETUP_BUILDS = 3
RUN_LIMIT_S = 170  # a run that hangs is stopped, cleaned up and reported failed
POOL_ROWS = 100  # seeded rows the commit loop draws its payloads from
PHASH_SLICES = 16
QUERY_DIR = os.path.join(HERE, "data", "sf0.01")
WARM_QUERY_DIR = os.path.join(HERE, "data", "sf0.001")  # warm-up only, unchecked


@dataclass(frozen=True)
class Workload:
    rows: int                # rows of the seed image table
    fragments: int           # fragments the seed table is written as
    commits: int             # closed-loop append commits
    commit_rows: int         # rows per append commit
    interleave: bool         # compaction, GC and upserts between commits
    scans: int               # phash range scans
    lookups: int             # image_id point lookups
    target_bytes: int | None = None  # fragment target (None: engine default)


WORKLOADS = {
    # rewrite-heavy: compaction of 100 small files, full-table clustering, the
    # cow MERGE and both verify gates dominate; a 5 % append in single-row
    # commits gives the re-cluster new rows to place
    "lifecycle": Workload(rows=1000, fragments=100, commits=50, commit_rows=1,
                          interleave=False, scans=8, lookups=4),
    # commit-heavy: 200 commits of 25 rows with compaction every 25, GC every
    # 50 and an upsert (hash co-group plan) after commits 40, 90, 140 and 190
    "ingest": Workload(rows=500, fragments=20, commits=200, commit_rows=25,
                       interleave=True, scans=8, lookups=4,
                       target_bytes=2 << 20),
    # read-heavy: large scan and lookup sets over the maintained table
    "read": Workload(rows=1000, fragments=100, commits=50, commit_rows=1,
                     interleave=False, scans=16, lookups=8),
}


class OpFailed(RuntimeError):
    pass


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _vm_hwm_kb() -> int:
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


def _added_bytes(before, after) -> int:
    """Bytes of the fragments a commit (or chain of commits) added."""
    old = before.manifest.fragment_ids()
    return sum(f.bytes for f in after.fragments if f.fragment_id not in old)


class Session:
    """One run: owns the scratch directory, the recorder and the counters."""

    def __init__(self, wl: Workload, seed: int, tracing: bool, scratch: str):
        from spans import Recorder

        self.wl, self.seed = wl, seed
        self.scratch = scratch
        self.rec = Recorder(tracing)
        self.attempted = self.failed = 0
        self.counts: dict[str, float] = {}
        self.notes: list[str] = []

    # ------------------------------------------------------------ plumbing
    def op(self, name: str, fn, check=None, maint=False):
        """Run one engine call inside a span; ``check(result)`` returns an
        error string or None.  A raise aborts the session, a failed check is
        counted and the session goes on.  ``maint`` adds the call's time to
        the maintenance total behind ``maint_rows_per_s``."""
        self.attempted += 1
        try:
            with self.rec.span(name):
                out = fn()
        except Exception as e:
            self.failed += 1
            traceback.print_exc()
            raise OpFailed(f"{name}: {e!r}") from e
        if maint:
            self.add("maint.s", self.rec.durations[name][-1])
        err = check(out) if check else None
        if err:
            self.failed += 1
            self.notes.append(f"{name}: {err}")
            print(f"# check failed: {name}: {err}", file=sys.stderr)
        return out

    def add(self, key: str, v: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + v

    # ------------------------------------------------------------ set-up
    def setup(self):
        """Warm-up of every operation shape, and SETUP_BUILDS builds of the
        seed table; returns (set-up seconds, table)."""
        import __ray_entry__
        import bench
        import numpy as np

        import querycheck
        from ocel_ocpn_lakehouse_ray.config import TableConfig
        from ocel_ocpn_lakehouse_ray.sources.generator import gen_batch

        self.query_names = list(bench.BENCH_QUERIES)
        self.checker = querycheck.QueryChecker(
            QUERY_DIR, __ray_entry__.oracle_sql(), self.query_names)

        self.pool = gen_batch(np.arange(POOL_ROWS, dtype=np.uint64), self.seed + 2)

        t0 = time.perf_counter()
        self.registry = __ray_entry__.queries()
        self.config = None
        if self.wl.target_bytes:
            self.config = TableConfig(target_fragment_bytes=self.wl.target_bytes,
                                      small_file_bytes=self.wl.target_bytes // 4)
        self._warm_up()
        once = time.perf_counter() - t0
        print(f"# warm-up {once:.3f} s")

        builds, table = [], None
        for k in range(SETUP_BUILDS):
            if table is not None:
                shutil.rmtree(table.root)
            b0 = time.perf_counter()
            table = self._build(os.path.join(self.scratch, f"table{k}"),
                                self.wl.rows, self.wl.fragments, self.seed)
            builds.append(time.perf_counter() - b0)
        print(f"# builds {builds}")
        return once + statistics.median(builds), table

    def _build(self, root, rows, fragments, seed):
        from ocel_ocpn_lakehouse_ray.sources.generator import create_image_table

        return create_image_table(root, rows, seed=seed, num_fragments=fragments,
                                  config=self.config)

    def _warm_up(self):
        """Every operation shape once on a small table and the query pass
        once, outside any span: first-use costs (worker start, imports)
        land in set-up, not in the measured session."""
        from spans import Recorder

        timed, self.rec = self.rec, Recorder(False)
        counts = dict(self.counts)
        warm_seed = self.seed + 1
        t = self._build(os.path.join(self.scratch, "warm"), 120, 12, warm_seed)
        t = self.maintain(t, 120, warm_seed)
        t = self.commit_loop(t, commits=40, commit_rows=1, interleave=True)
        t = self.close(t)
        self.read(t, scans=1, lookups=1, qdir=WARM_QUERY_DIR)
        shutil.rmtree(t.root)
        self.rec, self.counts = timed, counts

    # ------------------------------------------------------------ phases
    def maintain(self, t, n, seed):
        """compaction -> Z-order clustering -> 10 % MERGE -> both verify gates."""
        from ocel_ocpn_lakehouse_ray.sources.generator import merge_source_dataset
        from ocel_ocpn_lakehouse_ray.stages.clustering import run_clustering
        from ocel_ocpn_lakehouse_ray.stages.verify import verify_merged_map_only
        from ocel_ocpn_lakehouse_ray.table import LakeTable

        t = self.compact(t, maint=True)
        prev = t
        t, rep = self.op("clustering", lambda: run_clustering(t, order="zorder"),
                         lambda r: None if r[0].manifest.total_rows == n
                         else "row count changed", maint=True)
        self.add("clustering.rows", rep["rows"])
        self.add("clustering.partitions", rep["partitions"])
        self.add("clustering.bytes_written", _added_bytes(prev, t))
        self.add("written.bytes", _added_bytes(prev, t))
        self.add("maint.rows", rep["rows"])

        src = merge_source_dataset(n, seed=seed).materialize()
        self.add("user.bytes", src.size_bytes())
        t = self.merge(t, src, "merge")

        def gate(rep):
            return None if rep["passed"] else f"verify failed: {rep}"

        v = self.op("verify.merged",
                    lambda: verify_merged_map_only(t, n=n, seed=seed), gate, maint=True)
        pinned = LakeTable.load(t.root, version=prev.version)
        s = self.op("verify.snapshot",
                    lambda: verify_merged_map_only(pinned, n=n, seed=seed,
                                                   merged=False), gate, maint=True)
        self.add("verify.pairs", v["pairs"] + s["pairs"])
        self.add("maint.rows", v["pairs"] + s["pairs"])
        return t

    def compact(self, t, maint=False):
        from ocel_ocpn_lakehouse_ray.stages.compaction import run_compaction

        prev = t
        t, rep = self.op("compaction", lambda: run_compaction(t),
                         lambda r: None if r[0].manifest.total_rows
                         == prev.manifest.total_rows else "row count changed", maint)
        self.add("compaction.calls", 1)
        self.add("compaction.rows", rep["rows"])
        self.add("compaction.bins", rep["bins"])
        self.add("compaction.bytes_written", _added_bytes(prev, t))
        self.add("written.bytes", _added_bytes(prev, t))
        return t

    def merge(self, t, src, span):
        from ocel_ocpn_lakehouse_ray.stages.merge import run_merge
        from ocel_ocpn_lakehouse_ray.state import lineage

        prev = t
        t, rep = self.op(span, lambda: run_merge(t, src), maint=span == "merge")
        plan = (lineage.load_job_meta(t.root, rep["job_id"]) or {}).get("plan")
        if plan in ("cow", "shuffle"):  # "shuffle" is the hash co-group plan
            self.add("merge.plan_cow" if plan == "cow" else "merge.plan_cogroup", 1)
        for phase in ("stage_source", "plan", "shuffle", "commit"):
            self.add(f"merge.{phase}_s", rep["phase_seconds"].get(phase, 0.0))
        self.add("merge.touched_fragments", rep["touched_fragments"])
        self.add("merge.untouched_fragments", rep["untouched_fragments"])
        self.add("merge.bytes_written", _added_bytes(prev, t))
        self.add("written.bytes", _added_bytes(prev, t))
        if span == "merge":
            self.add("maint.rows", rep["rows"])
        return t

    def commit_loop(self, t, *, commits, commit_rows, interleave):
        """Closed loop of append commits.  With ``interleave``: compaction every
        25 commits, GC every 50 and, after commits 40, 90, ..., an upsert that
        updates the two newest commits' keys and adds as many new keys as one
        commit.  Rows are drawn from the seeded pool under fresh ids, so the
        loop times only the engine."""
        import numpy as np
        import pyarrow as pa

        import ray.data

        def rows_for(first_id, k, caption_suffix=""):
            ids = range(first_id, first_id + k)
            b = self.pool.take(np.arange(first_id, first_id + k) % self.pool.num_rows)
            b = b.set_column(b.schema.get_field_index("image_id"), "image_id",
                             pa.array([f"img_{i:012d}" for i in ids]))
            if caption_suffix:
                b = b.set_column(b.schema.get_field_index("caption"), "caption",
                                 pa.array([c + caption_suffix
                                           for c in b["caption"].to_pylist()]))
            return b

        def first_id(i, off=0):
            return APPEND_BASE + i * 1000 + off

        batches = [rows_for(first_id(i), commit_rows) for i in range(commits + 1)]
        rows = 0
        t0 = time.perf_counter()
        for i in range(1, commits + 1):
            batch = batches[i]
            self.add("user.bytes", batch.nbytes)
            prev = t
            t = self.op("table.append", lambda: t.append_arrow(batch),
                        lambda nt: None if nt.manifest.total_rows
                        == prev.manifest.total_rows + commit_rows else "row count")
            self.add("written.bytes", _added_bytes(prev, t))
            rows += commit_rows
            if not interleave:
                continue
            if i % 25 == 0:
                t = self.compact(t)
            if i % 50 == 0:
                self.gc(t, keep_last=5, maint=False)
            if i % 50 == 40:
                src = pa.concat_tables([
                    rows_for(first_id(i - 1), commit_rows, " (rev2)"),
                    rows_for(first_id(i), commit_rows, " (rev2)"),
                    rows_for(first_id(i, off=500), commit_rows)])
                self.add("user.bytes", src.nbytes)
                before = t.manifest.total_rows
                t = self.merge(t, ray.data.from_arrow(src), "merge.upsert")
                if t.manifest.total_rows != before + commit_rows:
                    self.failed += 1
                    self.notes.append("upsert: row count")
                rows += src.num_rows
        self.add("ingest.rows", rows)
        self.add("ingest.loop_s", time.perf_counter() - t0)
        return t

    def gc(self, t, keep_last, maint):
        from ocel_ocpn_lakehouse_ray.stages.gc import expire_and_gc

        rep = self.op("gc", lambda: expire_and_gc(t.root, keep_last=keep_last,
                                                  orphan_grace_seconds=0), maint=maint)
        self.add("gc.manifests_expired", len(rep["expiry"]["expired"]))
        self.add("gc.files_deleted", len(rep["gc"]["deleted"]))

    def close(self, t):
        """Re-cluster after the commits, closing expiry + GC, then fsck."""
        from ocel_ocpn_lakehouse_ray.stages.clustering import run_clustering
        from ocel_ocpn_lakehouse_ray.stages.gc import fsck

        prev = t
        t, rep = self.op("clustering.recluster",
                         lambda: run_clustering(t, order="zorder"), maint=True)
        self.add("clustering.recluster_bytes_written", _added_bytes(prev, t))
        self.add("written.bytes", _added_bytes(prev, t))
        self.add("maint.rows", rep["rows"])
        self.gc(t, keep_last=1, maint=True)
        rep = fsck(t.root)
        self.counts["gc.orphans"] = len(rep["orphans"])
        if rep["orphans"] or rep["missing"]:
            self.failed += 1
            self.notes.append(f"fsck: {len(rep['orphans'])} orphans, "
                              f"{len(rep['missing'])} missing")
        return t

    # ------------------------------------------------------------ reads
    def read(self, t, *, scans, lookups, qdir=QUERY_DIR):
        """One scan set, one lookup set and one query pass; records the
        three set totals in seconds."""
        import numpy as np
        import pyarrow.parquet as pq

        import querycheck

        rng = np.random.default_rng(self.seed)
        width = 2 ** 64 // PHASH_SLICES
        ranges = [(-2 ** 63 + s * width, -2 ** 63 + (s + 1) * width - 1)
                  for s in map(int, rng.integers(0, PHASH_SLICES, scans))]
        # the expected answers, per fragment, from a pyarrow read of the snapshot
        frags = [pq.read_table(p, columns=["image_id", "phash"])
                 for p in t.fragment_paths()]
        phash = [f["phash"].to_numpy() for f in frags]
        keys = rng.choice(np.concatenate([f["image_id"].to_numpy(zero_copy_only=False)
                                          for f in frags]), lookups, replace=False)

        def count(ds):
            return sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow"))

        live = len(t.fragments)
        for kind, preds, cols in (
                ("scan", [[("phash", lo, hi)] for lo, hi in ranges], ["image_id", "phash"]),
                ("lookup", [[("image_id", k, k)] for k in keys], ["image_id", "caption"])):
            before = sum(self.rec.durations[f"table.{kind}"])
            read = useful = rows = 0
            for p in preds:
                n = self.op(f"table.{kind}",
                            lambda: count(t.to_dataset(columns=cols, predicates=p)))
                col, lo, hi = p[0]
                hits = ([int(((a >= lo) & (a <= hi)).sum()) for a in phash]
                        if kind == "scan" else [1])
                if n != sum(hits):
                    self.failed += 1
                    self.notes.append(f"{kind} {p}: {n} rows, expected {sum(hits)}")
                read += len(t.live_fragments(p))
                useful += sum(h > 0 for h in hits)
                rows += n
            self.counts[f"{kind}_set_s"] = sum(self.rec.durations[f"table.{kind}"]) - before
            self.counts[f"table.{kind}_fragments_read"] = read
            if kind == "scan":
                self.counts["table.scan_rows_returned"] = rows
                self.counts["table.scan_prune_ratio"] = 1 - read / (live * len(preds))
                self.counts["scan_read_amp"] = read / max(1, useful)

        q0 = time.perf_counter()
        for name in self.query_names:
            df = self.op(f"query.{name}",
                         lambda: querycheck.to_pandas(self.registry[name](qdir)))
            if qdir == QUERY_DIR and not self.checker.matches(name, df):
                self.failed += 1
                self.notes.append(f"query {name}: output differs from its oracle")
        self.counts["query_set_s"] = time.perf_counter() - q0

    # ------------------------------------------------------------ run
    def run(self, t):
        wl = self.wl
        self.add("written.bytes", t.manifest.total_bytes)
        self.add("user.bytes", t.to_arrow().nbytes)
        v0 = t.version
        gc.collect()  # garbage left by set-up is not the session's to collect
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")  # the peak RSS (VmHWM) restarts from the current RSS
        start = time.perf_counter()
        span = self.rec.span
        with span("session"):
            with span("maintain"):
                t = self.maintain(t, wl.rows, self.seed)
            with span("commit"):
                t = self.commit_loop(t, commits=wl.commits, commit_rows=wl.commit_rows,
                                     interleave=wl.interleave)
            with span("close"):
                t = self.close(t)
            self.counts["manifest.versions_written"] = t.version - v0
            with span("read"):
                self.read(t, scans=wl.scans, lookups=wl.lookups)
        self.timed_s = time.perf_counter() - start
        self.peak_rss_mb = _vm_hwm_kb() / 1024
        self.table = t

    def end_to_end(self, setup_s: float) -> dict:
        """The bounded metrics: set-up time, and the costs a user pays that
        do not move with the machine's speed (amplification, memory)."""
        c = self.counts
        live = sum(f.bytes for f in self.table.fragments)
        return {
            "setup_s": setup_s,
            "write_amp": c["written.bytes"] / c["user.bytes"],
            "space_amp": _dir_bytes(self.table.root) / live,
            "scan_read_amp": c["scan_read_amp"],
            "driver_peak_rss_mb": self.peak_rss_mb,
        }

    def timings(self) -> dict:
        """Throughput, latency and read-set times of the session."""
        d, c = self.rec.durations, self.counts
        appends_ms = [x * 1000 for x in d["table.append"]]
        return {
            "maint_rows_per_s": c["maint.rows"] / c["maint.s"],
            "ingest_rows_per_s": c["ingest.rows"] / c["ingest.loop_s"],
            "append_p50_ms": statistics.median(appends_ms),
            "append_p95_ms": statistics.quantiles(appends_ms, n=20)[-1],
            "scan_set_s": c["scan_set_s"],
            "lookup_set_s": c["lookup_set_s"],
            "query_set_s": c["query_set_s"],
        }

    def per_layer(self) -> dict:
        import ocel_ocpn_lakehouse_ray.state.manifest as mf

        selfs = self.rec.self_seconds()
        d, c = self.rec.durations, self.counts
        out = self.timings()
        out.update({
            "verify.merged_s": selfs.get("verify.merged", 0.0),
            "verify.snapshot_s": selfs.get("verify.snapshot", 0.0),
            "clustering.s": selfs.get("clustering", 0.0),
            "clustering.recluster_s": selfs.get("clustering.recluster", 0.0),
            "merge.s": selfs.get("merge", 0.0) + selfs.get("merge.upsert", 0.0),
            "compaction.s": selfs.get("compaction", 0.0),
            "table.append_s": selfs.get("table.append", 0.0),
            "table.append_calls": len(d["table.append"]),
            "table.scan_s": selfs.get("table.scan", 0.0),
            "table.lookup_s": selfs.get("table.lookup", 0.0),
            "gc.s": selfs.get("gc", 0.0),
            "manifest.latest_bytes": os.path.getsize(
                mf.manifest_path(self.table.root, self.table.version)),
            "manifest.live_fragments": len(self.table.fragments),
        })
        for name in self.query_names:
            out[f"query.{name}_s"] = d[f"query.{name}"][-1]
        for k in ("verify.pairs", "clustering.rows", "clustering.partitions",
                  "clustering.bytes_written", "clustering.recluster_bytes_written",
                  "merge.stage_source_s", "merge.plan_s", "merge.shuffle_s",
                  "merge.commit_s", "merge.touched_fragments",
                  "merge.untouched_fragments", "merge.bytes_written",
                  "merge.plan_cow", "merge.plan_cogroup", "compaction.calls",
                  "compaction.rows", "compaction.bins", "compaction.bytes_written",
                  "manifest.versions_written", "table.scan_fragments_read",
                  "table.lookup_fragments_read", "table.scan_prune_ratio",
                  "table.scan_rows_returned", "gc.manifests_expired",
                  "gc.files_deleted", "gc.orphans"):
            out[k] = c.get(k, 0)
        out.update(kernel_costs(self.seed))
        out["raydata.noop_s"] = raydata_noop_s()
        out["failed_op_share"] = self.failed / max(1, self.attempted)
        out["trace.spans"] = len(self.rec.spans)
        out["trace.overhead_ms"] = self.rec.overhead_s * 1000
        out["trace.timed_s"] = self.timed_s
        return out


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run must print, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def kernel_costs(seed: int) -> dict:
    """Hot kernels timed alone in the benchmark process (one core) over fixed
    seeded rows; the median of three passes each."""
    import numpy as np

    from ocel_ocpn_lakehouse_ray.functions.codec import decode_png
    from ocel_ocpn_lakehouse_ray.functions.zorder import hilbert_key, zorder_key
    from ocel_ocpn_lakehouse_ray.sources.generator import gen_batch, gen_pixels

    ids = np.arange(200, dtype=np.uint64)
    batch = gen_batch(ids, seed)
    pngs = [b for b, f in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist())
            if f == "png"]
    rng = np.random.default_rng(seed)
    keys = (rng.integers(-2 ** 63, 2 ** 63 - 1, 200_000, dtype=np.int64),
            rng.choice([32, 48, 64, 96, 128], 200_000).astype(np.int32),
            rng.choice([32, 48, 64, 96, 128], 200_000).astype(np.int32))

    def per_row(fn, rows, scale):
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            runs.append((time.perf_counter() - t0) / rows * scale)
        return statistics.median(runs)

    return {
        "codec.decode_png_us_per_row": per_row(
            lambda: [decode_png(b) for b in pngs], len(pngs), 1e6),
        "generator.gen_pixels_us_per_row": per_row(
            lambda: gen_pixels(ids, seed), len(ids), 1e6),
        "generator.gen_batch_us_per_row": per_row(
            lambda: gen_batch(ids, seed), len(ids), 1e6),
        "zorder.zorder_key_ns_per_row": per_row(lambda: zorder_key(*keys), 200_000, 1e9),
        "zorder.hilbert_key_ns_per_row": per_row(lambda: hilbert_key(*keys), 200_000, 1e9),
    }


def raydata_noop_s() -> float:
    """Median of five one-block ``Dataset.count()`` executions: the fixed
    cost Ray Data charges every execution."""
    import ray.data

    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        ray.data.from_items([{"x": 1}]).map_batches(lambda b: b).count()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def machine_probe() -> dict:
    """``bench.py``'s quiet-gate probes, recorded beside the run (not gated)."""
    import bench

    return {"steal_pct": bench._steal_probe(nproc=4, seconds=0.3) * 100,
            "membw_gbs": bench._membw_probe(seconds=0.2),
            "cpu_kiters": bench._cpu_probe(seconds=0.2)}


def _ray_temp_dir() -> str:
    """A directory for Ray's session: in the checkout unless its socket paths
    would pass the 107-byte AF_UNIX limit, else a short temporary directory.
    Removed when the run ends."""
    # /session_<date>_<time>_<usec>_<pid>/sockets/plasma_store is <= 66 bytes
    if len(OUT) + len("/ray-12345678") + 66 <= 107:
        return tempfile.mkdtemp(prefix="ray-", dir=OUT)
    return tempfile.mkdtemp(prefix="pb-ray-")


def _proc_stat(pid: int):
    """(state, parent pid, start time) of a process, or None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1]), fields[19]


def _descendants() -> dict[int, str]:
    """pid -> start time of every process below this one (Ray's GCS, raylet,
    workers and agents)."""
    stats = {int(d): _proc_stat(int(d)) for d in os.listdir("/proc") if d.isdigit()}
    out, todo = {}, [os.getpid()]
    while todo:
        parent = todo.pop()
        for pid, st in stats.items():
            if st and st[1] == parent and pid not in out:
                out[pid] = st[2]
                todo.append(pid)
    return out


def _wait_ended(procs: dict[int, str], timeout: float = 20.0) -> None:
    """Wait until each process has ended; kill what is left at the timeout."""
    def alive():
        return [pid for pid, start in procs.items()
                if (st := _proc_stat(pid)) and st[2] == start and st[0] != "Z"]

    deadline = time.monotonic() + timeout
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in alive():
        print(f"# killing {pid}, still alive {timeout:.0f} s after ray.shutdown()")
        os.kill(pid, signal.SIGKILL)
    while alive():
        time.sleep(0.1)


def start_ray(temp_dir: str) -> None:
    import logging

    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    ray.init(address="local", num_cpus=RAY_CPUS, object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR", log_to_driver=False,
             _temp_dir=temp_dir)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def _expired(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(RUN_LIMIT_S)
    sys.path[:0] = [ROOT, HERE]
    try:
        import __ray_entry__  # noqa: F401
        import bench  # noqa: F401
        import ocel_ocpn_lakehouse_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the engine is not importable from {ROOT}: {e}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    for sub in ("logs", "traces"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    ray_dir = _ray_temp_dir()
    log_path = os.path.join(OUT, "logs", f"{tag}.log")
    # stdout carries only the result line: everything else, Ray and engine
    # output included, goes to the log file
    real_stdout, real_stderr = os.dup(1), os.dup(2)
    with open(log_path, "w") as log:
        os.dup2(log.fileno(), 1)
        os.dup2(log.fileno(), 2)
    sys.stdout = sys.stderr = os.fdopen(os.dup(2), "w", buffering=1)

    result, code = None, 1
    try:
        import ray

        probe = machine_probe()
        print(f"# probe {json.dumps(probe)}")
        try:
            p0 = time.perf_counter()
            start_ray(ray_dir)
            print(f"# ray_init_s {time.perf_counter()-p0:.2f}")
            s = Session(WORKLOADS[args.workload], args.seed, bool(args.trace), scratch)
            setup_s, table = s.setup()
            try:
                s.run(table)
            except OpFailed as e:
                s.notes.append(str(e))
                metrics = {}
            else:
                metrics = s.per_layer() if args.trace else s.end_to_end(setup_s)
            print(f"# timed_s {getattr(s, 'timed_s', float('nan')):.3f} "
                  f"setup_s {setup_s:.3f} notes {s.notes}")
            if args.trace:
                s.rec.write(os.path.join(OUT, "traces", f"{tag}.json"))
            units = metric_units(bool(args.trace))
            if metrics and set(metrics) != set(units):
                raise RuntimeError("metrics differ from BENCHMARK.json: "
                                   f"{sorted(set(metrics) ^ set(units))}")
            result = {
                "correct": s.failed == 0 and bool(metrics),
                "attempted": s.attempted, "failed": s.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
            code = 0 if metrics else 1
        finally:
            ray_procs = _descendants()
            ray.shutdown()
            _wait_ended(ray_procs)
    except Exception:
        traceback.print_exc()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)
        sys.stdout.flush()
        os.dup2(real_stdout, 1)
    if result is not None:
        os.write(1, (json.dumps(result) + "\n").encode())
    else:
        os.write(real_stderr, f"perfbench: run failed, see {log_path}\n".encode())
    return code


if __name__ == "__main__":
    sys.exit(main())
