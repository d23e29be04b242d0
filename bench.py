#!/usr/bin/env python
"""Benchmark harness.

Headline metric (BASELINE.json): maintenance throughput — rows/s through the
full maintenance lifecycle (compaction + Z-order clustering + MERGE INTO) on
the deterministic synthetic image table sized by $GRAFT_SF_DIR — plus
wall-clock for a representative set of the operator queries at that sf.

Prints ONE JSON line:
  {"metric": ..., "value": <headline seconds>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, ...extras}

Scaling mode (`bench.py --scaling`): runs the SAME maintenance lifecycle (as
four consecutive fresh `ray job submit`-shaped processes) at two parallelism
levels — default N=4 vs 4N=16 CPUs (flags --scaling-low/--scaling-high; the
N-vs-4N criterion) — on identical input, reporting both throughputs and
scaling efficiency = speedup / (high/low).  The sandbox stand-in for the
N-node vs 4N-node cluster criterion (analysis in BASELINE.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

DEFAULT_SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DEFAULT_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# -------- hypervisor-steal gate (ROUND_NOTES: steal swings 0.3 % -> 17 %+
# between minutes on this box; identical runs differ 2-3x under a burst).
# Steal only accrues while vCPUs WANT to run, so the probe burns a few
# processes for a moment and reads the /proc/stat steal delta.  A rep is
# retried (bounded) while the box is stolen above GRAFT_STEAL_MAX; every
# measured value is reported alongside the rep series for audit.

STEAL_MAX = float(os.environ.get("GRAFT_STEAL_MAX", "0.02"))
STEAL_TRIES = int(os.environ.get("GRAFT_STEAL_TRIES", "4"))
STEAL_WAIT_S = float(os.environ.get("GRAFT_STEAL_WAIT_S", "8"))


def _read_steal():
    with open("/proc/stat") as f:
        v = list(map(int, f.readline().split()[1:]))
    return sum(v), (v[7] if len(v) > 7 else 0)


def _steal_probe(nproc: int = 8, seconds: float = 1.0) -> float:
    """Burn `nproc` spinners for `seconds` and return the steal fraction."""
    burn = (f"import time\ne=time.time()+{seconds}\n"
            "while time.time()<e: pass\n")
    procs = [subprocess.Popen([sys.executable, "-c", burn],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
             for _ in range(nproc)]
    t1, s1 = _read_steal()
    time.sleep(seconds)
    t2, s2 = _read_steal()
    for p in procs:
        p.wait()
    dt = t2 - t1
    return (s2 - s1) / dt if dt > 0 else 0.0


MIN_MEMBW_GBS = float(os.environ.get("GRAFT_MIN_MEMBW_GBS", "5.0"))


def _membw_probe(mib: int = 64, seconds: float = 0.4) -> float:
    """Single-proc warmed memcpy GB/s — catches the co-tenant noise mode
    steal%% misses: shared-LLC/memory-bandwidth contention inflates the
    memcpy-bound phases 20-30 %% while vCPUs are never preempted (observed
    2026-08-17: 10.4 s lifecycle reps at 0.4-1.7 %% steal vs 7.9 s quiet)."""
    import numpy as np

    a = np.ones(mib << 20 >> 3)
    b = np.empty_like(a)
    b[:] = a  # fault every page before timing
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        b[:] = a
        n += 1
    return n * a.nbytes / (time.perf_counter() - t0) / 1e9


def _cpu_probe(seconds: float = 0.3) -> float:
    """Single-proc zlib compress+decompress kilo-iters/s — a pure-CPU speed
    reference in the same work shape as the verify phase.  Quiet-window
    calibration 2026-08-17: ~6.7k iters/s.  When a run's lifecycle is slow
    while this reads proportionally low, the box itself is slow (turbo/LLC
    contention) — the engine is not the variable."""
    import zlib

    import numpy as np

    rng = np.random.default_rng(0)
    blobs = [rng.integers(0, 255, 64 * 64 * 3, dtype=np.uint8).tobytes()
             for _ in range(8)]
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        zlib.decompress(zlib.compress(blobs[n % 8], 6))
        n += 1
    return n / (time.perf_counter() - t0) / 1000.0


def wait_quiet(label: str = "") -> dict:
    """Block (bounded) until the box is quiet on BOTH gated axes —
    hypervisor steal below GRAFT_STEAL_MAX and single-proc memcpy above
    GRAFT_MIN_MEMBW_GBS — and record a pure-CPU speed reference alongside
    (not gated: it normalizes cross-window drift for the reader).  Never
    raises; returns the last measurements."""
    steal, bw = _steal_probe(), _membw_probe()
    for _ in range(STEAL_TRIES):
        if steal <= STEAL_MAX and bw >= MIN_MEMBW_GBS:
            break
        print(f"# quiet gate{' ' + label if label else ''}: "
              f"steal {steal * 100:.1f} % / membw {bw:.1f} GB/s — waiting",
              file=sys.stderr)
        time.sleep(STEAL_WAIT_S)
        steal, bw = _steal_probe(), _membw_probe()
    return {"steal_pct": round(steal * 100, 1), "membw_gbs": round(bw, 2),
            "cpu_kiters": round(_cpu_probe(), 2)}

BENCH_QUERIES = [
    "pricing_summary",
    "revenue_by_nation",
    "orders_by_segment",
    "direct_follows",
    "sessionize",
    "variants",
    "conformance",
    "dedup_exact",
    "quality_scores",
    "minhash_lsh_pairs",
    "knn_bruteforce",
    "embedding_dedup",
    "next_activity",
    "executive_kpis",
]


def _consume(result):
    """Force full execution of a query result."""
    import pandas as pd
    import pyarrow as pa

    import ray.data

    if isinstance(result, ray.data.Dataset):
        n = 0
        for b in result.iter_batches(batch_format="pyarrow"):
            n += b.num_rows
        return n
    if isinstance(result, (pd.DataFrame, pa.Table)):
        return len(result)
    return 0


def run_bench(num_cpus: int, sf_dir: str, *, maintenance_only: bool = False,
              rows: int | None = None) -> dict:
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    from ocel_ocpn_lakehouse_ray.pipelines.maintenance_queries import (
        _scale_n,
        _seed_table_root,
        _working_copy,
    )
    from ocel_ocpn_lakehouse_ray.sources.generator import merge_source_dataset
    from ocel_ocpn_lakehouse_ray.stages.clustering import run_clustering
    from ocel_ocpn_lakehouse_ray.stages.compaction import run_compaction
    from ocel_ocpn_lakehouse_ray.stages.merge import run_merge
    from ocel_ocpn_lakehouse_ray.table import LakeTable

    n = rows or _scale_n(sf_dir)
    _seed_table_root(n)  # build (or reuse) the seed table — excluded from timing

    def one_lifecycle(tag: str):
        root = _working_copy(n, tag)
        # untimed warm pass: pull every fragment through the page cache so the
        # first timed phase is not an I/O-cold outlier at one parallelism level
        LakeTable.load(root).to_dataset().map_batches(
            lambda b: b.select(["w"]), batch_format="pyarrow"
        ).count()
        t0 = time.time()
        t = LakeTable.load(root)
        t, rep_c = run_compaction(t, job_id="bench-compact")
        t_c = time.time()
        t, rep_z = run_clustering(t, order="zorder", job_id="bench-cluster")
        t_z = time.time()
        src = merge_source_dataset(n)
        t, rep_m = run_merge(t, src, job_id="bench-merge")
        t_m = time.time()
        # post-maintenance STRICT verification: every surviving row is
        # compared against its regenerated expected row — caption exact, meta
        # exact, both sides decoded (north_star) — map-only tasks
        from ocel_ocpn_lakehouse_ray.stages.verify import verify_merged_map_only

        vrep = verify_merged_map_only(t, n=n)
        if not vrep["passed"]:
            raise RuntimeError(f"post-maintenance verification FAILED: {vrep}")
        # snapshot isolation: the pre-merge pinned version verifies unchanged
        t_pre = LakeTable.load(root, version=t.version - 1)
        srep = verify_merged_map_only(t_pre, n=n, merged=False)
        if not srep["passed"]:
            raise RuntimeError(f"snapshot-isolation verification FAILED: {srep}")
        n_decoded = vrep["pairs"] + srep["pairs"]
        ph = {
            "compact": round(t_c - t0, 3),
            "cluster": round(t_z - t_c, 3),
            "merge": round(t_m - t_z, 3),
            "verify_decode": round(time.time() - t_m, 3),
        }
        mrows = (rep_c.get("rows", 0) + rep_z.get("rows", 0)
                 + rep_m.get("rows", 0) + n_decoded)
        shutil.rmtree(root, ignore_errors=True)
        return ph, mrows, t

    # this box's ambient load swings identical runs 2-3x; per-phase minima
    # over >= 3 reps, each rep gated on a hypervisor-steal probe (retry while
    # stolen), is the quiet-machine estimator — raw totals AND the measured
    # steal per rep are reported for auditability, same protocol as --scaling
    reps = int(os.environ.get("GRAFT_BENCH_REPS", "3"))
    phase_series, raw_totals, steal_series = [], [], []
    for i in range(reps):
        steal_series.append(wait_quiet(f"rep {i}"))
        ph, maint_rows, t = one_lifecycle(f"bench{num_cpus}_{i}")
        phase_series.append(ph)
        raw_totals.append(round(sum(ph.values()), 3))
    phases = {k: min(ph[k] for ph in phase_series) for k in phase_series[0]}
    maint_secs = sum(phases.values())

    queries = {}
    if not maintenance_only:
        import __ray_entry__ as entrymod

        reg = entrymod.queries()
        q_steal = wait_quiet("queries")
        for name in BENCH_QUERIES:
            best = None
            for _ in range(reps):
                q0 = time.time()
                _consume(reg[name](sf_dir))
                dt = time.time() - q0
                best = dt if best is None else min(best, dt)
            queries[name] = round(best, 3)
    out = {
        "metric": "maintenance_wall_seconds(compact+zorder+merge+verify_decode)",
        "value": round(maint_secs, 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "maintenance_rows": int(maint_rows),
        "maintenance_rows_per_sec": round(maint_rows / maint_secs, 1),
        "phases": phases,
        "reps_raw_total": raw_totals,
        "reps_quiet": steal_series,
        "table_rows": int(t.manifest.total_rows),
        "table_bytes": int(t.manifest.total_bytes),
    }
    if not maintenance_only:
        out["queries_quiet"] = q_steal
    ray.shutdown()
    return out


def run_profile(name: str, sf_dir: str, num_cpus: int) -> None:
    """Print Ray Data's per-operator stats for one registry query — the
    `ds.stats()` feedback loop the build brief prescribes for iterating on
    an operator until wall time is dominated by useful compute."""
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as entrymod

    t0 = time.time()
    r = entrymod.queries()[name](sf_dir)
    import ray.data as rd

    if isinstance(r, rd.Dataset):
        r = r.materialize()
        print(r.stats())
    else:
        print(f"(driver-finished result: {len(r)} rows — no Dataset stats)")
    print(f"total {time.time() - t0:.3f}s")
    ray.shutdown()


SCALING_ROWS = int(os.environ.get("GRAFT_SCALING_ROWS", "80000"))


def _run_job(cmd_args, cpus):
    """One maintenance job = one `ray job submit`-style fresh process."""
    repo = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ocel_ocpn_lakehouse_ray.cli", *cmd_args,
         "--num-cpus", str(cpus)],
        capture_output=True, text=True, cwd=repo,
    )
    line = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")][-1]
    return json.loads(line)


def _lifecycle_seconds(root: str, cpus: int, n: int) -> tuple[float, int]:
    per_job, rows = _lifecycle_job_seconds(root, cpus, n)
    return sum(per_job), rows


def _lifecycle_job_seconds(root: str, cpus: int, n: int) -> tuple[list[float], int]:
    """Run the maintenance suite as consecutive Ray jobs (the north_rule
    launch shape: one `ray job submit` per job) and return the in-job seconds
    each reports (Ray session startup is cluster provisioning, not job work)."""
    secs = []
    rows = 0
    for cmd in (
        ["compact", "--root", root, "--job-id", "sc-c"],
        ["cluster", "--root", root, "--order", "zorder", "--job-id", "sc-z"],
        ["merge", "--root", root, "--job-id", "sc-m", "--source-rows", str(n)],
        ["verify-merged", "--root", root, "--rows", str(n)],
        # snapshot isolation: the version pinned BEFORE the merge (-1 =
        # parent of latest) must still verify byte-faithful (north_rule)
        ["verify-snapshot", "--root", root, "--rows", str(n), "--version", "-1"],
    ):
        rep = _run_job(cmd, cpus)
        secs.append(rep["seconds"])
        rows += rep.get("rows", 0)
    return secs, rows


def run_scaling(sf_dir: str, low: int = 4, high: int = 16) -> dict:
    """Identical input, two parallelism levels, fresh Ray process per job.

    Uses a larger table (SCALING_ROWS) than the default bench tier: the
    scaling criterion measures how the job parallelizes, so the parallel
    compute must dominate the fixed per-job costs (sampling, planning,
    commits) — at 10^12-row scale it trivially would."""
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ocel_ocpn_lakehouse_ray.pipelines.maintenance_queries import (
        _seed_table_root,
        _working_copy,
    )

    _seed_table_root(SCALING_ROWS)
    ray.shutdown()

    # Ambient-noise control: this box's per-job wall times fluctuate 2-3x
    # between back-to-back identical runs (co-tenant load).  Two measures:
    # (a) INTERLEAVE the levels so both sample the same noise distribution
    # rather than one level eating a burst, and (b) take each JOB's minimum
    # across the repetitions (fresh process per job, identical input) — the
    # standard quiet-machine estimator.  Raw per-rep totals are reported in
    # `reps_raw` so the aggregation is auditable.
    reps = int(os.environ.get("GRAFT_SCALING_REPS", "3"))
    series: dict[int, list[list[float]]] = {low: [], high: []}
    rows_by: dict[int, int] = {}
    raw: dict[int, list[float]] = {low: [], high: []}
    steal_series = []
    for _ in range(reps):
        steal_series.append(wait_quiet("scaling rep"))
        for cpus in (high, low):
            root = _working_copy(SCALING_ROWS, f"scale{cpus}")
            per_job, rows = _lifecycle_job_seconds(root, cpus, SCALING_ROWS)
            shutil.rmtree(root, ignore_errors=True)
            series[cpus].append(per_job)
            rows_by[cpus] = rows
            raw[cpus].append(round(sum(per_job), 3))
    results = {}
    per_job_min = {}
    for cpus in (high, low):
        best = [min(rep[j] for rep in series[cpus])
                for j in range(len(series[cpus][0]))]
        per_job_min[cpus] = [round(v, 3) for v in best]
        secs = sum(best)
        results[cpus] = {"value": round(secs, 3),
                         "maintenance_rows_per_sec": round(rows_by[cpus] / secs, 1)}
    tl, th = results[low], results[high]
    speedup = tl["value"] / th["value"]
    efficiency = speedup / (high / low)
    return {
        "metric": "scaling_efficiency",
        "value": round(efficiency, 3),
        "unit": "ratio",
        "low_cpus": low,
        "high_cpus": high,
        "low_seconds": tl["value"],
        "high_seconds": th["value"],
        "low_rows_per_sec": tl["maintenance_rows_per_sec"],
        "high_rows_per_sec": th["maintenance_rows_per_sec"],
        "speedup": round(speedup, 3),
        "rows": SCALING_ROWS,
        "sf": sf_dir,
        "reps_raw": {str(c): raw[c] for c in (low, high)},
        # per-job minima across reps (job order: compact, cluster, merge,
        # verify-merged, verify-snapshot) — lets later runs POOL minima
        "per_job_min": {str(c): per_job_min[c] for c in (low, high)},
        "per_job_raw": {str(c): [[round(v, 3) for v in rep]
                                 for rep in series[c]] for c in (low, high)},
        "reps_quiet": steal_series,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--scaling-low", type=int, default=int(os.environ.get("GRAFT_SCALING_LOW", "4")))
    ap.add_argument("--scaling-high", type=int, default=int(os.environ.get("GRAFT_SCALING_HIGH", "16")))
    ap.add_argument("--cpus", type=int, default=DEFAULT_CPUS)
    ap.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    ap.add_argument("--maintenance-only", action="store_true")
    ap.add_argument("--rows", type=int, default=None)
    ap.add_argument("--profile", default=None, metavar="QUERY",
                    help="print ds.stats() for one registry query and exit")
    ap.add_argument("--stress", action="store_true",
                    help="maintenance lifecycle at 8x the bench tier "
                         "(reproduces the fixed-cost-amortization evidence "
                         "in BASELINE.md; single rep unless GRAFT_BENCH_REPS "
                         "is set)")
    args = ap.parse_args()
    if args.stress:
        os.environ.setdefault("GRAFT_BENCH_REPS", "1")
        from ocel_ocpn_lakehouse_ray.pipelines.maintenance_queries import _scale_n

        rows = args.rows or 8 * _scale_n(args.sf_dir)
        print(json.dumps(run_bench(args.cpus, args.sf_dir,
                                   maintenance_only=True, rows=rows)))
    elif args.profile:
        run_profile(args.profile, args.sf_dir, args.cpus)
    elif args.scaling:
        print(json.dumps(run_scaling(args.sf_dir, low=args.scaling_low,
                                     high=args.scaling_high)))
    else:
        print(json.dumps(run_bench(args.cpus, args.sf_dir,
                                   maintenance_only=args.maintenance_only,
                                   rows=args.rows)))


if __name__ == "__main__":
    main()
