"""Table-health analysis: the reference's advisory maintenance layer, kept with
identical semantics, now feeding REAL maintenance jobs instead of printed
recommendations.

Ports (semantics, not code):
- file-size histogram + buckets      `ops/maintenance_system.py:42-60`  (A11)
- health score + recommendations     `ops/maintenance_system.py:66-107` (A13)
- compaction benefit estimator       `ops/maintenance_system.py:134-160`(A14)
- snapshot retention analyzer        `ops/maintenance_system.py:169-228`(A15)
- partition-skew metric              `ops/advanced_partitioning.py:54-77`(A12)

All pure functions over manifest metadata (tiny even at 10^12 rows: metadata
is O(fragments), not O(rows)) — they run driver-side and decide which heavy
job to launch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import config as C


@dataclass
class HealthReport:
    table_version: int
    total_fragments: int
    total_bytes: int
    total_rows: int
    avg_bytes: float
    min_bytes: int
    max_bytes: int
    small_fragments: int          # arrow_bytes < small_file_bytes
    medium_fragments: int
    large_fragments: int          # arrow_bytes >= target_fragment_bytes
    small_fraction: float
    skew_ratio: float             # (max-min)/avg, alarm when > 2.0 (A12)
    snapshots: int
    health_score: int             # 0..100 (A13)
    recommendations: list = field(default_factory=list)


def analyze_health(manifest, *, num_snapshots: int, config=None) -> HealthReport:
    frags = manifest.fragments
    cfg = config
    small_t = cfg.small_file_bytes if cfg else C.SMALL_FILE_BYTES
    target_t = cfg.target_fragment_bytes if cfg else C.TARGET_FRAGMENT_BYTES
    sizes = [f.bytes for f in frags]
    n = len(sizes)
    total = sum(sizes)
    avg = total / n if n else 0.0
    # size classes in the unit compaction plans in (stages/compaction.py)
    small = sum(1 for f in frags if f.arrow_bytes < small_t)
    large = sum(1 for f in frags if f.arrow_bytes >= target_t)
    small_frac = small / n if n else 0.0
    skew = ((max(sizes) - min(sizes)) / avg) if n and avg else 0.0

    # Health score: 100 minus the reference's penalties (A13)
    score = 100
    recs = []
    if n > C.HEALTH_MANY_FILES_THRESHOLD:
        score -= C.HEALTH_PENALTY_MANY_FILES
        recs.append(f"compact: {n} fragments exceeds {C.HEALTH_MANY_FILES_THRESHOLD}")
    if small_frac > C.HEALTH_SMALL_FRACTION_THRESHOLD:
        score -= C.HEALTH_PENALTY_SMALL_FILES
        recs.append(f"compact: {small_frac:.0%} of fragments below small-file threshold")
    if num_snapshots > C.HEALTH_MANY_SNAPSHOTS_THRESHOLD:
        score -= C.HEALTH_PENALTY_MANY_SNAPSHOTS
        recs.append(f"expire: {num_snapshots} snapshots exceeds {C.HEALTH_MANY_SNAPSHOTS_THRESHOLD}")
    if skew > (cfg.skew_alarm_ratio if cfg else C.SKEW_ALARM_RATIO):
        recs.append(f"rebalance: fragment-size skew ratio {skew:.2f} > alarm")

    return HealthReport(
        table_version=manifest.version,
        total_fragments=n,
        total_bytes=total,
        total_rows=manifest.total_rows,
        avg_bytes=avg,
        min_bytes=min(sizes) if n else 0,
        max_bytes=max(sizes) if n else 0,
        small_fragments=small,
        medium_fragments=n - small - large,
        large_fragments=large,
        small_fraction=small_frac,
        skew_ratio=skew,
        snapshots=num_snapshots,
        health_score=max(0, score),
        recommendations=recs,
    )


def estimate_compaction(fragments, target_bytes: int) -> dict:
    """A14: ``estimated_files_after = max(1, total_size // target)``, sizes
    in Arrow bytes, the unit compaction plans in."""
    total = sum(f.arrow_bytes for f in fragments)
    before = len(fragments)
    after = max(1, total // target_bytes) if total else 0
    return {
        "files_before": before,
        "estimated_files_after": int(after),
        "reduction_pct": (100.0 * (before - after) / before) if before else 0.0,
    }


def analyze_retention(manifests, *, now: float | None = None) -> dict:
    """A15: snapshot ages vs the 30/90-day thresholds + expiry recommendation."""
    now = time.time() if now is None else now
    ages_days = [(now - m.created_at) / 86400.0 for m in manifests]
    old = sum(1 for a in ages_days if a > C.SNAPSHOT_OLD_DAYS)
    very_old = sum(1 for a in ages_days if a > C.SNAPSHOT_VERY_OLD_DAYS)
    total = len(manifests)
    recommend = very_old > 5 or old > 10 or total > 50
    return {
        "snapshots": total,
        "old": old,
        "very_old": very_old,
        "recommend_expiry": recommend,
    }
