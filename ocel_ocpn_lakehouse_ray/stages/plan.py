"""Maintenance-plan generation: the reference's driver loop
(`ops/maintenance_system.py:230-290` generate_maintenance_plan — health +
simulated compaction + retention → schedule buckets) reproduced over our real
manifest metadata, with the difference that every recommended job here maps
to an executable stage in this package.
"""

from __future__ import annotations

from ..state import manifest as mf
from .clustering import stamp
from .health import analyze_health, analyze_retention, estimate_compaction


def generate_maintenance_plan(table, *, now: float | None = None) -> dict:
    versions = mf.list_manifest_versions(table.root, branch=table.branch)
    manifests = [mf.load_manifest(table.root, v, branch=table.branch)
                 for v in versions]
    health = analyze_health(table.manifest, num_snapshots=len(versions), config=table.config)
    retention = analyze_retention(manifests, now=now)
    estimate = estimate_compaction(table.fragments, table.config.target_fragment_bytes)

    jobs = []
    if health.small_fraction > 0.5 or health.total_fragments > 1000:
        jobs.append({"job": "compaction",
                     "reason": f"{health.small_fragments} small fragments "
                               f"({health.small_fraction:.0%})",
                     "estimate": estimate})
    order = table.config.cluster_order
    unplaced = (sum(f.bytes for f in table.fragments if stamp(f, order) is None)
                if order != "none" else 0)
    if unplaced:  # live bytes no clustering has placed in the declared order
        jobs.append({"job": "clustering", "order": order,
                     "reason": f"{unplaced / table.manifest.total_bytes:.1%} of "
                               f"live bytes unplaced in {order} order"})
    # expire_snapshots trims main's chain only; a branch chain is never expired
    if retention["recommend_expiry"] and table.branch is None:
        jobs.append({"job": "expire_gc",
                     "reason": f"{retention['snapshots']} snapshots "
                               f"({retention['old']} old, {retention['very_old']} very old)"})
    if health.skew_ratio > table.config.skew_alarm_ratio:
        jobs.append({"job": "rebalance",
                     "reason": f"fragment-size skew {health.skew_ratio:.2f}"})

    # schedule bucket by health score (reference `ops/maintenance_system.py:272-285`)
    if health.health_score < 70:
        schedule = "daily"
    elif health.health_score < 90:
        schedule = "weekly"
    else:
        schedule = "monthly"

    return {
        "table_version": table.version,
        "health_score": health.health_score,
        "schedule": schedule,
        "jobs": jobs,
        "health": health.__dict__,
        "retention": retention,
    }
