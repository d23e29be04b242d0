"""Engine configuration and the maintenance constants inherited from the reference.

The numeric policy constants mirror the reference's maintenance layer
(`ops/maintenance_system.py`, `ops/advanced_partitioning.py`,
`ingest/production_bootstrap.py`) — see BASELINE.md for the full table.
Tables created at toy scale in tests override ``target_fragment_bytes`` /
``small_file_bytes`` proportionally (FIXTURES.md F1) so the 64 MB / 256 MB
reference ratios are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

# Reference: ingest/production_bootstrap.py:238 (write.target-file-size-bytes)
TARGET_FRAGMENT_BYTES = 256 * 1024 * 1024
# Reference: ingest/production_bootstrap.py:190 (small / MV tables)
TARGET_FRAGMENT_BYTES_SMALL = 128 * 1024 * 1024
# Reference: ops/maintenance_system.py:58 (small-file threshold)
SMALL_FILE_BYTES = 64 * 1024 * 1024
# Reference: ops/advanced_partitioning.py:59,76 (partition-skew alarm)
SKEW_ALARM_RATIO = 2.0
# Reference: ops/maintenance_system.py:196-222 (snapshot retention thresholds)
SNAPSHOT_OLD_DAYS = 30
SNAPSHOT_VERY_OLD_DAYS = 90
# Reference: ops/maintenance_system.py:66-75 (health penalties)
HEALTH_PENALTY_MANY_FILES = 20      # files > 1000
HEALTH_PENALTY_SMALL_FILES = 15     # small-file fraction > 50 %
HEALTH_PENALTY_MANY_SNAPSHOTS = 10  # snapshots > 100
HEALTH_MANY_FILES_THRESHOLD = 1000
HEALTH_SMALL_FRACTION_THRESHOLD = 0.5
HEALTH_MANY_SNAPSHOTS_THRESHOLD = 100


def optimal_bucket_count(total_files: int) -> int:
    """Shuffle-partition-count heuristic.

    Reference: ops/advanced_partitioning.py:141
    ``optimal_buckets = min(128, max(32, total_files // 10))``.
    """
    return min(128, max(32, total_files // 10))


@dataclass
class TableConfig:
    """Per-table physical-layout policy (the reference's table properties).

    ``target_fragment_bytes`` and ``small_file_bytes`` are Arrow (in-memory)
    bytes: the fragment writer splits an output at the target in that unit,
    and the compaction planner and the health size classes measure in it too
    (``FragmentMeta.arrow_bytes``).  The parquet file of a fragment may be far
    smaller.  Clustering and MERGE still size their partition counts by file
    bytes (``choose_num_partitions``)."""

    target_fragment_bytes: int = TARGET_FRAGMENT_BYTES
    small_file_bytes: int = SMALL_FILE_BYTES
    cluster_order: str = "none"          # "zorder" | "hilbert" | "none"
    retention_keep_last: int = 10        # manifests kept by snapshot expiry (>=1)
    retention_max_age_days: float = SNAPSHOT_OLD_DAYS
    skew_alarm_ratio: float = SKEW_ALARM_RATIO
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TableConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})
