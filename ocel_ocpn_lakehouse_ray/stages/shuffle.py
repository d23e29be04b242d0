"""Shared shuffle machinery: hash-partition assignment and partition sizing
for the wide maintenance jobs.

The reference declares ``write.distribution-mode: hash`` but never uses it
(`ingest/production_bootstrap.py:239-241`); here the hash partitioning is real:
a vectorized ``__part`` column inside ``map_batches`` followed by the
storage-partitioned exchange (``fs_shuffle.fs_shuffle_groups``) — ONE
all-to-all exchange per job, with partition count chosen from data size + the
reference's bucket heuristic.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import optimal_bucket_count
from ..functions.hashing import hash_strings

PART_COL = "__part"
# parallelism floor never shatters partitions below this size
MIN_PARTITION_BYTES = 16 << 20


def assign_hash_part(batch: pa.Table, key_col: str, num_parts: int, seed: int = 0) -> pa.Table:
    """Append a hash-partition id column (vectorized; string or int keys)."""
    col = batch[key_col]
    if pa.types.is_integer(col.type):
        from ..functions.hashing import splitmix64

        h = splitmix64(col.to_numpy(zero_copy_only=False).astype(np.uint64))
    else:
        h = hash_strings(col.to_pylist(), seed)
    part = (h % np.uint64(num_parts)).astype(np.int32)
    return batch.append_column(PART_COL, pa.array(part, pa.int32()))


def choose_num_partitions(
    total_bytes: int,
    target_bytes: int,
    *,
    num_fragments: int | None = None,
    floor: int | None = None,
) -> int:
    """Partition count ~ one output fragment per partition, clamped by the
    reference bucket heuristic (A16) when fragment count is known.

    ``floor`` defaults to the CLUSTER CPU COUNT: the reduce stage of a
    rewrite shuffle runs one task per partition, so a byte-derived count
    below the cluster's parallelism (e.g. 1 GB / 256 MB target = 4
    partitions on a 16-CPU cluster) leaves most of the cluster idle for the
    whole reduce — the classic numPartitions >= defaultParallelism rule.
    At 100 TB the byte-derived count (~400k) dwarfs any cluster size, so
    the floor only binds at small tables, where the smaller output
    fragments it implies are recovered by the next compaction.  The floor
    itself is bounded so no partition drops below ~MIN_PARTITION_BYTES —
    a toy table must not shatter into per-fragment-overhead-dominated
    slivers just because the cluster is wide."""
    if floor is None:
        try:
            import ray

            floor = int(ray.cluster_resources().get("CPU", 1))
        except Exception:
            floor = 1
        floor = max(1, min(floor, total_bytes // MIN_PARTITION_BYTES))
    p = max(floor, -(-total_bytes // max(1, target_bytes)))
    if num_fragments is not None and num_fragments >= 320:
        # reference heuristic only binds for non-toy file counts
        p = max(p, optimal_bucket_count(num_fragments))
    return int(p)
