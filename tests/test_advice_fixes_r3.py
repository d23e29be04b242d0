"""Regression tests for the round-2 advisor findings (ADVICE.md round 3):

1. med — verify_merged_map_only must catch a merge bug that duplicates one
         row id while dropping another (pairs stays at expected_total, so the
         old count-only completeness check passed).
2. low — fs_shuffle.write_partials must tolerate an empty input batch.
3. low — bloom sidecars: read_sidecar must reject a bit array whose length is
         not a power of two (corrupt/truncated file → false-negative prunes).
4. low — scheduler/query-cache must treat an explicit now=0.0 as provided,
         not substitute wall-clock time.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from ocel_ocpn_lakehouse_ray.functions import bloom
from ocel_ocpn_lakehouse_ray.pipelines.scheduler import RefreshScheduler
from ocel_ocpn_lakehouse_ray.sources.generator import (
    create_image_table,
    merge_source_dataset,
)
from ocel_ocpn_lakehouse_ray.stages.fs_shuffle import write_partials
from ocel_ocpn_lakehouse_ray.stages.merge import run_merge
from ocel_ocpn_lakehouse_ray.stages.verify import (
    expected_domain_checksums,
    verify_merged_map_only,
)
from ocel_ocpn_lakehouse_ray.state.query_cache import QueryCache

SEED = 42
N = 200


# ------------------------- 1. id-multiset checksum catches duplicate+drop


def test_verify_catches_duplicated_id_with_dropped_id(tmp_path):
    """Forge the exact failure the advisor described: rewrite one fragment so
    row 0 is replaced by a full copy of row 1.  Every surviving row is a
    byte-perfect expected row, the pair count equals expected_total, nothing
    is 'unexpected' — only the id-multiset checksum can notice."""
    root = str(tmp_path / "t")
    t = create_image_table(root, N, num_fragments=4, seed=SEED)
    t, _ = run_merge(t, merge_source_dataset(N, seed=SEED, num_blocks=2),
                     job_id="dupdrop")
    rep = verify_merged_map_only(t, n=N, seed=SEED, num_blocks=4)
    assert rep["passed"] and rep["id_checksum_ok"], rep

    frag = t.fragments[0]
    path = os.path.join(t.root, frag.path)
    tbl = pq.read_table(path)
    assert tbl.num_rows >= 2
    forged = pa.concat_tables([tbl.slice(1, 1), tbl.slice(1)])  # row0 -> copy of row1
    pq.write_table(forged, path)
    try:
        rep2 = verify_merged_map_only(t, n=N, seed=SEED, num_blocks=4)
        # counts alone cannot see it ...
        assert rep2["pairs"] == rep["pairs"]
        assert rep2["unexpected"] == 0 and rep2["missing"] == 0
        assert rep2["caption_mismatch"] == 0 and rep2["meta_mismatch"] == 0
        # ... the checksum does
        assert not rep2["id_checksum_ok"]
        assert not rep2["passed"]
    finally:
        pq.write_table(tbl, path)


def test_expected_domain_checksums_match_direct_sum():
    from ocel_ocpn_lakehouse_ray.functions.hashing import splitmix64
    from ocel_ocpn_lakehouse_ray.stages.verify import _CS_SALT, INSERT_BASE

    n = 100
    dom = np.concatenate([
        np.arange(n, dtype=np.uint64),
        np.arange(INSERT_BASE, INSERT_BASE + n // 20, dtype=np.uint64),
    ])
    with np.errstate(over="ignore"):
        want = (int(splitmix64(dom).sum(dtype=np.uint64)),
                int(splitmix64(dom ^ _CS_SALT).sum(dtype=np.uint64)))
    assert expected_domain_checksums(n, merged=True) == want
    base = dom[:n]
    with np.errstate(over="ignore"):
        want_pre = (int(splitmix64(base).sum(dtype=np.uint64)),
                    int(splitmix64(base ^ _CS_SALT).sum(dtype=np.uint64)))
    assert expected_domain_checksums(n, merged=False) == want_pre


# ------------------------------------------- 2. empty batch into fs shuffle


def test_write_partials_empty_batch(tmp_path):
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "__part": pa.array([], pa.int32())})
    out = write_partials(empty, part_col="__part", work_dir=str(tmp_path / "w"))
    assert out.num_rows == 0
    assert out.schema.names == ["part", "path", "rg"]
    assert out.schema.field("part").type == pa.int32()


# --------------------------------------- 3. bloom sidecar pow2 validation


def test_read_sidecar_rejects_non_pow2_bit_length(tmp_path):
    keys = [f"k{i}" for i in range(100)]
    bits = bloom.build(keys)
    path = str(tmp_path / "f.bloom")
    bloom.write_sidecar(path, bits)
    got, k = bloom.read_sidecar(path)
    assert np.array_equal(got, bits) and k == bloom.NUM_HASHES

    # truncate: bit length no longer a power of two → must be rejected, not
    # silently probed with a wrong index mask (false-negative prunes)
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[:-3])
    with pytest.raises(ValueError, match="corrupt"):
        bloom.read_sidecar(path)


# --------------------------------------------- 4. explicit now=0.0 honored


class _DummyView:
    name = "v"

    def refresh(self):
        return {"rows": 0}


def test_scheduler_honors_epoch_zero_now():
    s = RefreshScheduler()
    s.register(_DummyView(), interval_seconds=100.0)
    sv = s.views["v"]
    sv.last_refresh_at = -10.0  # refreshed 10 "seconds" before epoch 0
    assert s.due_views(now=0.0) == []          # 10 < 100 → not due
    sv.interval_seconds = 5.0
    assert s.due_views(now=0.0) == ["v"]       # 10 >= 5 → due


def test_query_cache_honors_epoch_zero_now():
    c = QueryCache(ttl_seconds=10.0)
    c.put("k", "v", now=0.0)
    assert c.get("k", now=0.0) == "v"
    assert c.get("k", now=10.1) is None        # expired relative to epoch 0
