"""Map-only strict post-merge verification (stages/verify.py
verify_merged_map_only): expected rows regenerated inside each batch, every
pair decoded — and corruption of any kind must fail the verdict."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray

from ocel_ocpn_lakehouse_ray.sources.generator import (
    create_image_table,
    merge_source_dataset,
)
from ocel_ocpn_lakehouse_ray.stages.merge import run_merge
from ocel_ocpn_lakehouse_ray.stages.verify import (
    scan_equivalence,
    verify_merged_map_only,
)

SEED = 42
N = 200


@pytest.fixture(scope="module")
def merged_table(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("vm") / "t")
    t = create_image_table(root, N, num_fragments=6, seed=SEED)
    t, _ = run_merge(t, merge_source_dataset(N, seed=SEED, num_blocks=2),
                     job_id="vm-m")
    return t


def test_verify_merged_passes_on_clean_table(merged_table):
    rep = verify_merged_map_only(merged_table, n=N, seed=SEED, num_blocks=4)
    assert rep["passed"], rep
    assert rep["pairs"] == N + N // 20
    assert rep["missing"] == 0 and rep["unexpected"] == 0


def test_verify_merged_detects_caption_corruption(merged_table):
    t2 = merged_table
    # corrupt one fragment in place: flip a caption
    import os

    import pyarrow.parquet as pq

    frag = t2.fragments[0]
    path = os.path.join(t2.root, frag.path)
    tbl = pq.read_table(path)
    bad = tbl.set_column(
        tbl.schema.get_field_index("caption"), "caption",
        pa.array(["CORRUPTED"] + tbl["caption"].to_pylist()[1:]),
    )
    pq.write_table(bad, path)
    try:
        rep = verify_merged_map_only(t2, n=N, seed=SEED, num_blocks=4)
        assert not rep["passed"]
        assert rep["caption_mismatch"] == 1
    finally:
        pq.write_table(tbl, path)  # restore for other tests


def test_verify_merged_detects_missing_rows(merged_table):
    # scan a PINNED pre-merge version: inserts are "missing" vs expected
    from ocel_ocpn_lakehouse_ray.table import LakeTable

    t_old = LakeTable.load(merged_table.root, version=1)
    rep = verify_merged_map_only(t_old, n=N, seed=SEED, num_blocks=4)
    assert not rep["passed"]
    assert rep["missing"] == N // 20          # the un-merged inserts
    assert rep["caption_mismatch"] > 0        # un-applied updates


def test_verify_snapshot_mode_passes_on_pinned_premerge_version(merged_table):
    """merged=False = the snapshot-isolation check: a pinned pre-merge
    version must verify byte-faithful against the ORIGINAL expected rows."""
    from ocel_ocpn_lakehouse_ray.table import LakeTable

    t_old = LakeTable.load(merged_table.root, version=1)
    rep = verify_merged_map_only(t_old, n=N, seed=SEED, num_blocks=4,
                                 merged=False)
    assert rep["passed"], rep
    assert rep["pairs"] == N
    # and the POST-merge table must FAIL the pre-merge expectation
    rep2 = verify_merged_map_only(merged_table, n=N, seed=SEED, num_blocks=4,
                                  merged=False)
    assert not rep2["passed"]
    assert rep2["unexpected"] == N // 20  # merge inserts are not pre-merge rows


def test_strict_scan_equivalence_decodes_byte_equal_pairs():
    """strict=True must decode even byte-identical pairs (catches stored
    bytes that are equal on both sides but undecodable)."""
    garbage = b"\x89PNG\r\n\x1a\nnot really a png"
    row = pa.table({
        "image_id": ["img_z"], "bytes": [garbage], "w": [8], "h": [8],
        "fmt": ["png"], "caption": ["c"], "phash": [1],
    })
    ds_a = ray.data.from_arrow(row)
    ds_e = ray.data.from_arrow(row)
    lax = scan_equivalence(ds_a, ds_e, num_parts=1, strict=False)
    assert lax["passed"]  # byte-equality shortcut hides the rot
    strict = scan_equivalence(ray.data.from_arrow(row),
                              ray.data.from_arrow(row), num_parts=1, strict=True)
    assert not strict["passed"] and strict["pixel_fail"] == 1


def test_verify_merged_detects_pixel_corruption(merged_table):
    # a VALID png whose pixels differ from the expected content must trip the
    # post-merge PIXEL gate (which compares decoded actual vs gen_pixels)
    import os

    import pyarrow.parquet as pq

    from ocel_ocpn_lakehouse_ray.functions.codec import encode_image

    t2 = merged_table
    frag = t2.fragments[0]
    path = os.path.join(t2.root, frag.path)
    tbl = pq.read_table(path)
    wrong = encode_image(np.zeros((int(tbl["h"][0].as_py()),
                                   int(tbl["w"][0].as_py()), 3), np.uint8),
                         tbl["fmt"][0].as_py())
    bad = tbl.set_column(
        tbl.schema.get_field_index("bytes"), "bytes",
        pa.array([wrong] + tbl["bytes"].to_pylist()[1:], pa.binary()),
    )
    pq.write_table(bad, path)
    try:
        rep = verify_merged_map_only(t2, n=N, seed=SEED, num_blocks=4)
        assert not rep["passed"]
        assert rep["pixel_fail"] == 1
    finally:
        pq.write_table(tbl, path)


def test_verify_merged_detects_undecodable_bytes(merged_table):
    import os

    import pyarrow.parquet as pq

    t2 = merged_table
    frag = t2.fragments[1]
    path = os.path.join(t2.root, frag.path)
    tbl = pq.read_table(path)
    bad = tbl.set_column(
        tbl.schema.get_field_index("bytes"), "bytes",
        pa.array([b"\x00garbage"] + tbl["bytes"].to_pylist()[1:], pa.binary()),
    )
    pq.write_table(bad, path)
    try:
        rep = verify_merged_map_only(t2, n=N, seed=SEED, num_blocks=4)
        assert not rep["passed"]
        assert rep["pixel_fail"] == 1
    finally:
        pq.write_table(tbl, path)
