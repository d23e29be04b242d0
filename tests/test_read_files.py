"""The engine's one reader (``sources.fragments.read_files``) and the reads
that go through it: rows and their order equal ``pq.read_table``'s for any
block split, filter or widened schema; table scans keep their semantics on
evolved tables; point lookups probe the key Bloom sidecars; and no package
module plans a read through Ray's parquet datasource."""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from ray.data import DataContext

from ocel_ocpn_lakehouse_ray.sources.fragments import _plan_pieces, read_files
from ocel_ocpn_lakehouse_ray.sources.generator import create_image_table, gen_batch
from ocel_ocpn_lakehouse_ray.stages.evolution import evolve_schema
from ocel_ocpn_lakehouse_ray.table import LakeTable

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "ocel_ocpn_lakehouse_ray"
ROWS = 50


@pytest.fixture()
def ordered(monkeypatch):
    """Blocks come back in plan order, so row order can be compared."""
    monkeypatch.setattr(DataContext.get_current().execution_options,
                        "preserve_order", True)


@pytest.fixture()
def files(tmp_path):
    """One file with a single row group and one with many (7 rows each)."""
    def table(lo):
        ids = np.arange(lo, lo + ROWS)
        return pa.table({"k": pa.array(ids, pa.int64()),
                         "s": pa.array([f"v{i}" for i in ids])})
    one, many = str(tmp_path / "one.parquet"), str(tmp_path / "many.parquet")
    pq.write_table(table(0), one)
    pq.write_table(table(ROWS), many, row_group_size=7)
    assert pq.ParquetFile(many).metadata.num_row_groups == 8
    return [one, many]


def _rows(ds) -> pa.Table:
    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow",
                                            batch_size=None))


@pytest.mark.parametrize("num_blocks", [None, 1, 3, 4 * ROWS],
                         ids=["per-file", "1", "3", "past-rows"])
@pytest.mark.parametrize("which", ["one", "many", "both"])
def test_rows_and_order_equal_read_table(files, which, num_blocks, ordered):
    paths = {"one": files[:1], "many": files[1:], "both": files}[which]
    want = pa.concat_tables([pq.read_table(p) for p in paths])
    ds = read_files(paths, num_blocks=num_blocks)
    assert _rows(ds).equals(want)
    if num_blocks is not None:
        assert ds.materialize().num_blocks() == min(num_blocks, len(want))


@pytest.mark.parametrize("num_blocks", [None, 3, 4 * ROWS])
def test_filter_and_projection(files, num_blocks, ordered):
    expr = (pc.field("k") >= 20) & (pc.field("k") <= 75)
    want = pa.concat_tables(
        [pq.read_table(p, filters=expr, columns=["s"]) for p in files])
    got = _rows(read_files(files, columns=["s"], filter=expr,
                           num_blocks=num_blocks))
    assert got.equals(want) and got.num_rows == 56


@pytest.mark.parametrize("num_blocks", [None, 3, 4 * ROWS])
def test_schema_adds_a_null_column(files, num_blocks, ordered):
    wide = pq.read_schema(files[0]).append(pa.field("extra", pa.float64()))
    got = _rows(read_files(files, schema=wide, columns=["k", "extra"],
                           num_blocks=num_blocks))
    want = pa.concat_tables([pq.read_table(p, schema=wide, columns=["k", "extra"])
                             for p in files])
    assert got.equals(want)
    assert got["extra"].null_count == 2 * ROWS


def test_descriptor_blocks_share_one_schema(tmp_path, ordered):
    """Whole-file and split-file descriptors land in blocks of one schema,
    so Ray Data never sees a block's schema change mid-read."""
    paths = []
    for name, lo, n in (("big", 0, 400), ("a", 400, 10), ("b", 410, 10)):
        paths.append(str(tmp_path / f"{name}.parquet"))
        pq.write_table(pa.table({"k": pa.array(np.arange(lo, lo + n), pa.int64())}),
                       paths[-1])
    blocks = _plan_pieces(paths, 6)
    assert len(blocks) == 6 and len({b.schema for b in blocks}) == 1
    assert blocks[0]["length"].null_count == 0 and blocks[-1]["length"].null_count == 1
    want = pa.concat_tables([pq.read_table(p) for p in paths])
    assert _rows(read_files(paths, num_blocks=6)).equals(want)


def test_include_paths_and_metadata_dropped(files, ordered):
    got = _rows(read_files(files, include_paths=True, num_blocks=3))
    assert got.schema.metadata is None
    assert got["path"].to_pylist() == [files[0]] * ROWS + [files[1]] * ROWS


def test_no_module_reads_through_ray_parquet_datasource():
    offenders = [
        path.relative_to(PACKAGE).as_posix()
        for path in sorted(PACKAGE.rglob("*.py"))
        if re.search(r"\bread_parquet\(", path.read_text())
    ]
    assert offenders == []


def test_evolved_table_scan_keeps_fragment_level_pruning_only(tmp_path):
    """On an evolved table a predicate prunes fragments, never rows: an old
    fragment's rows come back with the new column as nulls."""
    t = create_image_table(str(tmp_path / "t"), 80, num_fragments=4)
    t = evolve_schema(t, [pa.field("quality_score", pa.float64())])
    newb = gen_batch(np.arange(80, 100))
    t = t.append_arrow(newb.append_column(
        "quality_score", pa.array(np.linspace(0.0, 1.0, 20))))
    preds = [("quality_score", 0.5, 1.0)]
    df = t.to_dataset(columns=["image_id", "quality_score"],
                      predicates=preds).to_pandas()
    assert list(df.columns) == ["image_id", "quality_score"]
    assert len(df) == sum(f.rows for f in t.live_fragments(preds)) == 100
    assert df["quality_score"].isna().sum() == 80


def _interleaved_table(root: str, n_frags: int = 8, per: int = 50) -> LakeTable:
    """Every fragment's image_id range spans the whole key space."""
    t = LakeTable.create(root, pa.schema([("image_id", pa.string()),
                                          ("v", pa.int64())]))
    for j in range(n_frags):
        ids = np.arange(per) * n_frags + j
        t = t.append_arrow(pa.table({
            "image_id": [f"img-{i:06d}" for i in ids],
            "v": pa.array(ids, pa.int64())}))
    return t


def test_point_lookup_probes_the_key_blooms(tmp_path):
    t = _interleaved_table(str(tmp_path / "t"))
    read = 0
    for i in (8, 123, 257, 390):
        key = f"img-{i:06d}"
        preds = [("image_id", key, key)]
        assert len([f for f in t.fragments if not f.prune("image_id", key, key)]) == 8
        live = t.live_fragments(preds)
        read += len(live)
        df = t.to_dataset(predicates=preds).to_pandas()
        assert df["v"].tolist() == [i]
    assert read <= 5  # one holder each, at ~1 % false positives
    # a range predicate, or a key none holds, keeps the min/max answer
    assert len(t.live_fragments([("image_id", "img-000008", "img-000010")])) == 8
    assert t.to_dataset(predicates=[("image_id", "img-999999", "img-999999")]
                        ).count() == 0
