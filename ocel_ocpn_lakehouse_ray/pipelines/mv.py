"""Materialized views: any Dataset-producing builder persisted as a LakeTable
and refreshed by full overwrite — the reference's MV layer
(`ops/materialized_views.py:71-79,288-290`: "an MV is just another table,
refreshed by write_iceberg(mode=overwrite)") on our manifest-committed format.

Refresh is the real two-phase overwrite: fragments staged first, then ONE
manifest commit swaps the full fragment set — a reader mid-refresh sees
either the old view or the new view, never a mix.  Refresh stats persist in
the manifest summary chain (the analog of refresh_stats.json,
`ops/view_refresh_scheduler.py:184-201`)."""

from __future__ import annotations

import os
import time

import pyarrow as pa

from ..config import TableConfig
from ..state import manifest as mf
from ..table import LakeTable, schema_to_meta
from .queries import renamed


def _dataset_schema(ds) -> pa.Schema:
    """Arrow schema of a Dataset (handles Ray's Schema wrapper)."""
    s = ds.schema()
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    if isinstance(s, pa.Schema):
        return s
    return pa.schema(
        [pa.field(n, t) for n, t in zip(s.names, s.types)]
    )


class MaterializedView:
    def __init__(self, warehouse_root: str, name: str, builder):
        """builder: callable () -> ray.data.Dataset (or pyarrow Table)."""
        self.root = os.path.join(warehouse_root, "views", name)
        self.name = name
        self.builder = builder

    def exists(self) -> bool:
        return os.path.exists(os.path.join(self.root, mf.LATEST_FILE))

    def refresh(self) -> dict:
        import ray.data

        t0 = time.time()
        result = self.builder()
        if isinstance(result, pa.Table):
            result = ray.data.from_arrow(result)
        batches = [
            b for b in result.iter_batches(batch_format="pyarrow") if b.num_rows
        ]
        data = (
            pa.concat_tables(batches).combine_chunks()
            # empty first refresh must still carry the builder's REAL schema,
            # not a zero-column table (result.schema() knows it even with 0 rows)
            if batches else _dataset_schema(result).empty_table()
        )
        # NOTE: MV results are aggregates (small); a fact-sized view would
        # write its fragments in fan_out tasks (as create_image_table does)
        # instead of a driver concat.
        if not self.exists():
            LakeTable.create(self.root, data.schema,
                             TableConfig(target_fragment_bytes=128 * 1024 * 1024))
        t = LakeTable.load(self.root)
        from ..sources.fragments import write_table_as_fragments

        metas = write_table_as_fragments(
            self.root, data, target_bytes=t.config.target_fragment_bytes,
        ) if data.num_rows else []
        new = t.commit(
            operation="mv-refresh",
            add=metas,
            remove_ids=t.manifest.fragment_ids(),   # full overwrite (S5)
            schema=schema_to_meta(data.schema) if data.num_columns else None,
            summary={"view": self.name, "rows": data.num_rows,
                     "refresh_seconds": round(time.time() - t0, 3)},
        )
        return new.manifest.summary

    def read(self):
        return LakeTable.load(self.root).to_dataset()

    def history(self) -> list[dict]:
        return [m.summary for m in LakeTable.load(self.root).history()
                if m.operation == "mv-refresh"]


class IncrementalAggView(MaterializedView):
    """Grouped-count MV over a LAKE-TABLE source, refreshed INCREMENTALLY:
    when the snapshot range since the last refresh is append-only
    (``LakeTable.diff``), only the delta fragments are aggregated
    (``read_incremental``) and merged additively into the current view —
    the CDC read powering real incremental maintenance.  Any rewrite in the
    range (compact / cluster / merge / rollback) voids additivity, so the
    view falls back to a full rebuild; either way the commit records the
    source version and refresh mode in the manifest summary chain."""

    def __init__(self, warehouse_root: str, name: str, source_root: str,
                 key_cols: list[str]):
        super().__init__(warehouse_root, name, builder=None)
        self.source_root = source_root
        self.key_cols = list(key_cols)

    def _last_source_version(self) -> int | None:
        if not self.exists():
            return None
        for m in reversed(LakeTable.load(self.root).history()):
            v = m.summary.get("source_version")
            if v is not None:
                return int(v)
        return None

    def _agg(self, ds):
        """Distributed grouped count: per-batch partial group_by inside
        map_batches, one tiny shuffle of partials, pandas result."""
        from ray.data.aggregate import Sum

        keys = self.key_cols

        def partial(b: pa.Table) -> pa.Table:
            return renamed(b.select(keys).group_by(keys)
                           .aggregate([([], "count_all")]), {"count_all": "n"})

        out = (ds.map_batches(partial, batch_format="pyarrow")
               .groupby(keys).aggregate(Sum("n", alias_name="n")).to_pandas())
        return out

    def refresh(self) -> dict:
        import pandas as pd

        t0 = time.time()
        src = LakeTable.load(self.source_root)
        last = self._last_source_version()
        mode = "full"
        if last is not None and src.version == last:
            return {"view": self.name, "mode": "noop",
                    "source_version": src.version}
        if last is not None and src.diff(last)["append_only"]:
            mode = "incremental"
            delta = self._agg(src.read_incremental(last, columns=self.key_cols))
            cur = self.read().to_pandas()
            df = (pd.concat([cur, delta], ignore_index=True)
                  .groupby(self.key_cols, as_index=False)["n"].sum())
        else:
            df = self._agg(src.to_dataset(columns=self.key_cols))
        df = df.sort_values(self.key_cols).reset_index(drop=True)
        data = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
        if not self.exists():
            LakeTable.create(self.root, data.schema,
                             TableConfig(target_fragment_bytes=128 * 1024 * 1024))
        t = LakeTable.load(self.root)
        from ..sources.fragments import write_table_as_fragments

        metas = write_table_as_fragments(
            self.root, data, target_bytes=t.config.target_fragment_bytes,
        ) if data.num_rows else []
        new = t.commit(
            operation="mv-refresh",
            add=metas, remove_ids=t.manifest.fragment_ids(),
            schema=schema_to_meta(data.schema),
            summary={"view": self.name, "rows": int(data.num_rows),
                     "mode": mode, "source_version": src.version,
                     "refresh_seconds": round(time.time() - t0, 3)},
        )
        return new.manifest.summary
