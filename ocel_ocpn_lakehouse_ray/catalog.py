"""Catalog: a thin multi-table namespace over one warehouse directory.

The reference's warehouse registers ~20 tables under dotted namespaces
(`ingest/production_bootstrap.py:570-681`: ``cat.create_namespace('ocel')``,
``cat.create_table('ocel.events', ...)``, ``cat.load_table``).  This engine is
one-logical-table-per-root by design (SURVEY §1.4) — the catalog closes the
DDL-surface gap without changing that: ``catalog.json`` maps dotted table
names to table roots under the warehouse, and every per-table operation
(scan, commit, branch, GC) keeps running against the table's own root
exactly as before.  Each table keeps its own manifest chain, lock files and
data directory, so cross-table operations never contend and a warehouse-wide
GC sweep is per-table reachability — one table's expiry can never delete
another's files.

Concurrency: catalog.json mutations are serialized by an flock on a sidecar
lock (same recipe as the manifest ``_latest`` swap) and published by
``write_atomic``, so concurrent ``create_table`` calls from different
processes are safe; the loser of a same-name race gets FileExistsError.
"""

from __future__ import annotations

import fcntl
import json
import os
import re

import pyarrow as pa

from .config import TableConfig
from .state.manifest import write_atomic
from .table import LakeTable

CATALOG_FILE = "catalog.json"
_NAME_SEG = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")


def _validate_name(name: str) -> list[str]:
    segs = name.split(".")
    for s in segs:
        if not s or not _NAME_SEG.match(s) or s in (".", ".."):
            raise ValueError(
                f"invalid table name {name!r}: dot-separated segments of "
                "[A-Za-z0-9_.-], each starting with a word character")
    return segs


class Catalog:
    """Handle on one warehouse directory's table registry."""

    def __init__(self, warehouse: str, entries: dict[str, str]):
        self.warehouse = warehouse
        self._entries = entries  # name -> root path relative to warehouse

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def create(cls, warehouse: str) -> "Catalog":
        os.makedirs(warehouse, exist_ok=True)
        path = os.path.join(warehouse, CATALOG_FILE)
        if os.path.exists(path):
            raise FileExistsError(f"catalog already exists at {path}")
        cat = cls(warehouse, {})
        cat._publish({})
        return cat

    @classmethod
    def load(cls, warehouse: str) -> "Catalog":
        path = os.path.join(warehouse, CATALOG_FILE)
        with open(path) as f:
            doc = json.load(f)
        return cls(warehouse, dict(doc["tables"]))

    def refresh(self) -> "Catalog":
        self._entries = Catalog.load(self.warehouse)._entries
        return self

    # ------------------------------------------------------------ registry io
    def _lock_path(self) -> str:
        return os.path.join(self.warehouse, CATALOG_FILE + ".lock")

    def _publish(self, entries: dict[str, str]) -> None:
        write_atomic(os.path.join(self.warehouse, CATALOG_FILE),
                     json.dumps({"tables": dict(sorted(entries.items()))},
                                indent=1))

    def _mutate(self, fn) -> None:
        """flock → re-read → fn(entries) mutates in place → publish."""
        with open(self._lock_path(), "a+") as lk:
            fcntl.flock(lk, fcntl.LOCK_EX)
            try:
                cur = Catalog.load(self.warehouse)._entries
                fn(cur)
                self._publish(cur)
                self._entries = cur
            finally:
                fcntl.flock(lk, fcntl.LOCK_UN)

    # ------------------------------------------------------------ DDL surface
    def table_names(self) -> list[str]:
        return sorted(self._entries)

    def namespaces(self) -> list[str]:
        """Distinct dotted prefixes, reference `create_namespace` analog."""
        return sorted({n.rsplit(".", 1)[0] for n in self._entries if "." in n})

    def table_root(self, name: str) -> str:
        if name not in self._entries:
            raise KeyError(
                f"unknown table {name!r}; have {self.table_names()}")
        return os.path.join(self.warehouse, self._entries[name])

    def create_table(self, name: str, schema: pa.Schema,
                     config: TableConfig | None = None) -> LakeTable:
        """Reference `cat.create_table('ocel.events', ...)`
        (`ingest/production_bootstrap.py:584-595`).  The table root is the
        name's dotted path under the warehouse."""
        segs = _validate_name(name)
        rel = os.path.join(*segs)

        def mut(entries: dict[str, str]) -> None:
            if name in entries:
                raise FileExistsError(f"table {name!r} already in catalog")
            entries[name] = rel

        self._mutate(mut)
        try:
            return LakeTable.create(os.path.join(self.warehouse, rel),
                                    schema, config)
        except BaseException:
            # roll the registry entry back so a failed bootstrap (e.g.
            # unsupported column type) doesn't leave a dangling name
            self._mutate(lambda e: e.pop(name, None))
            raise

    def load_table(self, name: str, **load_kwargs) -> LakeTable:
        """Reference `cat.load_table` — every LakeTable.load pin
        (version / tag / branch / as_of) passes through."""
        return LakeTable.load(self.table_root(name), **load_kwargs)

    def drop_table(self, name: str, *, purge: bool = False) -> None:
        """Remove the registry entry; ``purge`` also deletes the table's
        files.  Default keeps them (Iceberg DROP TABLE without PURGE)."""
        root = self.table_root(name)

        def mut(entries: dict[str, str]) -> None:
            entries.pop(name, None)

        self._mutate(mut)
        if purge:
            import shutil

            shutil.rmtree(root, ignore_errors=True)

    # ------------------------------------------------------------ warehouse ops
    def tables_dataset(self):
        """The catalog listing as a Dataset (CLI `tables`; metadata-table
        style like LakeTable.meta_dataset — tiny, driver-resident)."""
        import ray.data

        names = self.table_names()
        versions, rows, bytes_, frags = [], [], [], []
        for n in names:
            t = self.load_table(n)
            versions.append(t.version)
            rows.append(t.manifest.total_rows)
            bytes_.append(t.manifest.total_bytes)
            frags.append(len(t.fragments))
        return ray.data.from_arrow(pa.table({
            "name": pa.array(names, pa.string()),
            "root": pa.array([self._entries[n] for n in names], pa.string()),
            "version": pa.array(versions, pa.int64()),
            "rows": pa.array(rows, pa.int64()),
            "bytes": pa.array(bytes_, pa.int64()),
            "fragments": pa.array(frags, pa.int64()),
        }))

    def gc_all(self, *, keep_last: int, max_age_days: float | None = None,
               orphan_grace_seconds: float = 3600.0,
               now: float | None = None) -> dict[str, dict]:
        """One warehouse-wide maintenance sweep: per-table expire+GC.
        Reachability is computed per table root, so the sweep can never
        cross the streams — table A's expiry never considers (or deletes)
        table B's fragments."""
        from .stages.gc import expire_and_gc

        return {
            name: expire_and_gc(self.table_root(name), keep_last=keep_last,
                                max_age_days=max_age_days,
                                orphan_grace_seconds=orphan_grace_seconds,
                                now=now)
            for name in self.table_names()
        }
