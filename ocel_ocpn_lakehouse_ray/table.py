"""LakeTable: the engine's table handle — create / load(pin) / scan / append /
commit, over the manifest chain in state/manifest.py.

Replaces the reference's PyIceberg ``catalog.load_table`` + Daft
``read_iceberg`` pair (`ops/maintenance_system.py:16-27`,
`agent/process_mining_queries.py:79`): `LakeTable.load` pins one manifest
version (snapshot isolation), `to_dataset` turns its live fragment list into a
`ray.data.Dataset` with column pruning at the read and fragment-level min/max
predicate pruning (the point of manifest column stats, SURVEY.md §1.4/M6).
"""

from __future__ import annotations

import os

import pyarrow as pa

from .config import TableConfig
from .sources.fragments import write_table_as_fragments
from .state import manifest as mf

_TYPE_PARSERS = {
    "string": pa.string(),
    "large_string": pa.large_string(),
    "binary": pa.binary(),
    "large_binary": pa.large_binary(),
    "bool": pa.bool_(),
    "int8": pa.int8(),
    "int16": pa.int16(),
    "int32": pa.int32(),
    "int64": pa.int64(),
    "uint32": pa.uint32(),
    "uint64": pa.uint64(),
    "float": pa.float32(),
    "double": pa.float64(),
    "timestamp[us]": pa.timestamp("us"),
    "date32[day]": pa.date32(),
    "list<item: float>": pa.list_(pa.float32()),
    "list<element: float>": pa.list_(pa.float32()),
}


def schema_to_meta(schema: pa.Schema) -> list:
    return [[f.name, str(f.type)] for f in schema]


def meta_to_schema(meta: list) -> pa.Schema:
    fields = []
    for name, tstr in meta:
        if tstr not in _TYPE_PARSERS:
            raise ValueError(f"unsupported type string {tstr!r} for column {name!r}")
        fields.append(pa.field(name, _TYPE_PARSERS[tstr]))
    return pa.schema(fields)


# The input_hint table shape (BASELINE.json): image + caption pairs.
IMAGE_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)


class LakeTable:
    def __init__(self, root: str, manifest: mf.Manifest,
                 branch: str | None = None):
        self.root = root
        self.manifest = manifest
        #: the chain this handle reads and commits: None = main, else the
        #: named branch's chain — main's _latest never moves for it
        self.branch = branch

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def create(cls, root: str, schema: pa.Schema, config: TableConfig | None = None) -> "LakeTable":
        """Bootstrap (reference S10, `ingest/production_bootstrap.py:570-595`):
        manifest v0 with an empty fragment list."""
        config = config or TableConfig()
        # fail fast at DDL time: every column type must round-trip through
        # the manifest's type strings, or loads would fail later instead
        meta_to_schema(schema_to_meta(schema))
        mf.init_table_dirs(root)
        m = mf.Manifest(
            version=0,
            parent=None,
            created_at=__import__("time").time(),
            operation="create",
            schema=schema_to_meta(schema),
            config=config.to_dict(),
            fragments=[],
        )
        mf.publish_manifest(root, m)
        return cls(root, m)

    @classmethod
    def load(cls, root: str, version: int | None = None,
             tag: str | None = None, branch: str | None = None,
             as_of: float | None = None) -> "LakeTable":
        """Pin one manifest version; None = current latest.  ``tag`` resolves
        a named snapshot ref (mf.set_tag) — tagged versions are protected
        from snapshot expiry.  ``branch`` opens a writable branch head
        (state/branches.py): reads see the branch snapshot, commits advance
        the branch, main is untouched until publish_branch.  ``as_of`` (unix
        seconds) resolves the LATEST surviving main-chain version whose
        commit time is <= as_of (Iceberg FOR TIMESTAMP AS OF): among the
        not-yet-expired manifests, the one that was current at that instant."""
        if sum(x is not None for x in (version, tag, branch, as_of)) > 1:
            raise ValueError("pass at most one of version / tag / branch / as_of")
        if as_of is not None:
            best = None
            for v in mf.list_manifest_versions(root):
                m = mf.load_manifest(root, v)
                if m.created_at <= as_of and (best is None or v > best):
                    best = v
            if best is None:
                raise FileNotFoundError(
                    f"no surviving snapshot at or before as_of={as_of}")
            version = best
        if tag is not None:
            tags = mf.read_tags(root)
            if tag not in tags:
                raise KeyError(f"unknown tag {tag!r}; have {sorted(tags)}")
            version = tags[tag]
        return cls(root, mf.load_manifest(root, version, branch=branch),
                   branch=branch)

    def tag(self, name: str) -> dict[str, int]:
        """Name THIS pinned version (Iceberg tag ref)."""
        if self.branch is not None:
            raise ValueError("tags name main-chain versions; publish first")
        return mf.set_tag(self.root, name, self.version)

    # ------------------------------------------------------------ branches
    def create_branch(self, name: str) -> "LakeTable":
        """Fork a writable branch at THIS snapshot and return a handle on
        it (Iceberg branch ref; write-audit-publish entry point)."""
        from .state import branches as br

        if self.branch is not None:
            raise ValueError("branching from a branch is not supported")
        fork = br.create_branch(self.root, name, from_version=self.version)
        return LakeTable(self.root, fork, branch=name)

    def publish_branch(self, name: str, *, delete: bool = True) -> "LakeTable":
        """Apply the branch's net change onto current main as one commit
        (CommitConflict if main rewrote what the branch rewrote)."""
        from .state import branches as br

        new = br.publish_branch(self.root, name, delete=delete)
        return LakeTable(self.root, new)

    def branches(self) -> list[str]:
        from .state import branches as br

        return br.list_branches(self.root)

    def refresh(self) -> "LakeTable":
        self.manifest = mf.load_manifest(self.root, branch=self.branch)
        return self

    # ------------------------------------------------------------ properties
    @property
    def version(self) -> int:
        return self.manifest.version

    @property
    def schema(self) -> pa.Schema:
        return meta_to_schema(self.manifest.schema)

    @property
    def config(self) -> TableConfig:
        return TableConfig.from_dict(self.manifest.config)

    @property
    def fragments(self) -> list:
        return self.manifest.fragments

    def fragment_paths(self, fragments=None) -> list[str]:
        # An explicit empty list must mean ZERO paths (e.g. a pure-insert MERGE
        # where min/max pruning excluded every fragment) — `fragments or ...`
        # would silently fall back to ALL fragments and duplicate the table.
        frags = self.fragments if fragments is None else fragments
        return [os.path.join(self.root, f.path) for f in frags]

    # ------------------------------------------------------------ scan
    def live_fragments(self, predicates: list[tuple] | None = None) -> list:
        """Fragments surviving min/max pruning for [(col, lo, hi), ...].  A
        point predicate (lo == hi) on the column a fragment's key Bloom
        sidecar covers also probes that sidecar: after clustering the key
        ranges interleave, and min/max alone would keep nearly every
        fragment for a lookup."""
        frags = self.fragments
        for col, lo, hi in predicates or []:
            frags = [f for f in frags if not f.prune(col, lo, hi)]
            if isinstance(lo, str) and lo == hi:
                frags = [f for f in frags if self._bloom_may_hold(f, col, lo)]
        return frags

    def _bloom_may_hold(self, frag, column: str, key: str) -> bool:
        """False only when the fragment's sidecar on ``column`` proves
        ``key`` absent; no sidecar, or an unreadable one, keeps the
        fragment."""
        from .functions import bloom

        info = frag.stats.get("__bloom")
        if not info or info.get("column") != column:
            return True
        try:
            bits, k = bloom.read_sidecar_cached(
                os.path.join(self.root, info["path"]))
        except (OSError, ValueError):
            return True
        return bool(bloom.might_contain(bits, [key], k)[0])

    def to_dataset(
        self,
        columns: list[str] | None = None,
        predicates: list[tuple] | None = None,
        *,
        num_blocks: int | None = None,
    ):
        """Live fragment list → ray.data.Dataset (reference S2) through the
        engine reader (``sources.fragments.read_files``; ``num_blocks`` passes
        on).  Columns are pruned at the read; predicates [(col, lo, hi), ...]
        prune at FOUR levels: whole fragments via manifest stats and key
        Bloom sidecars (``live_fragments``), row groups via parquet
        statistics, and rows via the pushed-down arrow filter expression —
        the scan returns exactly the rows in every predicate's inclusive
        range.  The read schema is the table's, so fragments written before
        an additive schema evolution read the appended columns as nulls.
        Evolved tables skip the row-level filter: a row of an old fragment
        would otherwise be dropped for its null-filled predicate column;
        fragment-level pruning still applies."""
        from .sources.fragments import read_files

        expr = None
        if predicates and not self.manifest.config.get("schema_evolved"):
            import pyarrow.compute as _pc

            for col, lo, hi in predicates:
                for e in ((_pc.field(col) >= lo) if lo is not None else None,
                          (_pc.field(col) <= hi) if hi is not None else None):
                    if e is not None:
                        expr = e if expr is None else (expr & e)
        return read_files(self.fragment_paths(self.live_fragments(predicates)),
                          columns=columns, schema=self.schema, filter=expr,
                          num_blocks=num_blocks)

    def to_arrow(self, columns: list[str] | None = None) -> pa.Table:
        """Driver-side full read — ONLY for tests/small tables."""
        import pyarrow.parquet as pq

        if not self.fragments:
            tbl = self.schema.empty_table()
            return tbl.select(columns) if columns else tbl
        parts = [pq.read_table(p, columns=columns) for p in self.fragment_paths()]
        return pa.concat_tables(parts).combine_chunks()

    # ------------------------------------------------------------ write paths
    def commit(self, *, operation: str, add: list, remove_ids: set,
               summary: dict | None = None,
               schema: list | None = None,
               config: dict | None = None) -> "LakeTable":
        """Commit a fragment-set change.  ``schema``/``config`` default to
        this table's current values; replication's mirror mode overrides
        them so source schema evolution propagates to followers."""
        new = mf.commit_version(
            self.root,
            base_version=self.version,
            operation=operation,
            add=add,
            remove_ids=remove_ids,
            schema=schema if schema is not None else self.manifest.schema,
            config=config if config is not None else self.manifest.config,
            summary=summary,
            branch=self.branch,
        )
        return LakeTable(self.root, new, branch=self.branch)

    def rollback(self, version: int) -> "LakeTable":
        """Restore an earlier snapshot's fragment list as a NEW commit —
        Iceberg ``rollback_to_snapshot`` semantics (the reference's tables
        sit on exactly that Iceberg surface): history is preserved, nothing
        is deleted, the rolled-back-to state simply becomes the newest
        version.  Concurrent-writer safety comes from the normal commit
        conflict check.  Fails with FileNotFoundError if the target
        manifest was expired or any of its data files was GC'd."""
        try:
            target = mf.load_manifest(self.root, version, branch=self.branch)
        except FileNotFoundError as e:
            raise FileNotFoundError(
                f"cannot rollback to v{version}: the manifest was expired "
                f"(snapshot retention) — {e}") from e
        missing = [f.path for f in target.fragments
                   if not os.path.exists(os.path.join(self.root, f.path))]
        if missing:
            raise FileNotFoundError(
                f"cannot rollback to v{version}: {len(missing)} data files "
                f"were garbage-collected (first: {missing[0]})")
        cur_ids = {f.fragment_id for f in self.fragments}
        tgt_ids = {f.fragment_id for f in target.fragments}
        add = [f for f in target.fragments if f.fragment_id not in cur_ids]
        return self.commit(
            operation="rollback", add=add, remove_ids=cur_ids - tgt_ids,
            summary={"rollback_to": version,
                     "restored_fragments": len(target.fragments),
                     "restored_rows": sum(f.rows for f in target.fragments)})

    def diff(self, from_version: int, to_version: int | None = None) -> dict:
        """Snapshot diff: fragments/rows added and removed between two
        versions, plus the operations in the range — the metadata a CDC /
        incremental-refresh consumer needs to decide whether the range is
        append-only (every Iceberg-style incremental scan has the same
        caveat: a rewrite re-adds surviving rows as new fragments)."""
        a = mf.load_manifest(self.root, from_version, branch=self.branch)
        b = (self.manifest if to_version is None
             else mf.load_manifest(self.root, to_version, branch=self.branch))
        a_ids = {f.fragment_id for f in a.fragments}
        b_ids = {f.fragment_id for f in b.fragments}
        added = [f for f in b.fragments if f.fragment_id not in a_ids]
        removed = [f for f in a.fragments if f.fragment_id not in b_ids]
        ops = [m.operation for m in self.history()
               if a.version < m.version <= b.version]
        return {
            "from_version": a.version, "to_version": b.version,
            "added_fragments": len(added), "removed_fragments": len(removed),
            "added_rows": sum(f.rows for f in added),
            "removed_rows": sum(f.rows for f in removed),
            "operations": ops,
            # ops only covers manifests that still EXIST: if snapshot
            # retention expired an intermediate rewrite (merge/compact/
            # delete) the op list can look all-append.  removed==0 is
            # computed purely from the two endpoint manifests, so it stays
            # correct however many intermediates were expired — a rewrite
            # in the range always drops at least one endpoint fragment.
            "append_only": (all(op == "append" for op in ops)
                            and len(removed) == 0),
        }

    def read_incremental(self, from_version: int,
                         to_version: int | None = None,
                         columns: list[str] | None = None):
        """Dataset over fragments ADDED between two snapshots — incremental
        (CDC-style) consumption so a downstream pipeline (MV refresh, index
        build, training-data delta export) reads only new data instead of
        rescanning the table.  For ranges containing rewrite commits
        (compact / cluster / merge / rollback) the added fragments include
        rewritten-but-logically-unchanged rows; check
        ``diff()['append_only']`` first when exactly-once row delivery
        matters (the Iceberg incremental-scan contract)."""
        from .sources.fragments import read_files

        b = self if to_version is None else LakeTable(
            self.root, mf.load_manifest(self.root, to_version, branch=self.branch))
        a_ids = {f.fragment_id for f in mf.load_manifest(
            self.root, from_version, branch=self.branch).fragments}
        added = [f for f in b.fragments if f.fragment_id not in a_ids]
        return read_files(b.fragment_paths(added), columns=columns,
                          schema=b.schema)

    def append_arrow(self, tbl: pa.Table, *, name_parts: tuple | None = None) -> "LakeTable":
        """Small/driver-side append (reference S4 `write_iceberg(mode=append)`)."""
        metas = write_table_as_fragments(
            self.root, tbl, target_bytes=self.config.target_fragment_bytes,
            name_parts=name_parts,
        )
        return self.commit(operation="append", add=metas, remove_ids=set(),
                           summary={"added_fragments": len(metas), "added_rows": tbl.num_rows})

    # ------------------------------------------------------------ history
    def history(self) -> list[mf.Manifest]:
        return [mf.load_manifest(self.root, v, branch=self.branch)
                for v in mf.list_manifest_versions(self.root, branch=self.branch)]

    def meta_dataset(self, kind: str):
        """Iceberg-style metadata tables (`table$files` / `$snapshots` /
        `$refs`) as a queryable Dataset — the metadata is already
        driver-resident (the manifest chain), so this is a zero-copy wrap,
        and downstream map_batches/groupby run distributed like any scan.

        kinds: ``files`` (live fragments of THIS snapshot), ``snapshots``
        (the retained manifest chain), ``refs`` (tags + branch heads)."""
        import json as _json

        import ray.data

        if kind == "files":
            frags = self.fragments
            tbl = pa.table({
                "fragment_id": pa.array([f.fragment_id for f in frags], pa.string()),
                "path": pa.array([f.path for f in frags], pa.string()),
                "rows": pa.array([f.rows for f in frags], pa.int64()),
                "bytes": pa.array([f.bytes for f in frags], pa.int64()),
                "stats": pa.array([_json.dumps(f.stats, sort_keys=True)
                                   for f in frags], pa.string()),
            })
        elif kind == "snapshots":
            hist = self.history()
            tbl = pa.table({
                "version": pa.array([m.version for m in hist], pa.int64()),
                "parent": pa.array([m.parent for m in hist], pa.int64()),
                "created_at": pa.array([m.created_at for m in hist], pa.float64()),
                "operation": pa.array([m.operation for m in hist], pa.string()),
                "fragments": pa.array([len(m.fragments) for m in hist], pa.int64()),
                "rows": pa.array([m.total_rows for m in hist], pa.int64()),
                "bytes": pa.array([m.total_bytes for m in hist], pa.int64()),
                "summary": pa.array([_json.dumps(m.summary, sort_keys=True)
                                     for m in hist], pa.string()),
            })
        elif kind == "refs":
            from .state import branches as br

            tags = mf.read_tags(self.root)
            names = sorted(tags) + br.list_branches(self.root)
            kinds = ["tag"] * len(tags) + ["branch"] * (len(names) - len(tags))
            heads = ([tags[n] for n in sorted(tags)]
                     + [mf.read_latest_version(self.root, branch=n)
                        for n in names[len(tags):]])
            tbl = pa.table({
                "name": pa.array(names, pa.string()),
                "type": pa.array(kinds, pa.string()),
                "version": pa.array(heads, pa.int64()),
            })
        else:
            raise ValueError(f"unknown metadata table {kind!r} "
                             "(files | snapshots | refs)")
        return ray.data.from_arrow(tbl)
