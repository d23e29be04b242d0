"""Additive-only schema evolution — the real version of the reference's
simulated evolution (`ops/schema_evolution.py:100-162` allocates field ids but
notes "In production, you would use table.update_schema()"; policy
"Additive-only schema changes" at `ops/schema_evolution.py:327-332`).

Semantics:
- only NEW columns may be added (never dropped/renamed/retyped) — enforced;
- evolution is a metadata-only commit (no data rewrite);
- old fragments lack the new columns; the scan layer fills nulls via an
  explicit read schema, so readers see one uniform schema at every version.
"""

from __future__ import annotations

import pyarrow as pa

from ..table import LakeTable, meta_to_schema, schema_to_meta


class SchemaEvolutionError(ValueError):
    pass


def evolve_schema(table: LakeTable, new_fields: list[pa.Field]) -> LakeTable:
    """Append columns to the table schema (metadata-only commit)."""
    current = table.schema
    names = set(current.names)
    for f in new_fields:
        if f.name in names:
            raise SchemaEvolutionError(f"column {f.name!r} already exists (additive-only)")
    evolved = current
    for f in new_fields:
        evolved = evolved.append(f)
    # round-trip through the manifest type registry now, not at read time
    meta = schema_to_meta(evolved)
    meta_to_schema(meta)
    config = dict(table.manifest.config)
    config["schema_evolved"] = True  # scans then skip the row-level filter
    return table.commit(
        operation="evolve-schema",
        add=[],
        remove_ids=set(),
        schema=meta,
        config=config,
        summary={"added_columns": [f.name for f in new_fields]},
    )


def validate_additive(old: pa.Schema, new: pa.Schema) -> None:
    """Check `new` is `old` plus appended columns (audit helper)."""
    if len(new) < len(old):
        raise SchemaEvolutionError("columns were dropped")
    for i, f in enumerate(old):
        if new.field(i).name != f.name or new.field(i).type != f.type:
            raise SchemaEvolutionError(
                f"column {f.name!r} changed (only appends are allowed)"
            )
