"""Predicate UPDATE: copy-on-write row mutation — completes the DML triple
next to MERGE INTO (`stages/merge.py`) and DELETE (`stages/delete.py`).

Runs the predicate-rewrite job of `stages/delete.py` with the SET
expressions as its per-fragment transform.

SET expressions (applied in order to rows matching the WHERE predicates):
  {"column": c, "set": v}                       -> constant assignment
  {"column": c, "scale": f}                     -> numeric col * f
  {"column": c, "prefix": s}                    -> string s + col
  {"column": c, "binop": B}                     -> column-from-column arithmetic
  {"column": c, "case": {"when": P, "then": V, "else": V?}}
                                                -> conditional (CASE WHEN) set

where B = {"op": "+|-|*|/", "lhs": V, "rhs": V} and a value spec V is
{"col": name} | {"lit": value} | {"binop": B} (nestable); "case" uses the
same predicate dicts as WHERE and falls back to the current value when
"else" is omitted.  Everything evaluates as vectorized pyarrow.compute
kernels — no per-row Python in the rewrite tasks.
"""

from __future__ import annotations

from functools import partial

import pyarrow as pa
import pyarrow.compute as pc

from .delete import _match_expr, run_predicate_rewrite


_BINOPS = {"+": pc.add, "-": pc.subtract, "*": pc.multiply, "/": pc.divide}


def _eval_value(tbl: pa.Table, spec: dict):
    """Value spec → Arrow array/scalar: {"col": name} | {"lit": v} |
    {"binop": {"op", "lhs", "rhs"}} (nestable)."""
    if "col" in spec:
        return tbl[spec["col"]]
    if "lit" in spec:
        return pa.scalar(spec["lit"])
    if "binop" in spec:
        b = spec["binop"]
        if b["op"] not in _BINOPS:
            raise ValueError(f"unsupported binop {b['op']!r}")
        return _BINOPS[b["op"]](_eval_value(tbl, b["lhs"]),
                                _eval_value(tbl, b["rhs"]))
    raise ValueError(f"unsupported value spec {spec!r}")


def _apply_sets(tbl: pa.Table, mask, sets: list[dict]) -> pa.Table:
    for s in sets:
        col = tbl[s["column"]]
        if "set" in s:
            new = pc.cast(pa.array([s["set"]] * tbl.num_rows), col.type)
        elif "scale" in s:
            new = pc.cast(pc.multiply(col, pa.scalar(s["scale"])), col.type)
        elif "prefix" in s:
            new = pc.binary_join_element_wise(
                pa.array([s["prefix"]] * tbl.num_rows), pc.cast(col, pa.string()), "")
        elif "binop" in s:
            new = pc.cast(_eval_value(tbl, {"binop": s["binop"]}), col.type)
        elif "case" in s:
            c = s["case"]
            cm = _match_expr(tbl, c["when"])
            then = pc.cast(_eval_value(tbl, c["then"]), col.type)
            els = (pc.cast(_eval_value(tbl, c["else"]), col.type)
                   if "else" in c else col)
            new = pc.if_else(cm, then, els)
        else:
            raise ValueError(f"unsupported SET expression {s!r}")
        merged = pc.if_else(mask, new, col)
        i = tbl.schema.get_field_index(s["column"])
        tbl = tbl.set_column(i, tbl.schema.field(i), pc.cast(merged, col.type))
    return tbl


def run_update(table, predicates: list[dict], sets: list[dict], *,
               job_id: str | None = None, failpoint: int | None = None):
    """Execute UPDATE SET <sets> WHERE <predicates ANDed>; returns
    (new_table, report)."""
    return run_predicate_rewrite(
        table, "update", {"predicates": predicates, "sets": sets},
        partial(_apply_sets, sets=sets), job_id=job_id, failpoint=failpoint)
