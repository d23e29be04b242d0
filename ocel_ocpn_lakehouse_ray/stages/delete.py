"""Predicate DELETE and the predicate-rewrite job behind DELETE and UPDATE
(`stages/update.py`) — the DML verbs next to MERGE INTO (`stages/merge.py`),
absent from the reference's advisory maintenance layer but required by any
real lakehouse user.

Plan over manifest metadata only: fragments whose min/max stats CANNOT
contain a matching row pass through untouched (`FragmentMeta.prune` — the
same pruning MERGE uses); each candidate fragment becomes a one-fragment bin
of compaction's fragment-rewrite job (`compaction.rewrite_bins`: one task
and one journal partition ``bin-NNNNN`` per candidate, state/lineage.py).
The task computes the matching rows vectorized (`pyarrow.compute`) and
applies the verb's transform: DELETE drops the matches, UPDATE applies its
SET expressions to them.  A candidate with no match keeps its original
fragment (no rewrite churn).  A rewritten fragment that a clustering stamped
with its key range stays in its range (`clustering.write_in_range`): DELETE
never moves a row out, and an UPDATE writes only the rows whose cluster key
it moved (a SET on phash, w, h or image_id) as a separate unstamped
fragment, so the next re-cluster routes only those.  No shuffle, no
exchange — the same embarrassingly-parallel scaling class as compaction,
bounded by storage bandwidth at 100 TB.  The predicates (and SETs) are
folded into the default job id; they and the candidate fragment ids are the
job's fingerprint, checked on resume, so a resume over a changed candidate
list raises instead of matching records to the wrong fragments.

Supported predicates (each a dict, combined with AND):
  {"column": c, "op": "between", "lo": x, "hi": y}
  {"column": c, "op": "eq", "value": v}
  {"column": c, "op": "isin", "values": [...]}
"""

from __future__ import annotations

import time

import pyarrow as pa
import pyarrow.compute as pc

from ..state import lineage
from .compaction import rewrite_bins


def _match_expr(batch: pa.Table, predicates: list[dict]):
    """Boolean mask of rows MATCHING every predicate (AND) — the rows
    DELETE drops and UPDATE rewrites."""
    import numpy as np

    # explicit bool dtype: pa.array([]) would infer NULL type (the empty-
    # batch bug class in ROUND_NOTES_r2.md)
    mask = pa.array(np.ones(batch.num_rows, dtype=bool))
    for p in predicates:
        col = batch[p["column"]]
        op = p["op"]
        if op == "between":
            m = pc.and_(pc.greater_equal(col, pa.scalar(p["lo"])),
                        pc.less_equal(col, pa.scalar(p["hi"])))
        elif op == "eq":
            m = pc.equal(col, pa.scalar(p["value"]))
        elif op == "isin":
            m = pc.is_in(col, value_set=pa.array(p["values"]))
        else:
            raise ValueError(f"unsupported delete predicate op {op!r}")
        mask = pc.and_(mask, pc.fill_null(m, False))
    return mask


def _fragment_may_match(frag, predicates: list[dict]) -> bool:
    """Stats check: False only when the fragment provably holds no match."""
    for p in predicates:
        c, op = p["column"], p["op"]
        if op == "between" and frag.prune(c, p["lo"], p["hi"]):
            return False
        if op == "eq" and frag.prune(c, p["value"], p["value"]):
            return False
        if op == "isin" and p["values"] and all(
                frag.prune(c, v, v) for v in p["values"]):
            return False
    return True


def run_predicate_rewrite(table, verb: str, params: dict, transform, *,
                          job_id: str | None = None,
                          failpoint: int | None = None):
    """The DELETE/UPDATE job: ``verb`` ("delete" | "update") names the job
    id, operation and counter ("deleted" | "updated"); ``params`` holds
    ``predicates`` (plus UPDATE's ``sets``) and, with the candidate ids,
    is the job's fingerprint; ``transform(tbl, mask)`` returns a candidate
    fragment's new rows.  Returns (new_table, report)."""
    count_key = f"{verb}d"
    predicates = params["predicates"]
    fp = lineage.fingerprint(*params.values())
    job_id = job_id or lineage.default_job_id(verb, table, fp)
    t0 = time.time()
    candidates = [f for f in table.fragments
                  if _fragment_may_match(f, predicates)]
    pruned = len(table.fragments) - len(candidates)
    if not candidates:
        return table, {"job_id": job_id, count_key: 0, "rewritten": 0,
                       "pruned_fragments": pruned, "seconds": 0.0}
    # the candidate ids join the checked fingerprint (not the default job
    # id): a resume after another commit re-lists the candidates, and
    # records keyed by candidate index would land on the wrong fragments
    lineage.open_job(table.root, job_id,
                     lineage.fingerprint(fp, [f.fragment_id for f in candidates]),
                     lambda: {**params, "base_version": table.version})

    def rewrite(tbl: pa.Table):
        mask = _match_expr(tbl, predicates)
        n = int(pc.sum(mask).as_py() or 0)
        # no match (stats over-approximated): the original file stays
        return (transform(tbl, mask) if n else None), {count_key: n}

    add, remove_ids, n = [], set(), 0
    for rec in rewrite_bins(table, job_id, [[f] for f in candidates], rewrite,
                            failpoint=failpoint):
        if rec.extra[count_key] == 0:  # pass-through: original stays live
            continue
        add.extend(rec.out_metas())
        remove_ids.update(rec.frags_in)
        n += rec.extra[count_key]
    elapsed = time.time() - t0
    new_table = table.commit(
        operation=verb, add=add, remove_ids=remove_ids,
        summary={"job_id": job_id, count_key: n,
                 "rewritten": len(remove_ids), "pruned_fragments": pruned,
                 "seconds": round(elapsed, 3)})
    return new_table, dict(new_table.manifest.summary)


def _drop_matches(tbl: pa.Table, mask) -> pa.Table:
    return tbl.filter(pc.invert(mask))


def run_delete(table, predicates: list[dict], *, job_id: str | None = None,
               failpoint: int | None = None):
    """Execute DELETE WHERE <predicates ANDed>; returns (new_table, report)."""
    return run_predicate_rewrite(table, "delete", {"predicates": predicates},
                                 _drop_matches, job_id=job_id,
                                 failpoint=failpoint)
