"""Predicate DELETE and the predicate-rewrite job behind DELETE and UPDATE
(`stages/update.py`) — the DML verbs next to MERGE INTO (`stages/merge.py`),
absent from the reference's advisory maintenance layer but required by any
real lakehouse user.

Plan over manifest metadata only: fragments whose min/max stats CANNOT
contain a matching row pass through untouched (`FragmentMeta.prune` — the
same pruning MERGE uses); each candidate fragment becomes one independent
rewrite task (one partition of the journal protocol, state/lineage.py) that
reads the fragment, computes the matching rows vectorized
(`pyarrow.compute`) and applies the verb's transform: DELETE drops the
matches, UPDATE applies its SET expressions to them.  A candidate with no
match keeps its original fragment (no rewrite churn).  No shuffle, no
exchange — the same embarrassingly-parallel scaling class as compaction,
bounded by storage bandwidth at 100 TB.  The predicates (and SETs) are the
job's fingerprint: folded into the default job id and checked on resume.

Supported predicates (each a dict, combined with AND):
  {"column": c, "op": "between", "lo": x, "hi": y}
  {"column": c, "op": "eq", "value": v}
  {"column": c, "op": "isin", "values": [...]}
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import pyarrow.compute as pc

from ..state import lineage


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


def _rewrite_fragment(batch: pa.Table, *, root: str, job_id: str,
                      predicates_json: str, transform, count_key: str,
                      target_bytes: int,
                      failpoint: int | None = None) -> pa.Table:
    """One task per candidate fragment: read → match → transform →
    rewrite; a fragment with no match journals a pass-through record."""
    import pyarrow.parquet as pq

    predicates = json.loads(predicates_json)
    for row in batch.to_pylist():
        def kernel(write):
            if failpoint is not None and row["idx"] == failpoint:
                raise RuntimeError(f"failpoint fragment {row['idx']}")
            tbl = pq.read_table(os.path.join(root, row["path"]),
                                use_threads=False)
            mask = _match_expr(tbl, predicates)
            n = int(pc.sum(mask).as_py() or 0)
            if n == 0:  # stats over-approximated; keep the original file
                return [], tbl.num_rows, {count_key: 0}
            out = transform(tbl, mask)
            return (write(out, target_bytes=target_bytes), out.num_rows,
                    {count_key: n})

        lineage.load_or_run(root, job_id, row["frag_id"], kernel,
                            frags_in=[row["frag_id"]])
    return batch.slice(0, 0)


def run_predicate_rewrite(table, verb: str, params: dict, transform, *,
                          job_id: str | None = None,
                          failpoint: int | None = None):
    """The DELETE/UPDATE job: ``verb`` ("delete" | "update") names the job
    id, operation and counter ("deleted" | "updated"); ``params`` holds
    ``predicates`` (plus UPDATE's ``sets``) and is the job's fingerprint;
    ``transform(tbl, mask)`` returns a candidate fragment's new rows.
    Returns (new_table, report)."""
    import ray.data

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
    lineage.open_job(table.root, job_id, fp,
                     lambda: {**params, "base_version": table.version})

    rows = [{"idx": i, "frag_id": f.fragment_id, "path": f.path}
            for i, f in enumerate(candidates)]
    ray.data.from_items(rows).map_batches(
        _rewrite_fragment,
        fn_kwargs=dict(root=table.root, job_id=job_id,
                       predicates_json=json.dumps(predicates),
                       transform=transform, count_key=count_key,
                       target_bytes=table.config.target_fragment_bytes,
                       failpoint=failpoint),
        batch_format="pyarrow", batch_size=1,
    ).materialize()  # drive the tasks; results land in the journal

    add, remove_ids, n = [], set(), 0
    records = lineage.collect(table.root, job_id,
                              [f.fragment_id for f in candidates], verb)
    for rec in records:
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
