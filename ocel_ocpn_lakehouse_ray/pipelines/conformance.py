"""Trace-variant analysis and conformance checking over the events table —
the reference's two remaining analytics products.

- **Trace variants** (reference `ops/materialized_views.py:370-409`,
  `analytics/process_discovery.py:51-94`): group-collect each trace's
  time-ordered event types, join with '->' into a variant pattern, count
  traces per pattern.  One bucketed group shuffle (per-user rows co-locate),
  then a tiny pattern aggregate.

- **Conformance** (reference `analytics/conformance_checking.py:186-235`):
  score each trace against the discovered model.  The model here is the
  trace-support DFG — edges observed in at least ``median`` many traces
  (the edge space is |event_types|², tiny at any corpus scale, so the model
  is a driver-side set broadcast into the scoring stage).
      fitness   = |trace edges ∩ model| / |trace edges|
      precision = |trace edges ∩ model| / |model|
      score     = 0.7·fitness + 0.3·precision   (reference weighting,
                  `analytics/conformance_checking.py:235`)

Both are SQL-expressible → oracle-paired CORRECTNESS entries.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .queries import _read, bucketed_groups


def _trace_edge_rows(sf_dir: str):
    """(user_id, src, dst) DISTINCT direct-follows edges per trace — the
    shared input of both the model DFG (trace-support counts) and the
    per-trace scoring.  One bucketed-group shuffle on user_id."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts", "event_id"])

    def edges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        prev = g.groupby("user_id")["event_type"].shift(1)
        mask = prev.notna()
        out = pd.DataFrame({
            "user_id": g["user_id"][mask].to_numpy(),
            "src": prev[mask].to_numpy(),
            "dst": g["event_type"][mask].to_numpy(),
        })
        return out.drop_duplicates()

    return bucketed_groups(ds, "user_id", edges)


def q_trace_variants(sf_dir: str):
    """Variant pattern ('->'-joined event-type sequence) per trace, counted —
    the reference's most-used MV (#3 of 3)."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts", "event_id"])

    def variant(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        pat = g.groupby("user_id")["event_type"].agg("->".join)
        # map-side combine: count patterns inside the bucket so the pattern
        # re-aggregation shuffle moves per-bucket partials, not one row per
        # trace (the same pattern as q_direct_follows).
        return (pd.DataFrame({"pattern": pat.to_numpy()})
                .groupby("pattern", sort=False).size().reset_index(name="n_traces"))

    from .queries import fold_partials

    pat_ds = bucketed_groups(ds, "user_id", variant)
    # partials bounded by distinct patterns × buckets → budget-guarded
    # driver fold (bucketed past the budget — trace-variant cardinality
    # CAN explode on pathological logs)
    out = fold_partials(pat_ds, ["pattern"], ["n_traces"])
    return out if out is not None else pa.schema(
        [("pattern", pa.string()), ("n_traces", pa.int64())]).empty_table()


SQL_TRACE_VARIANTS = """
WITH seq AS (
  SELECT user_id,
         string_agg(event_type, '->' ORDER BY ts, event_id) AS pattern
  FROM events GROUP BY user_id
)
SELECT pattern, count(*) AS n_traces FROM seq GROUP BY pattern
"""


def q_conformance(sf_dir: str):
    """Per-trace conformance scores vs the trace-support DFG model."""
    te = _trace_edge_rows(sf_dir).materialize()
    # ^ bounded: ≤ traces × |event_types|² rows, consumed twice (model + score)

    # model: edges supported by >= median-many traces.  The edge space is
    # event-type² (tiny at any corpus scale), so instead of an AllToAll
    # groupby we count per block and fold the <= |types|²-row partials on
    # the driver — one exchange fewer (measured 2.3 s -> 1.7 s query total).
    # fold_partials is budget-guarded (bucketed past FOLD_BUDGET partial
    # rows), so the shape is scale-proof by construction, not by assumption.
    def dfg_part(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({"src": b["src"].to_pylist(), "dst": b["dst"].to_pylist()})
        out = df.groupby(["src", "dst"], sort=False).size().reset_index(name="c")
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    from .queries import _pq, fold_partials

    folded = fold_partials(te.map_batches(dfg_part, batch_format="pyarrow"),
                           ["src", "dst"], ["c"])
    if folded is None:
        # empty events table: no edges, no model — empty typed report.
        # te.schema() is None on an empty dataset, so pull user_id's type
        # from the source parquet footer (metadata-only read).  Returned as
        # a pyarrow Table (registry contract allows it): Ray's to_pandas()
        # on an empty Dataset drops the columns, a typed Table keeps them.
        import pyarrow.parquet as _pq_mod

        uid_t = _pq_mod.read_schema(_pq(sf_dir, "events")).field("user_id").type
        empty = pa.schema([("user_id", uid_t), ("fitness", pa.float64()),
                           ("prec", pa.float64()), ("score", pa.float64())])
        return empty.empty_table()
    dfg = folded.to_pandas()
    thresh = float(np.median(dfg["c"].to_numpy()))
    model = {
        (r.src, r.dst)
        for r in dfg[dfg["c"] >= thresh].itertuples(index=False)
    }
    model_size = len(model)

    import ray

    model_ref = ray.put(model)

    def score_partial(b: pa.Table) -> pa.Table:
        import ray as _r

        m = _r.get(model_ref)
        hits = np.fromiter(
            (1 if (s, d) in m else 0
             for s, d in zip(b["src"].to_pylist(), b["dst"].to_pylist())),
            dtype=np.int64, count=b.num_rows,
        )
        # per-user partial sums within the block (users are bucketed so most
        # appear in exactly one block): the per-user shuffle then moves one
        # partial row per (user, block) instead of one per trace edge.
        df = pd.DataFrame({
            "user_id": b["user_id"].to_numpy(zero_copy_only=False),
            "n_hit": hits,
        })
        df["n_edges"] = 1
        out = df.groupby("user_id", sort=False)[["n_edges", "n_hit"]].sum().reset_index()
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    # per-(user, block) partials are bounded by users × blocks-per-user —
    # budget-guarded driver fold (bucketed fallback past it)
    b = fold_partials(te.map_batches(score_partial, batch_format="pyarrow"),
                      ["user_id"], ["n_edges", "n_hit"])
    if b is None:
        uid_t = te.schema().base_schema.field("user_id").type \
            if te.schema() is not None else pa.int64()
        return pa.schema([("user_id", uid_t), ("fitness", pa.float64()),
                          ("prec", pa.float64()),
                          ("score", pa.float64())]).empty_table()
    hit = pc.cast(b["n_hit"], pa.float64())
    fitness = pc.divide(hit, pc.cast(b["n_edges"], pa.float64()))
    precision = pc.divide(hit, pa.scalar(float(model_size)))
    score = pc.add(pc.multiply(pa.scalar(0.7), fitness),
                   pc.multiply(pa.scalar(0.3), precision))
    return pa.table({
        "user_id": b["user_id"],
        "fitness": fitness,
        "prec": precision,
        "score": score,
    })


SQL_CONFORMANCE = """
WITH s AS (
  SELECT user_id, event_type AS dst,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS src
  FROM events
),
te AS (SELECT DISTINCT user_id, src, dst FROM s WHERE src IS NOT NULL),
dfg AS (SELECT src, dst, count(*) AS n FROM te GROUP BY 1, 2),
model AS (SELECT src, dst FROM dfg WHERE n >= (SELECT median(n) FROM dfg)),
stats AS (
  SELECT te.user_id,
         count(*) AS n_edges,
         sum(CASE WHEN m.src IS NOT NULL THEN 1 ELSE 0 END) AS n_hit
  FROM te LEFT JOIN model m ON te.src = m.src AND te.dst = m.dst
  GROUP BY te.user_id
)
SELECT user_id,
       CAST(n_hit AS DOUBLE) / n_edges AS fitness,
       CAST(n_hit AS DOUBLE) / (SELECT count(*) FROM model) AS prec,
       0.7 * (CAST(n_hit AS DOUBLE) / n_edges)
     + 0.3 * (CAST(n_hit AS DOUBLE) / (SELECT count(*) FROM model)) AS score
FROM stats
"""
