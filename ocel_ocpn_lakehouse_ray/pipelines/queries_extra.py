"""Second tranche of operator-coverage queries: semi/anti joins, HAVING,
conditional aggregation, UNION ALL, string scalar functions, JSON extraction,
BETWEEN ranges — filling out the SURVEY.md §2 scalar/set-op families
(§2.7 D3/D4, §2.8 string/JSON functions, §2.4 J6 point lookups)."""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .queries import _read, _small_arrow, broadcast_join


# Driver-side key budget for the broadcast semi/anti path, counted in
# per-block unique partial rows.  Past it the queries use the co-partitioned
# shuffle join below (tests shrink this to force that path).
MAX_DRIVER_KEYS = 5_000_000


def _distinct_keys(ds, col: str, pa_type):
    """Distributed distinct of a (fact-table) key column: per-block
    ``pc.unique`` partials run on the workers and are materialised once.
    Returns ``(partials, keys)``: ``keys`` is the sorted distinct set the
    driver unions from the partials — never the raw fact rows — or None
    when the partials' exact row count (block metadata) exceeds
    MAX_DRIVER_KEYS; callers then join against ``partials`` instead."""
    partials = ds.map_batches(
        lambda b: pa.table({col: pc.unique(b[col])}), batch_format="pyarrow"
    ).materialize()
    if partials.count() > MAX_DRIVER_KEYS:
        return partials, None
    vals: set = set()
    for b in partials.iter_batches(batch_format="pyarrow", batch_size=None):
        vals.update(b[col].to_pylist())
    return partials, pa.array(sorted(vals), pa_type)


def copartitioned_semi_join(probe, probe_key: str, build, build_key: str, *,
                            anti: bool = False, output_columns=None,
                            num_partitions: int | None = None):
    """Scale path for semi/anti joins whose build side has too many distinct
    keys to broadcast (VERDICT r2 #1): distributed distinct of the build keys
    (one groupby shuffle — output is O(distinct), spread across workers), then
    Ray's hash-shuffle join co-partitions probe rows and distinct keys on the
    key.  The driver never holds a key set; both shuffles are the same
    one-key exchange MERGE uses (stages/merge.py).

    ``anti=True`` uses a left-outer join + null-marker filter (the classic
    shuffle anti-join); ``output_columns`` projects the result back to the
    probe side's columns."""
    import ray
    from ray.data.aggregate import Count

    nparts = num_partitions or max(
        2, min(16, int(ray.cluster_resources().get("CPU", 8)) // 2)
    )
    distinct = (
        build.map_batches(lambda b: pa.table({build_key: pc.unique(b[build_key])}),
                          batch_format="pyarrow")
        .groupby(build_key)
        .aggregate(Count(alias_name="__match"))
    )
    joined = probe.join(
        distinct,
        join_type="left_outer" if anti else "inner",
        num_partitions=nparts,
        on=(probe_key,),
        right_on=(build_key,),
    )
    cols = output_columns

    def project(b: pa.Table) -> pa.Table:
        if anti:
            b = b.filter(pc.is_null(b["__match"]))
        keep = cols or [c for c in b.column_names
                        if c not in ("__match", build_key)]
        return b.select(keep)

    return joined.map_batches(project, batch_format="pyarrow")


def _key_semi_join(probe, probe_key: str, build, build_key: str, *,
                   anti: bool = False):
    """Semi (or anti) join of ``probe`` against ``build``'s distinct keys:
    broadcast the key set for an is_in filter while it fits the driver
    budget, else copartitioned_semi_join over the same materialised
    partials — the build side runs once either way."""
    import ray

    partials, key_set = _distinct_keys(build, build_key, pa.int64())
    if key_set is None:
        return copartitioned_semi_join(probe, probe_key, partials, build_key,
                                       anti=anti, output_columns=probe.columns())
    ref = ray.put(key_set)

    def fn(b: pa.Table) -> pa.Table:
        import ray as _r

        hit = pc.is_in(b[probe_key], value_set=_r.get(ref))
        return b.filter(pc.invert(hit) if anti else hit)

    return probe.map_batches(fn, batch_format="pyarrow")


def q_semi_join(sf_dir: str):
    """Semi-join (J3 flavor): customers having at least one order — the
    filter-then-join lookup (`agent/process_mining_queries.py:356-363`).
    The fact side's distinct keys are computed DISTRIBUTED (per-block unique
    partials), then the small distinct set is broadcast for an is_in filter —
    the driver never reads fact rows (no row multiplication either).  Past
    the driver key budget it degrades to copartitioned_semi_join."""
    return _key_semi_join(
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"]), "c_custkey",
        _read(sf_dir, "orders", columns=["o_custkey"]), "o_custkey")


_SQL_SEMI_JOIN = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey IN (SELECT o_custkey FROM orders)
"""


def q_anti_join(sf_dir: str):
    """Anti-join: customers with no URGENT-priority order (the MERGE
    not-matched path standalone; predicate chosen to be non-empty at every
    scale factor).  Same distributed-distinct-then-broadcast shape as
    q_semi_join — the filter runs on the workers before the unique partial —
    with the same co-partitioned degradation past the driver key budget."""
    ords = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])
    urgent = ords.map_batches(
        lambda b: b.filter(pc.equal(b["o_orderpriority"], pa.scalar("1-URGENT")))
        .select(["o_custkey"]),
        batch_format="pyarrow",
    )
    return _key_semi_join(
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"]), "c_custkey",
        urgent, "o_custkey", anti=True)


_SQL_ANTI_JOIN = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN (
  SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
"""


def q_having(sf_dir: str):
    """Grouped agg + HAVING: order counts per customer above a threshold —
    post-aggregation filter (A2 + M6 composed)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "orders", columns=["o_custkey"])
    agg = ds.groupby("o_custkey").aggregate(Count(alias_name="n_orders"))

    def fn(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["n_orders"], pa.scalar(12)))

    return agg.map_batches(fn, batch_format="pyarrow")


_SQL_HAVING = """
SELECT o_custkey, count(*) AS n_orders FROM orders
GROUP BY o_custkey HAVING count(*) >= 12
"""


def q_case_when(sf_dir: str):
    """Conditional aggregation (the reference's quality scoring pattern,
    `ops/schema_evolution.py:169-244`): price-band counts per order priority."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])

    def fn(b: pa.Table) -> pa.Table:
        hi = pc.cast(pc.greater(b["o_totalprice"], pa.scalar(200000.0)), pa.int64())
        lo = pc.cast(pc.less_equal(b["o_totalprice"], pa.scalar(50000.0)), pa.int64())
        return pa.table({
            "o_orderpriority": b["o_orderpriority"], "hi": hi, "lo": lo,
        })

    return (ds.map_batches(fn, batch_format="pyarrow")
            .groupby("o_orderpriority")
            .aggregate(Sum("hi", alias_name="n_high"),
                       Sum("lo", alias_name="n_low"),
                       Count(alias_name="n")))


_SQL_CASE_WHEN = """
SELECT o_orderpriority,
       CAST(sum(CASE WHEN o_totalprice > 200000 THEN 1 ELSE 0 END) AS BIGINT) AS n_high,
       CAST(sum(CASE WHEN o_totalprice <= 50000 THEN 1 ELSE 0 END) AS BIGINT) AS n_low,
       count(*) AS n
FROM orders GROUP BY o_orderpriority
"""


def q_union_all(sf_dir: str):
    """D4 union of loads: two disjoint filters unioned (the repeated
    append = UNION ALL table semantics, `ingest/complete_ocel_loader.py:131-183`)."""
    lo = _read(sf_dir, "part", columns=["p_partkey", "p_brand", "p_retailprice"])
    hi = _read(sf_dir, "part", columns=["p_partkey", "p_brand", "p_retailprice"])

    def f_lo(b):
        return b.filter(pc.less(b["p_retailprice"], pa.scalar(950.0)))

    def f_hi(b):
        return b.filter(pc.greater(b["p_retailprice"], pa.scalar(1500.0)))

    return lo.map_batches(f_lo, batch_format="pyarrow").union(
        hi.map_batches(f_hi, batch_format="pyarrow"))


_SQL_UNION_ALL = """
SELECT p_partkey, p_brand, p_retailprice FROM part WHERE p_retailprice < 950
UNION ALL
SELECT p_partkey, p_brand, p_retailprice FROM part WHERE p_retailprice > 1500
"""


def q_string_funcs(sf_dir: str):
    """§2.8 string scalars: upper, substring, length, concat, prefix match
    (`ingest/complete_ocel_loader.py:296,314-318`)."""
    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_mktsegment"])

    def fn(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": b["c_custkey"],
            "name_upper": pc.utf8_upper(b["c_name"]),
            "name_prefix": pc.utf8_slice_codeunits(b["c_name"], 0, 8),
            "name_len": pc.cast(pc.utf8_length(b["c_name"]), pa.int64()),
            "tag": pc.binary_join_element_wise(
                b["c_mktsegment"], pc.cast(b["c_custkey"], pa.string()), ":"
            ),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_STRING_FUNCS = """
SELECT c_custkey,
       upper(c_name) AS name_upper,
       substr(c_name, 1, 8) AS name_prefix,
       CAST(length(c_name) AS BIGINT) AS name_len,
       c_mktsegment || ':' || CAST(c_custkey AS VARCHAR) AS tag
FROM customer
"""


def q_json_extract(sf_dir: str):
    """§2.8 JSON scalar: extract the numeric field from the events `props`
    JSON payload (`ingest/complete_ocel_loader.py:89,436-440` json round-trip)."""
    ds = _read(sf_dir, "events", columns=["event_id", "props"])

    def fn(b: pa.Table) -> pa.Table:
        try:  # vectorized Rust JSON-path kernel (events is fact-table scale)
            import polars as pl

            ks = (pl.from_arrow(b["props"].combine_chunks())
                  .str.json_path_match("$.k").cast(pl.Int64).to_arrow())
        except Exception:  # fallback: per-row stdlib parse
            ks = pa.array((json.loads(p)["k"] for p in b["props"].to_pylist()),
                          pa.int64())
        return pa.table({"event_id": b["event_id"], "k": ks})

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_JSON_EXTRACT = """
SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k FROM events
"""


def q_between(sf_dir: str):
    """J6/M6 point-lookup style range predicate with fragment-prunable
    bounds: lineitem rows in a quantity band, projected."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_quantity"])

    def fn(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(b["l_quantity"], pa.scalar(10.0)),
                    pc.less_equal(b["l_quantity"], pa.scalar(12.0)))
        return b.filter(m)

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_BETWEEN = """
SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem
WHERE l_quantity BETWEEN 10 AND 12
"""


def q_supplier_nation(sf_dir: str):
    """J4 dimension enrichment chain: supplier ⋈ nation ⋈ region → counts."""
    from ray.data.aggregate import Count, Sum

    nation = _small_arrow(sf_dir, "nation")
    region = _small_arrow(sf_dir, "region")
    dim = nation.join(region, keys=["n_regionkey"], right_keys=["r_regionkey"])
    ds = _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey", "s_acctbal"])
    joined = broadcast_join(ds, dim, keys=["s_nationkey"], right_keys=["n_nationkey"])

    # money sum in integer cents (order-independent; see q_pricing_summary)
    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "r_name": b["r_name"],
            "n_name": b["n_name"],
            "bal_c": pc.cast(pc.round(pc.multiply(b["s_acctbal"], pa.scalar(100.0))),
                             pa.int64()),
        })

    agg = joined.map_batches(cents, batch_format="pyarrow").groupby(
        ["r_name", "n_name"]
    ).aggregate(Count(alias_name="n_suppliers"), Sum("bal_c", alias_name="bal_c"))

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "r_name": b["r_name"],
            "n_name": b["n_name"],
            "n_suppliers": b["n_suppliers"],
            "total_bal": pc.divide(pc.cast(b["bal_c"], pa.float64()), pa.scalar(100.0)),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


_SQL_SUPPLIER_NATION = """
SELECT r_name, n_name, count(*) AS n_suppliers,
       CAST(sum(CAST(round(s_acctbal * 100) AS BIGINT)) AS DOUBLE) / 100.0 AS total_bal
FROM supplier JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name, n_name
"""


def q_part_brand_stats(sf_dir: str):
    """A4 grouped mean/min/max over part attributes."""
    from ray.data.aggregate import Count, Max, Mean, Min

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "part", columns=["p_brand", "p_retailprice", "p_size"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "p_brand": b["p_brand"],
            "p_size": pc.cast(b["p_size"], pa.int64()),
            "price_c": pc.cast(pc.round(pc.multiply(b["p_retailprice"], pa.scalar(100.0))),
                               pa.int64()),
        })

    agg = ds.map_batches(cents, batch_format="pyarrow").groupby("p_brand").aggregate(
        Sum("price_c", alias_name="price_c"),
        Min("p_size", alias_name="min_size"),
        Max("p_size", alias_name="max_size"),
        Count(alias_name="n_parts"),
    )

    def finish(b: pa.Table) -> pa.Table:
        total = pc.divide(pc.cast(b["price_c"], pa.float64()), pa.scalar(100.0))
        return pa.table({
            "p_brand": b["p_brand"],
            "avg_price": pc.divide(total, pc.cast(b["n_parts"], pa.float64())),
            "min_size": b["min_size"],
            "max_size": b["max_size"],
            "n_parts": b["n_parts"],
        })

    return agg.map_batches(finish, batch_format="pyarrow")


_SQL_PART_BRAND_STATS = """
SELECT p_brand,
       (CAST(sum(CAST(round(p_retailprice * 100) AS BIGINT)) AS DOUBLE) / 100.0)
         / count(*) AS avg_price,
       CAST(min(p_size) AS BIGINT) AS min_size,
       CAST(max(p_size) AS BIGINT) AS max_size,
       count(*) AS n_parts
FROM part GROUP BY p_brand
"""


def q_threshold_cut(sf_dir: str):
    """O5 threshold-percentile cut (`agent/process_mining_queries.py:300-322`):
    two-pass — exact p95 of o_totalprice, then filter rows above it."""
    from .queries import exact_quantiles_distributed

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    [p95] = exact_quantiles_distributed(
        _read(sf_dir, "orders", columns=["o_totalprice"]), "o_totalprice", [0.95]
    )

    def fn(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["o_totalprice"], pa.scalar(p95)))

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_THRESHOLD_CUT = """
SELECT o_orderkey, o_custkey, o_totalprice FROM orders
WHERE o_totalprice > (
  SELECT ROUND(percentile_cont(0.95) WITHIN GROUP (ORDER BY o_totalprice), 4)
  FROM orders)
"""


def q_hash_sample(sf_dir: str):
    """O6 deterministic sampling: content-hash bucket sample (~6 %) — the
    reproducible scan-equivalence spot-check pattern (SURVEY.md §2.6 O6).
    md5-based so the SQL oracle computes the identical sample."""
    import hashlib

    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])

    def fn(b: pa.Table) -> pa.Table:
        # md5 has no vectorized kernel; digest()[0] IS the first two hex
        # chars as an int, skipping hexdigest+parse.  Dimension-scale only.
        md5 = hashlib.md5
        mask = pa.array([md5(str(k).encode()).digest()[0] < 16
                         for k in b["c_custkey"].to_pylist()], pa.bool_())
        return b.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_HASH_SAMPLE = """
SELECT c_custkey, c_name FROM customer
WHERE CAST(('0x' || substr(md5(CAST(c_custkey AS VARCHAR)), 1, 2)) AS INTEGER) < 16
"""


def q_asof_join(sf_dir: str):
    """As-of join — a custom operator Ray Data lacks (build-brief example):
    for every 'purchase' event, the most recent 'click' timestamp by the same
    user at or before it.  One shuffle: users are hash-bucketed
    (bucketed_groups), within a bucket a vectorized grouped forward-fill
    computes the as-of match for all users at once."""
    import pandas as pd

    from .queries import bucketed_groups

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        # clicks sort before other events at an identical timestamp so the
        # inclusive (<=) as-of semantics match the SQL oracle
        g = g.assign(__nc=(g["event_type"] != "click").astype(np.int8))
        g = g.sort_values(["user_id", "ts", "__nc", "event_id"])
        click_ts = g["ts"].where(g["event_type"] == "click")
        last_click = click_ts.groupby(g["user_id"]).ffill()
        out = g[g["event_type"] == "purchase"]
        return pd.DataFrame({
            "event_id": out["event_id"].to_numpy(),
            "last_click_ts": last_click[g["event_type"] == "purchase"].to_numpy(),
        })

    return bucketed_groups(ds, "user_id", asof)


_SQL_ASOF_JOIN = """
SELECT p.event_id,
       (SELECT max(c.ts) FROM events c
        WHERE c.user_id = p.user_id AND c.event_type = 'click' AND c.ts <= p.ts
       ) AS last_click_ts
FROM events p WHERE p.event_type = 'purchase'
"""


# ---------------------------------------------------- windowed aggregates
#
# NOT in EXTRA_QUERIES: the driver checks the FIRST 50 entries of queries()
# in dict order, and EXTRA_QUERIES sits inside that window — new queries
# register at the END of __ray_entry__'s explicit dict instead.


def q_rolling_daily(sf_dir: str, window: int = 7):
    """Windowed aggregate: per-day event volume with a trailing row-window
    sum (the brief's streaming-window operator class, expressed as the
    composition the Dataset API allows: ONE bounded groupby exchange — the
    day table is O(#days) at any corpus size — followed by the rolling pass
    over that bounded table, same driver-side-finish shape as
    exact_quantiles_distributed)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts"])

    def bucket(b: pa.Table) -> pa.Table:
        return pa.table({"event_date": pc.strftime(b["ts"], format="%Y-%m-%d")})

    agg = (ds.map_batches(bucket, batch_format="pyarrow")
           .groupby("event_date").aggregate(Count(alias_name="n"))
           # driver pull BOUND: one row per calendar day — 100 TB of events
           # still yields only O(10^4) days (27 years of daily rows ≈ 10k);
           # the trailing-window pass is sequential by definition, so the
           # bounded table is the correct driver-side finish
           .to_pandas().sort_values("event_date").reset_index(drop=True))
    agg["n_7d"] = agg["n"].rolling(window, min_periods=1).sum().astype("int64")
    return agg


SQL_ROLLING_DAILY = """
WITH d AS (
  SELECT strftime(ts, '%Y-%m-%d') AS event_date, count(*) AS n
  FROM events GROUP BY 1
)
SELECT event_date, n,
       CAST(SUM(n) OVER (ORDER BY event_date
                         ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS BIGINT)
         AS n_7d
FROM d
"""


def q_top_orders_per_customer(sf_dir: str, k: int = 2):
    """Grouped top-k (the rank-window operator): the k highest-price orders
    per customer — one bucketed-group shuffle, vectorized per-group head
    inside each coarse bucket (no per-customer task)."""
    import pandas as pd

    from .queries import bucketed_groups

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_totalprice"])

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_totalprice", "o_orderkey"],
                          ascending=[True, False, True])
        return g.groupby("o_custkey", sort=False).head(k)

    return bucketed_groups(ds, "o_custkey", topk)


SQL_TOP_ORDERS_PER_CUSTOMER = """
SELECT o_custkey, o_orderkey, o_totalprice FROM (
  SELECT o_custkey, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey) AS rn
  FROM orders) t WHERE rn <= 2
"""


def q_value_p50_by_type(sf_dir: str):
    """Grouped exact median (percentile_cont per group): per event_type the
    p50 of `value` via the distributed (group, value) histogram — the
    grouped form of exact_quantiles_distributed; driver state is
    O(groups x distinct values), bounded for 2-decimal money domains."""
    import pandas as pd

    from .queries import _read as rd

    ds = rd(sf_dir, "events", columns=["event_type", "value"])
    # driver pull BOUND: one row per (event_type, distinct value) — values
    # are 2-decimal money in [0, 1000), so <= |types| x 10^5 rows whatever
    # the corpus size; the exchange above already reduced the table to it
    hist = (ds.groupby(["event_type", "value"]).count()
            .to_pandas().sort_values(["event_type", "value"]))
    out_t, out_p = [], []
    for etype, g in hist.groupby("event_type", sort=True):
        vals = g["value"].to_numpy()
        cum = np.cumsum(g["count()"].to_numpy())
        n = int(cum[-1])
        h = (n - 1) * 0.5
        lo = int(np.floor(h))

        def value_at(rank):
            return float(vals[np.searchsorted(cum, rank, side="right")])

        a, b = value_at(lo), value_at(min(lo + 1, n - 1))
        out_t.append(etype)
        # same correctly-rounded lerp contract as price_percentiles
        out_p.append(round(float(np.quantile(np.array([a, b]), h - lo,
                                             method="linear")), 4))
    return pd.DataFrame({"event_type": out_t, "p50": out_p})


SQL_VALUE_P50_BY_TYPE = """
SELECT event_type,
       ROUND(percentile_cont(0.50) WITHIN GROUP (ORDER BY value), 4) AS p50
FROM events GROUP BY event_type
"""


EXTRA_QUERIES = {
    "semi_join": q_semi_join,
    "anti_join": q_anti_join,
    "having": q_having,
    "case_when": q_case_when,
    "union_all": q_union_all,
    "string_funcs": q_string_funcs,
    "json_extract": q_json_extract,
    "between": q_between,
    "supplier_nation": q_supplier_nation,
    "part_brand_stats": q_part_brand_stats,
    "threshold_cut": q_threshold_cut,
    "hash_sample": q_hash_sample,
    "asof_join": q_asof_join,
}

EXTRA_ORACLE_SQL = {
    "semi_join": _SQL_SEMI_JOIN,
    "anti_join": _SQL_ANTI_JOIN,
    "having": _SQL_HAVING,
    "case_when": _SQL_CASE_WHEN,
    "union_all": _SQL_UNION_ALL,
    "string_funcs": _SQL_STRING_FUNCS,
    "json_extract": _SQL_JSON_EXTRACT,
    "between": _SQL_BETWEEN,
    "supplier_nation": _SQL_SUPPLIER_NATION,
    "part_brand_stats": _SQL_PART_BRAND_STATS,
    "threshold_cut": _SQL_THRESHOLD_CUT,
    "hash_sample": _SQL_HASH_SAMPLE,
    "asof_join": _SQL_ASOF_JOIN,
}
