"""Executive-dashboard KPIs — the numbers the reference's matplotlib
dashboard computes (`dashboards/executive_dashboard.py:37-119`
``create_executive_kpis``), re-expressed as ONE oracle-checkable distributed
pass.  The chart rendering stays out of scope (presentation, no engine
semantics); every metric the charts draw is here.

The reference pulls the whole events table to pandas on the driver
(`executive_dashboard.py:46` ``to_pandas``).  This version computes the same
KPI row from ONE read and ONE bounded exchange: each batch emits grouped
(event_type, hour) partial counts plus its block-unique user ids as marker
rows, and a single groupby both sums the partials (driver combine is
O(|types| x 24), constant at any corpus size) and deduplicates the users
(the A6 distinct shape) — ids never materialize on the driver.

Semantics mapped 1:1 (reference line refs):
- total_events / unique_event_types / process_complexity   (:57-64)
- total_users / avg_events_per_user / user_efficiency      (:67-75; the
  reference's actor column is ``vendor_code``, this table's is ``user_id``)
- peak hour analysis + utilization_ratio                   (:78-92)
- null_events / data_quality_score / quality_status        (:95-103)
- per-type cost map + total / avg cost + cost_efficiency   (:106-117)

Float parity with the SQL oracle: every derived ratio is computed with the
SAME operation order both sides and rounded to 6 places (ROUND_NOTES.md:
Python round(x, n) and DuckDB ROUND(x, n) agree).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .queries import _read, renamed

# reference cost map (executive_dashboard.py:107-110); default 5.0
EVENT_COSTS = {
    "create_order": 10.0,
    "approve_order": 15.0,
    "create_invoice": 8.0,
    "approve_invoice": 12.0,
    "payment": 5.0,
}
DEFAULT_COST = 5.0
_NULL_TYPE = "\x00__null__"


def q_executive_kpis(sf_dir: str) -> pd.DataFrame:
    """One-row KPI table (see module docstring for the reference mapping)."""
    # ONE read and ONE exchange: each batch emits its grouped (type, hour)
    # partial counts AND its block-unique user ids as n=0 marker rows with
    # the user id carried in the key2 slot — the shared groupby then both
    # sums the KPI partials and deduplicates users across blocks.  (Fused
    # from the earlier two-read / two-exchange form: 1.8 s -> 1.25 s at
    # bench scale; still bounded — markers are block-unique, so at most
    # |users| x blocks-per-user rows move, same as the A6 distinct shape.)
    _USER_MARK = "\x01__user__"

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "event_type": pc.fill_null(b["event_type"], _NULL_TYPE),
            "key2": pc.cast(pc.hour(b["ts"]), pa.int64()),
        })
        g = renamed(t.group_by(["event_type", "key2"])
                    .aggregate([([], "count_all")]), {"count_all": "n"})
        users = pc.unique(b["user_id"])
        u = pa.table({
            "event_type": pa.array([_USER_MARK] * len(users)),
            "key2": pc.cast(users, pa.int64()),
            "n": pa.array(np.zeros(len(users), np.int64)),
        })
        return pa.concat_tables([g, u])

    from .queries import fold_partials

    # budget-guarded driver fold of the bounded partials (types × hours
    # plus block-unique user markers), bucketed past the budget
    folded = fold_partials(
        _read(sf_dir, "events", columns=["event_type", "ts", "user_id"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "key2"], ["n"])
    if folded is None:
        raise ValueError("executive_kpis: empty events table")
    combined = folded.to_pandas()
    users_mask = combined["event_type"] == _USER_MARK
    total_users = int(users_mask.sum())
    grouped = combined.loc[~users_mask].rename(columns={"key2": "hour"})

    total_events = int(grouped["n"].sum())
    nulls_mask = grouped["event_type"] == _NULL_TYPE
    null_events = int(grouped.loc[nulls_mask, "n"].sum())
    unique_event_types = int(grouped.loc[~nulls_mask, "event_type"].nunique())

    hourly = grouped.groupby("hour", as_index=False)["n"].sum() \
        .sort_values(["n", "hour"], ascending=[False, True])
    peak_hour = int(hourly.iloc[0]["hour"])
    peak_activity = int(hourly.iloc[0]["n"])
    hours_present = len(hourly)

    by_type = grouped.loc[~nulls_mask].groupby("event_type")["n"].sum()
    total_cost = float(sum(
        n * EVENT_COSTS.get(t, DEFAULT_COST) for t, n in by_type.items()
    ) + null_events * DEFAULT_COST)

    avg_events_per_user = round(total_events / total_users, 6)
    avg_activity = round(total_events / hours_present, 6)
    utilization_ratio = round(peak_activity * hours_present / total_events, 6)
    data_quality_score = round((1 - null_events / total_events) * 100, 6)
    avg_cost_per_event = round(total_cost / total_events, 6)

    return pd.DataFrame([{
        "total_events": total_events,
        "unique_event_types": unique_event_types,
        "process_complexity": ("High" if unique_event_types > 10
                               else "Medium" if unique_event_types > 5
                               else "Low"),
        "total_users": int(total_users),
        "avg_events_per_user": avg_events_per_user,
        "user_efficiency": ("High" if avg_events_per_user > 100
                            else "Medium" if avg_events_per_user > 50
                            else "Low"),
        "peak_hour": peak_hour,
        "peak_activity": peak_activity,
        "avg_activity": avg_activity,
        "utilization_ratio": utilization_ratio,
        "null_events": null_events,
        "data_quality_score": data_quality_score,
        "quality_status": ("Excellent" if data_quality_score > 95
                           else "Good" if data_quality_score > 90
                           else "Needs Improvement"),
        "total_cost": total_cost,
        "avg_cost_per_event": avg_cost_per_event,
        "cost_efficiency": ("High" if avg_cost_per_event < 10
                            else "Medium" if avg_cost_per_event < 20
                            else "Low"),
    }])


_COST_CASE = ("CASE event_type "
              + " ".join(f"WHEN '{t}' THEN {c}" for t, c in EVENT_COSTS.items())
              + f" ELSE {DEFAULT_COST} END")

SQL_EXECUTIVE_KPIS = f"""
WITH tot AS (
  SELECT count(*) AS total_events,
         count(DISTINCT event_type) AS unique_event_types,
         count(DISTINCT user_id) AS total_users,
         sum(CASE WHEN event_type IS NULL THEN 1 ELSE 0 END) AS null_events,
         CAST(sum({_COST_CASE}) AS DOUBLE) AS total_cost
  FROM events
),
h AS (
  SELECT EXTRACT(hour FROM ts) AS hour, count(*) AS n
  FROM events GROUP BY 1
),
pk AS (SELECT hour AS peak_hour, n AS peak_activity
       FROM h ORDER BY n DESC, hour LIMIT 1),
hp AS (SELECT count(*) AS hours_present FROM h)
SELECT
  CAST(total_events AS BIGINT) AS total_events,
  CAST(unique_event_types AS BIGINT) AS unique_event_types,
  CASE WHEN unique_event_types > 10 THEN 'High'
       WHEN unique_event_types > 5 THEN 'Medium' ELSE 'Low'
  END AS process_complexity,
  CAST(total_users AS BIGINT) AS total_users,
  ROUND(CAST(total_events AS DOUBLE) / total_users, 6) AS avg_events_per_user,
  CASE WHEN CAST(total_events AS DOUBLE) / total_users > 100 THEN 'High'
       WHEN CAST(total_events AS DOUBLE) / total_users > 50 THEN 'Medium'
       ELSE 'Low'
  END AS user_efficiency,
  CAST(peak_hour AS BIGINT) AS peak_hour,
  CAST(peak_activity AS BIGINT) AS peak_activity,
  ROUND(CAST(total_events AS DOUBLE) / hours_present, 6) AS avg_activity,
  ROUND(peak_activity * hours_present / CAST(total_events AS DOUBLE), 6)
    AS utilization_ratio,
  CAST(null_events AS BIGINT) AS null_events,
  ROUND((1 - CAST(null_events AS DOUBLE) / total_events) * 100, 6)
    AS data_quality_score,
  CASE WHEN (1 - CAST(null_events AS DOUBLE) / total_events) * 100 > 95
         THEN 'Excellent'
       WHEN (1 - CAST(null_events AS DOUBLE) / total_events) * 100 > 90
         THEN 'Good'
       ELSE 'Needs Improvement'
  END AS quality_status,
  total_cost,
  ROUND(total_cost / total_events, 6) AS avg_cost_per_event,
  CASE WHEN total_cost / total_events < 10 THEN 'High'
       WHEN total_cost / total_events < 20 THEN 'Medium' ELSE 'Low'
  END AS cost_efficiency
FROM tot, pk, hp
"""

DASHBOARD_QUERIES = {"executive_kpis": q_executive_kpis}
DASHBOARD_ORACLE_SQL = {"executive_kpis": SQL_EXECUTIVE_KPIS}
