"""Registry-window discipline (VERDICT r4 #10): the correctness driver
checks the FIRST 50 ``queries()`` entries in dict order, so a refactor that
inserts or reorders entries could silently rotate an oracle-paired query out
of the window.  This test pins the window's exact composition — append new
queries at the END (ROUND_NOTES.md)."""

from __future__ import annotations

import __ray_entry__ as entry

PINNED_WINDOW = [
    "pricing_summary", "filter_project", "top_customers", "orders_by_segment",
    "revenue_by_nation", "event_type_stats", "value_counts", "daily_counts",
    "hourly_volatility", "direct_follows", "sessionize", "sequence_numbers",
    "price_percentiles", "grouping_sets", "distinct_types", "isin_filter",
    "null_quality", "cooccurrence", "token_counts", "quality_scores",
    "fingerprints", "dedup_exact", "lang_distribution", "lang_id",
    "merge_documents", "semi_join", "anti_join", "having", "case_when",
    "union_all", "string_funcs", "json_extract", "between", "supplier_nation",
    "part_brand_stats", "threshold_cut", "hash_sample", "asof_join",
    "next_activity", "case_outcome", "similar_cases", "resource_utilization",
    "executive_kpis", "petri_arcs", "variants", "conformance",
    "mv_refresh_variants", "knn_bruteforce", "embedding_dedup_exact",
    "value_delta",
]

# every in-window entry has oracle SQL; the approximate-by-construction
# entries (percentiles_sketch, embedding_dedup) sit past the window, pinned
# by an exact twin or an accuracy test
EXPECTED_NO_ORACLE = set()


def test_first_50_names_are_pinned():
    names = list(entry.queries())
    assert len(PINNED_WINDOW) == 50
    assert names[:50] == PINNED_WINDOW, (
        "driver window composition changed — append new queries at the END "
        "of the registry (ROUND_NOTES.md), never insert before position 50")


def test_every_window_entry_is_oracle_paired_or_pinned():
    names = list(entry.queries())[:50]
    osql = set(entry.oracle_sql())
    missing = {n for n in names if n not in osql}
    assert missing == EXPECTED_NO_ORACLE


def test_oracle_keys_are_registry_subset():
    names = set(entry.queries())
    extra = set(entry.oracle_sql()) - names
    assert not extra, f"oracle_sql has keys with no queries() entry: {extra}"
