"""fold_partials budget fallback: forcing FOLD_BUDGET=1 pushes every
converted query onto the distributed-groupby path — results must be
identical to the driver fold (the scale-proof-by-construction contract)."""

from __future__ import annotations

import pandas as pd
import pytest

import __ray_entry__ as entry
from ocel_ocpn_lakehouse_ray.pipelines import queries

SF = "/root/testdata/sf0.001"

CONVERTED = [
    "pricing_summary", "orders_by_segment", "revenue_by_nation",
    "direct_follows", "variants", "next_activity", "sessionize",
    "executive_kpis", "conformance", "minhash_lsh_pairs", "embedding_dedup",
]


def _norm(res) -> pd.DataFrame:
    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    cols = sorted(df.columns)
    return (df[cols].sort_values(cols).reset_index(drop=True)
            .round(9))


@pytest.mark.parametrize("name", CONVERTED)
def test_budget_fallback_identical(name, monkeypatch):
    reg = entry.queries()
    base = _norm(reg[name](SF))
    monkeypatch.setattr(queries, "FOLD_BUDGET", 1)
    fb = _norm(reg[name](SF))
    pd.testing.assert_frame_equal(base, fb, check_dtype=False)
    assert len(base) > 0
