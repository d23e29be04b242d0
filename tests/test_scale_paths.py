"""Scale-path regressions (round 2): the registered similarity/dedup entries
must stream — no whole-corpus broadcast, no driver-side pair collection — and
stay faithful to their exact small-scale oracles."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ocel_ocpn_lakehouse_ray.functions.text import jaccard, word_shingles
from ocel_ocpn_lakehouse_ray.pipelines import dedup, similarity
from ocel_ocpn_lakehouse_ray.pipelines.queries import _small_arrow
from ocel_ocpn_lakehouse_ray.pipelines.queries_extra import _distinct_keys

SF = "/root/testdata/sf0.001"


def test_embedding_dedup_lsh_is_dataset_and_high_recall():
    """The primary embedding_dedup entry is the LSH-bucketed path: the only
    driver-side state is the candidate-pair set (bounded by near-dup
    density, budget-guarded with a distributed fallback), its pairs are a
    SUBSET of the exact result (precision 1: in-bucket verification is
    exact cosine), and recall stays >= 0.8 at the fixture's threshold."""
    got = similarity.q_embedding_dedup(SF)
    if isinstance(got, ray.data.Dataset):  # distributed-fallback shape
        lsh_pairs = {(r["a"], r["b"]) for r in got.take_all()}
    else:
        lsh_pairs = {(int(r.a), int(r.b)) for r in got.itertuples(index=False)}

    exact = similarity.q_embedding_dedup_exact(SF)
    exact_pairs = {(r["a"], r["b"]) for r in exact.take_all()}
    assert len(exact_pairs) > 0
    assert lsh_pairs <= exact_pairs  # precision 1.0
    recall = len(lsh_pairs) / len(exact_pairs)
    assert recall >= 0.8, f"LSH recall {recall:.3f} below 0.8"


def test_ngram_jaccard_copartitioned_matches_driver_oracle():
    """Co-partitioned verify (shingles travel with the band rows) must return
    exactly the LSH-candidate pairs whose true Jaccard clears the threshold —
    compared against a driver-side recomputation over the same candidates."""
    got = dedup.q_ngram_jaccard(SF)
    assert isinstance(got, ray.data.Dataset)  # no driver-side pair collection
    got_rows = {(r["a"], r["b"]): r["jaccard"] for r in got.take_all()}

    cand = dedup.q_minhash_lsh_pairs(SF)
    if not isinstance(cand, pd.DataFrame):  # distributed-fallback shape
        cand = cand.to_pandas()
    docs = _small_arrow(SF, "documents", columns=["doc_id", "text"])
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    expected = {}
    for a, b in cand[["a", "b"]].itertuples(index=False):
        j = round(jaccard(word_shingles(texts[a]), word_shingles(texts[b])), 6)
        if j >= dedup.JACCARD_THRESHOLD:
            expected[(a, b)] = j
    assert got_rows == expected


def test_ann_ivf_recall_vs_bruteforce():
    """IVF top-1 must agree with the exact brute-force top-1 for most
    vectors (nprobe=2, 16 clusters on the clustered fixture) and be
    deterministic."""
    got = similarity.q_ann_ivf(SF)
    assert isinstance(got, ray.data.Dataset)
    rows = {r["vec_id"]: r["nn_id"] for r in got.take_all()}
    corpus = _small_arrow(SF, "embeddings", columns=["vec_id", "embedding"])
    ids, m = similarity._matrix(corpus)
    sims = m @ m.T
    np.fill_diagonal(sims, -np.inf)
    exact_nn = {int(ids[i]): int(ids[sims[i].argmax()]) for i in range(len(ids))}
    covered = [v for v in rows if rows[v] == exact_nn[v]]
    recall = len(covered) / len(rows)
    assert recall >= 0.6, f"IVF top-1 recall {recall:.3f} too low"
    assert len(rows) >= 0.95 * len(ids)  # nearly every vector gets an answer
    rows2 = {r["vec_id"]: r["nn_id"] for r in similarity.q_ann_ivf(SF).take_all()}
    assert rows == rows2  # deterministic


def test_distinct_keys_guard_and_correctness(monkeypatch):
    from ocel_ocpn_lakehouse_ray.pipelines import queries_extra as qe

    ds = ray.data.from_arrow(pa.table({"k": pa.array([3, 1, 2, 3, 1], pa.int64())}))
    _, keys = _distinct_keys(ds, "k", pa.int64())
    assert keys.to_pylist() == [1, 2, 3]
    monkeypatch.setattr(qe, "MAX_DRIVER_KEYS", 2)
    partials, keys = _distinct_keys(ds, "k", pa.int64())
    assert keys is None  # past the budget: the caller joins the partials
    assert sorted(partials.to_pandas()["k"]) == [1, 2, 3]


def _sorted_rows(ds):
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_semi_anti_degrade_to_copartitioned_past_key_budget(monkeypatch):
    """VERDICT r2 #1: past the driver key budget the semi/anti queries must
    DEGRADE to the co-partitioned shuffle join (no driver key set) and return
    the identical result, not raise."""
    import pandas as pd

    from ocel_ocpn_lakehouse_ray.pipelines import queries_extra as qe

    want_semi = _sorted_rows(qe.q_semi_join(SF))
    want_anti = _sorted_rows(qe.q_anti_join(SF))
    assert len(want_semi) > 0 and len(want_anti) > 0

    # shrink the budget so _distinct_keys overflows immediately
    monkeypatch.setattr(qe, "MAX_DRIVER_KEYS", 3)
    got_semi = qe.q_semi_join(SF)
    got_anti = qe.q_anti_join(SF)
    assert isinstance(got_semi, ray.data.Dataset)  # still lazy/streaming
    pd.testing.assert_frame_equal(_sorted_rows(got_semi), want_semi)
    pd.testing.assert_frame_equal(_sorted_rows(got_anti), want_anti)


def test_copartitioned_semi_join_direct():
    from ocel_ocpn_lakehouse_ray.pipelines.queries_extra import (
        copartitioned_semi_join,
    )

    probe = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "v": ["a", "b", "c", "d", "e"],
    }))
    build = ray.data.from_arrow(pa.table({
        "bk": pa.array([2, 2, 4, 9], pa.int64())}))
    semi = _sorted_rows(copartitioned_semi_join(
        probe, "k", build, "bk", output_columns=["k", "v"]))
    assert semi["k"].tolist() == [2, 4]
    anti = _sorted_rows(copartitioned_semi_join(
        ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "v": ["a", "b", "c", "d", "e"],
        })), "k", ray.data.from_arrow(pa.table({
            "bk": pa.array([2, 2, 4, 9], pa.int64())})), "bk",
        anti=True, output_columns=["k", "v"]))
    assert anti["k"].tolist() == [1, 3, 5]
