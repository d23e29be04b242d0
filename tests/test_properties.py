"""Property-based tests (hypothesis) for the pure kernels — the SURVEY.md §5
"stronger than the reference" test strategy: invariants that must hold for
ALL inputs, not just fixtures.  Examples are bounded so the suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocel_ocpn_lakehouse_ray.functions import bloom
from ocel_ocpn_lakehouse_ray.functions.codec import (
    decode_png,
    encode_png,
    psnr,
    quantize_lossy,
)
from ocel_ocpn_lakehouse_ray.functions.hashing import splitmix64
from ocel_ocpn_lakehouse_ray.functions.text import jaccard, minhash_signature
from ocel_ocpn_lakehouse_ray.functions.zorder import (
    hilbert_key,
    zorder_key,
)

MAX_EXAMPLES = 25


# ---------------------------------------------------------------- PNG codec

@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    w=st.integers(min_value=1, max_value=24),
    h=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_png_roundtrip_any_size(w, h, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    np.testing.assert_array_equal(decode_png(encode_png(arr)), arr)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_lossy_quantization_psnr_bound(seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    q = quantize_lossy(arr)
    # quantization to multiples of 4 bounds per-pixel error by 2 → PSNR >= 40
    assert np.abs(q.astype(int) - arr.astype(int)).max() <= 2
    assert psnr(arr, q) >= 40.0


# ------------------------------------------------------------ bloom filters

@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(keys=st.lists(st.text(min_size=1, max_size=24), min_size=1,
                     max_size=200, unique=True))
def test_bloom_never_false_negative(keys):
    bits = bloom.build(keys)
    assert bloom.might_contain(bits, keys).all()


# ------------------------------------------------------- space-filling keys

@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_cluster_keys_deterministic_and_injective_on_distinct_inputs(seed):
    rng = np.random.default_rng(seed)
    n = 64
    ph = rng.integers(0, 2**63, n, dtype=np.uint64)
    w = rng.integers(1, 2**15, n).astype(np.int32)
    h = rng.integers(1, 2**15, n).astype(np.int32)
    for keyfn in (zorder_key, hilbert_key):
        k1 = keyfn(ph.view(np.int64), w, h)
        k2 = keyfn(ph.view(np.int64), w, h)
        assert (k1 == k2).all()  # deterministic
        # identical inputs → identical keys (stability under permutation)
        perm = rng.permutation(n)
        k3 = keyfn(ph.view(np.int64)[perm], w[perm], h[perm])
        assert (k3 == k1[perm]).all()


# ------------------------------------------------------------------ minhash

@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    a=st.sets(st.integers(min_value=1, max_value=10**6), min_size=5, max_size=80),
    b=st.sets(st.integers(min_value=1, max_value=10**6), min_size=5, max_size=80),
)
def test_minhash_estimate_tracks_jaccard(a, b):
    ha = np.array(sorted(a), dtype=np.uint64)
    hb = np.array(sorted(b), dtype=np.uint64)
    true_j = jaccard(ha, hb)
    sa = minhash_signature(ha, 256)
    sb = minhash_signature(hb, 256)
    est = float((sa == sb).mean())
    # 256 permutations: std ≈ sqrt(j(1-j)/256) <= 0.032 → 6σ bound
    assert abs(est - true_j) <= 0.20


# ------------------------------------------------------------------ hashing

@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=2,
                max_size=100, unique=True))
def test_splitmix_injective_on_sample(xs):
    arr = np.array(xs, dtype=np.uint64)
    out = splitmix64(arr)
    assert len(np.unique(out)) == len(xs)  # bijective mixer → no collisions


# ----------------------------------------------------------- quantile exact

@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    vals=st.lists(st.integers(min_value=0, max_value=10**6), min_size=2,
                  max_size=300),
    q=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_histogram_quantile_matches_numpy(vals, q, ray_session):
    import ray.data

    from ocel_ocpn_lakehouse_ray.pipelines.queries import (
        exact_quantiles_distributed,
    )

    v = np.array(vals, dtype=np.float64) / 100.0
    import pyarrow as pa

    ds = ray.data.from_arrow(pa.table({"x": v}))
    [got] = exact_quantiles_distributed(ds, "x", [q])
    expected = round(float(np.quantile(v, q, method="linear")), 4)
    assert got == pytest.approx(expected, abs=1e-9)


# ------------------------------------------- banded levenshtein (round 4)

@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    a=st.text(alphabet="abcd", max_size=25),
    b=st.text(alphabet="abcd", max_size=25),
    cutoff=st.integers(min_value=0, max_value=30),
)
def test_banded_levenshtein_exact_within_cutoff(a, b, cutoff):
    from ocel_ocpn_lakehouse_ray.pipelines.predictive import (
        levenshtein,
        levenshtein_banded,
    )

    d = levenshtein(a, b)
    got = levenshtein_banded(a, b, cutoff)
    if d <= cutoff:
        assert got == d
    else:
        assert got > cutoff


# ------------------------------------------------ MERGE's one key probe

@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    ranges=st.lists(
        st.tuples(st.integers(0, 9999), st.integers(0, 500), st.booleans(),
                  st.booleans()),
        min_size=0, max_size=40),
    keys=st.lists(st.integers(0, 11000), min_size=0, max_size=60),
)
def test_probe_keys_always_matches_brute_force(ranges, keys):
    """``probe_keys`` yields exactly the (fragment, row) pairs a per-pair
    check passes: key in range (every key without stats) and bloom "maybe"
    (no bloom: range only)."""
    from ocel_ocpn_lakehouse_ray.stages.merge import probe_keys

    frags = []
    for lo, w, stats, has_bloom in ranges:
        held = [f"k{v:06d}" for v in range(lo, lo + w + 1, 3)]
        frags.append((f"k{lo:06d}" if stats else None,
                      f"k{lo + w:06d}" if stats else None,
                      bloom.build(held) if has_bloom else None,
                      bloom.NUM_HASHES))
    karr = np.array([f"k{v:06d}" for v in keys], dtype=object)
    want = {}
    for i, (mn, mx, bits, k) in enumerate(frags):
        rows = [j for j, key in enumerate(karr)
                if (mn is None or mn <= key <= mx)
                and (bits is None or bloom.might_contain(bits, [key], k)[0])]
        if rows:
            want[i] = rows
    assert {i: sorted(rows.tolist())
            for i, rows in probe_keys(frags, karr)} == want
