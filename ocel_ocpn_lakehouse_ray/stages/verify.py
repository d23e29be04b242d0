"""Post-maintenance scan-equivalence: the reference's validation suite
(`queries/final_system_validation.py:29-354` — accessibility, null-quality,
join, aggregation checks) made *exact* per the north_star invariant:

  every surviving row, joined on image_id against the expected table, must
  have (a) exact caption equality, (b) decoded pixels allclose — bit-exact
  for ``png``, PSNR >= 40 dB for lossy ``fmt`` — and (c) no row gains/losses.

Runs distributed: both sides are tagged and hash-partitioned on image_id
(one co-group through the exchange), and each partition compares its
pairs vectorized + per-row decode in the worker.  The result is a tiny
aggregate report; image bytes never reach the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.codec import decode_image, psnr
from ..functions.hashing import splitmix64
from .shuffle import PART_COL, assign_hash_part

SIDE_COL = "__side"
PSNR_THRESHOLD_DB = 40.0
INSERT_BASE = 9 * 10**11
_CS_SALT = np.uint64(0xA5A5A5A55A5A5A5A)  # second independent checksum stream
_U64 = 1 << 64


def _id_checksums(nums: np.ndarray) -> tuple[int, int]:
    """Order-independent dual checksum of an id multiset: (sum splitmix64(id),
    sum splitmix64(id ^ salt)) mod 2^64.  Two independent 64-bit sums give
    ~128-bit confidence that equal-cardinality multisets with equal checksums
    are the SAME set — so `count == expected AND checksums == expected`
    catches a merge bug that duplicates one id while dropping another, which
    a bare pair count cannot (the pairs stay at expected_total)."""
    if len(nums) == 0:
        return 0, 0
    with np.errstate(over="ignore"):
        c1 = int(splitmix64(nums).sum(dtype=np.uint64))
        c2 = int(splitmix64(nums ^ _CS_SALT).sum(dtype=np.uint64))
    return c1, c2


def expected_domain_checksums(n: int, merged: bool) -> tuple[int, int]:
    """Dual checksum of the EXPECTED id domain [0, n) (∪ the insert range when
    merged).  Chunked numpy on the driver up to ~2^27 ids; beyond that the sum
    is computed distributed (it is embarrassingly parallel and order-free), so
    the verifier stays honest at trillion-row domains."""
    ranges = [(0, n)]
    if merged:
        ranges.append((INSERT_BASE, INSERT_BASE + max(1, n // 20)))
    total = sum(hi - lo for lo, hi in ranges)
    if total > (1 << 27):
        import ray

        def part(b: pa.Table) -> pa.Table:
            a = b["id"].to_numpy().astype(np.uint64)
            c1, c2 = _id_checksums(a)
            return pa.table({"c1": pa.array([c1], pa.uint64()),
                             "c2": pa.array([c2], pa.uint64())})

        c1 = c2 = 0
        for lo, hi in ranges:
            ds = ray.data.range(hi - lo).map_batches(
                lambda b, lo=lo: pa.table(
                    {"id": pa.array(b["id"].to_numpy().astype(np.uint64)
                                    + np.uint64(lo), pa.uint64())}),
                batch_format="pyarrow").map_batches(part, batch_format="pyarrow")
            for blk in ds.iter_batches(batch_format="pyarrow"):
                c1 = (c1 + sum(blk["c1"].to_pylist())) % _U64
                c2 = (c2 + sum(blk["c2"].to_pylist())) % _U64
        return c1, c2
    c1 = c2 = 0
    step = 1 << 22
    for lo, hi in ranges:
        for s in range(lo, hi, step):
            a = np.arange(s, min(s + step, hi), dtype=np.uint64)
            p1, p2 = _id_checksums(a)
            c1 = (c1 + p1) % _U64
            c2 = (c2 + p2) % _U64
    return c1, c2

REPORT_SCHEMA = pa.schema(
    [
        ("pairs", pa.int64()),
        ("missing", pa.int64()),        # expected but absent
        ("unexpected", pa.int64()),     # present but not expected
        ("caption_mismatch", pa.int64()),
        ("meta_mismatch", pa.int64()),  # w/h/fmt/phash differ
        ("pixel_fail", pa.int64()),
        ("min_psnr", pa.float64()),
    ]
)


def _compare_partition(group: pa.Table, strict: bool = False) -> pa.Table:
    """One hash partition of both tagged sides → one report row.

    Metadata comparison is a vectorized pandas merge; the per-row work is
    ONLY image decoding.  ``strict`` decodes BOTH sides of EVERY matched
    pair — the literal north_star invariant ("every surviving row must be
    decoded-pixel allclose") with no byte-identity shortcut; non-strict
    keeps the shortcut (byte-equal rows are trivially equivalent)."""
    side = group[SIDE_COL].to_numpy()
    cols = ["image_id", "caption", "w", "h", "fmt", "phash", "bytes"]
    a = group.filter(pa.array(side == 0)).select(cols).to_pandas()
    e = group.filter(pa.array(side == 1)).select(cols).to_pandas()
    m = a.merge(e, on="image_id", how="outer", suffixes=("_a", "_e"),
                indicator=True)
    missing = int((m["_merge"] == "right_only").sum())
    unexpected = int((m["_merge"] == "left_only").sum())
    both = m[m["_merge"] == "both"]
    pairs = len(both)
    cap_bad = int((both["caption_a"] != both["caption_e"]).sum())
    meta_ok = ((both["w_a"] == both["w_e"]) & (both["h_a"] == both["h_e"])
               & (both["fmt_a"] == both["fmt_e"])
               & (both["phash_a"] == both["phash_e"])).to_numpy()
    meta_bad = int((~meta_ok).sum())
    ab = both["bytes_a"].to_numpy()
    eb = both["bytes_e"].to_numpy()
    fmts = both["fmt_a"].to_numpy()
    if strict:
        to_decode = np.nonzero(meta_ok)[0]
    else:
        byte_eq = np.fromiter((x == y for x, y in zip(ab, eb)), bool, len(ab)) \
            if len(ab) else np.array([], bool)
        to_decode = np.nonzero(meta_ok & ~byte_eq)[0]
    pix_bad = 0
    min_psnr = float("inf")
    for i in to_decode:
        try:
            da, de = decode_image(ab[i], fmts[i]), decode_image(eb[i], fmts[i])
        except Exception:
            pix_bad += 1
            continue
        if da.shape != de.shape:
            pix_bad += 1
            continue
        if ab[i] == eb[i]:  # strict path: decodability proven, pixels equal
            continue
        p = psnr(da, de)
        min_psnr = min(min_psnr, p)
        ok = (da == de).all() if fmts[i] == "png" else p >= PSNR_THRESHOLD_DB
        if not ok:
            pix_bad += 1
    return pa.table(
        {
            "pairs": [pairs],
            "missing": [missing],
            "unexpected": [unexpected],
            "caption_mismatch": [cap_bad],
            "meta_mismatch": [meta_bad],
            "pixel_fail": [pix_bad],
            "min_psnr": [min_psnr if min_psnr != float("inf") else float("nan")],
        },
        schema=REPORT_SCHEMA,
    )


def _expected_total(n: int) -> int:
    return n + max(1, n // 20)  # base rows + merge inserts (generator F2)


def verify_merged_map_only(table, *, n: int, seed: int = 42,
                           num_blocks: int | None = None,
                           merged: bool = True) -> dict:
    """STRICT verification with NO shuffle: because the expected table is a
    deterministic function of the row id (sources/generator.py), each batch
    of the actual scan REGENERATES its own expected rows in place and
    compares — caption exact, meta exact, pixels per row.  Map-only →
    scales like the decode kernel, not the shuffle.

    ``merged=True`` expects the POST-merge state (unchanged + updated rows +
    inserts) and applies the literal north_star row gate: every surviving
    row's bytes are DECODED and compared against the regenerated expected
    pixels (gen_pixels — allclose / bit-exact for png, PSNR >= 40 dB for
    lossy).  ``merged=False`` expects the PRE-merge state — the
    snapshot-isolation clause: a reader pinned to a pre-maintenance version
    must see BYTE-IDENTICAL rows, so the gate is byte equality against the
    canonical encoding (decode runs only on byte mismatch, to report whether
    the damage is cosmetic or pixel-level; byte-equal rows are decodable by
    construction — the codec round-trip is pinned by test_functions).

    Completeness without a join: the expected id domain is closed ([0, n) ∪
    inserts), so zero unexpected rows + `pairs == expected_total` + the
    order-independent id-multiset checksum matching the domain checksum
    (see _id_checksums) together imply the surviving ids are EXACTLY the
    expected set — uniqueness included, so a duplicate-one/drop-another
    merge bug cannot keep the gate green.
    """
    import ray

    from ..sources.generator import (
        _update_mask,
        gen_batch,
        gen_pixels,
        gen_update_batch,
        gen_update_pixels,
    )

    cs_schema = pa.schema(list(REPORT_SCHEMA)
                          + [("cs1", pa.uint64()), ("cs2", pa.uint64())])

    def check(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        nums = np.array([int(s.rsplit("_", 1)[1]) for s in ids], dtype=np.uint64)
        is_ins = nums >= np.uint64(INSERT_BASE)
        in_base = nums < np.uint64(n)
        n_ins_total = max(1, n // 20)
        ins_ok = merged & is_ins & (nums < np.uint64(INSERT_BASE + n_ins_total))
        unexpected = int((~(in_base | ins_ok)).sum())
        cs1, cs2 = _id_checksums(nums[in_base | ins_ok])
        upd = np.zeros(len(nums), bool)
        if merged and in_base.any():
            upd_mask = _update_mask(nums[in_base], seed)
            upd[np.nonzero(in_base)[0][upd_mask]] = True
        cap_bad = meta_bad = pix_bad = 0
        pairs = 0
        min_psnr = float("inf")
        # The POST-MERGE gate compares against expected DECODED PIXELS
        # (gen_pixels — the literal north_star invariant) so the expected
        # byte stream is never re-encoded; the SNAPSHOT gate (merged=False)
        # keeps the stricter byte-identity comparison against the canonical
        # encoding (gen_batch), proving the pinned version byte-faithful.
        if merged:
            branches = (
                (in_base & ~upd, lambda x: gen_pixels(x, seed)),
                (upd, lambda x: gen_update_pixels(x, seed)),
                (ins_ok, lambda x: gen_pixels(x, seed + 7)),
            )
        else:
            branches = (
                (in_base & ~upd, lambda x: gen_batch(x, seed)),
                (upd, lambda x: gen_update_batch(x, seed)),
                (ins_ok, lambda x: gen_batch(x, seed + 7)),
            )
        for sel, gen in branches:
            if not sel.any():
                continue
            act = batch.filter(pa.array(sel))
            exp = gen(nums[sel])
            exp_pixels = None
            if isinstance(exp, tuple):
                exp, exp_pixels = exp
            pairs += act.num_rows
            cap_a = act["caption"].to_pylist()
            cap_e = exp["caption"].to_pylist()
            cap_bad += sum(x != y for x, y in zip(cap_a, cap_e))
            meta_ok = np.ones(act.num_rows, bool)
            for c in ("w", "h", "phash"):
                meta_ok &= act[c].to_numpy() == exp[c].to_numpy()
            fmt_a = act["fmt"].to_pylist()
            fmt_e = exp["fmt"].to_pylist()
            meta_ok &= np.array([x == y for x, y in zip(fmt_a, fmt_e)])
            meta_bad += int((~meta_ok).sum())
            ab = act["bytes"].to_pylist()
            if exp_pixels is not None:
                # pixel gate: decode actual, compare to expected pixels
                for i in np.nonzero(meta_ok)[0]:
                    try:
                        da = decode_image(ab[i], fmt_a[i])
                    except Exception:
                        pix_bad += 1
                        continue
                    pe = exp_pixels[i]
                    if da.shape != pe.shape:
                        pix_bad += 1
                        continue
                    if (da == pe).all():
                        continue
                    p = psnr(da, pe)
                    min_psnr = min(min_psnr, p)
                    if fmt_a[i] == "png" or p < PSNR_THRESHOLD_DB:
                        pix_bad += 1
                continue
            eb = exp["bytes"].to_pylist()
            for i in np.nonzero(meta_ok)[0]:
                if ab[i] == eb[i]:
                    # byte-identical to the canonical encoding — the literal
                    # snapshot-isolation clause; decodability is implied (the
                    # canonical encoder round-trips by construction, pinned
                    # by the codec tests), so decoding here proves nothing
                    continue
                try:
                    da = decode_image(ab[i], fmt_a[i])
                except Exception:
                    pix_bad += 1
                    continue
                try:
                    de = decode_image(eb[i], fmt_e[i])
                except Exception:
                    pix_bad += 1
                    continue
                if da.shape != de.shape:
                    pix_bad += 1
                    continue
                p = psnr(da, de)
                min_psnr = min(min_psnr, p)
                ok = (da == de).all() if fmt_a[i] == "png" else p >= PSNR_THRESHOLD_DB
                if not ok:
                    pix_bad += 1
        return pa.table({
            "pairs": [pairs], "missing": [0], "unexpected": [unexpected],
            "caption_mismatch": [cap_bad], "meta_mismatch": [meta_bad],
            "pixel_fail": [pix_bad],
            "min_psnr": [min_psnr if min_psnr != float("inf") else float("nan")],
            "cs1": [cs1], "cs2": [cs2],
        }, schema=cs_schema)

    nb = num_blocks or 3 * int(ray.cluster_resources().get("CPU", 8))
    rep_ds = table.to_dataset(override_num_blocks=nb).map_batches(
        check, batch_format="pyarrow")
    totals = {f: 0 for f in REPORT_SCHEMA.names}
    totals["min_psnr"] = float("inf")
    cs1 = cs2 = 0
    for b in rep_ds.iter_batches(batch_format="pyarrow"):
        for row in b.to_pylist():
            for f in ("pairs", "unexpected", "caption_mismatch",
                      "meta_mismatch", "pixel_fail"):
                totals[f] += row[f]
            cs1 = (cs1 + row["cs1"]) % _U64
            cs2 = (cs2 + row["cs2"]) % _U64
            if row["min_psnr"] == row["min_psnr"]:
                totals["min_psnr"] = min(totals["min_psnr"], row["min_psnr"])
    expected_total = _expected_total(n) if merged else n
    exp_cs1, exp_cs2 = expected_domain_checksums(n, merged)
    totals["missing"] = max(0, expected_total - totals["pairs"])
    totals["id_checksum_ok"] = (cs1 == exp_cs1 and cs2 == exp_cs2)
    totals["passed"] = (
        totals["missing"] == 0 and totals["unexpected"] == 0
        and totals["caption_mismatch"] == 0 and totals["meta_mismatch"] == 0
        and totals["pixel_fail"] == 0 and totals["pairs"] == expected_total
        and totals["id_checksum_ok"]
    )
    if totals["min_psnr"] == float("inf"):
        totals["min_psnr"] = None
    return totals


def scan_equivalence(actual_ds, expected_ds, *, num_parts: int = 16,
                     strict: bool = False) -> dict:
    """Distributed row-by-row equivalence of two image datasets; returns the
    aggregated report dict with ``passed`` verdict.  ``strict`` decodes both
    sides of every pair (see _compare_partition)."""

    def tag(side):
        def fn(batch: pa.Table) -> pa.Table:
            b = batch.append_column(
                SIDE_COL, pa.array(np.full(batch.num_rows, side, np.int8))
            )
            return assign_hash_part(b, "image_id", num_parts)
        return fn

    both = actual_ds.map_batches(tag(0), batch_format="pyarrow").union(
        expected_ds.map_batches(tag(1), batch_format="pyarrow")
    )
    rep_ds = both.groupby(PART_COL).map_groups(
        _compare_partition, fn_kwargs=dict(strict=strict), batch_format="pyarrow"
    )
    totals = {f: 0 for f in REPORT_SCHEMA.names}
    totals["min_psnr"] = float("inf")
    for b in rep_ds.iter_batches(batch_format="pyarrow"):
        for row in b.to_pylist():
            for f in ("pairs", "missing", "unexpected", "caption_mismatch",
                      "meta_mismatch", "pixel_fail"):
                totals[f] += row[f]
            if row["min_psnr"] == row["min_psnr"]:  # not NaN
                totals["min_psnr"] = min(totals["min_psnr"], row["min_psnr"])
    totals["passed"] = (
        totals["missing"] == 0
        and totals["unexpected"] == 0
        and totals["caption_mismatch"] == 0
        and totals["meta_mismatch"] == 0
        and totals["pixel_fail"] == 0
    )
    if totals["min_psnr"] == float("inf"):
        totals["min_psnr"] = None
    return totals
