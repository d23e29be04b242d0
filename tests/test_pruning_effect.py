"""The point of the manifest rewrite: after Z-order clustering, per-fragment
stats tighten so predicate pruning skips most fragments (SURVEY.md §7 step 5
"manifest rewrite records tighter min/max stats → pruning test")."""

import numpy as np

from ocel_ocpn_lakehouse_ray.sources.generator import HOT_PHASHES, create_image_table
from ocel_ocpn_lakehouse_ray.stages.clustering import run_clustering
from ocel_ocpn_lakehouse_ray.stages.compaction import run_compaction


def test_clustering_improves_phash_pruning(tmp_path):
    root = str(tmp_path / "t")
    t = create_image_table(root, 400, num_fragments=10)
    t, _ = run_compaction(t, job_id="pr-c")

    hot = int(np.uint64(HOT_PHASHES[0]).view(np.int64))
    predicate = [("phash", hot, hot)]

    before = len(t.live_fragments(predicate)) / max(1, len(t.fragments))
    t2, _ = run_clustering(t, order="zorder", job_id="pr-z", num_partitions=8)
    after = len(t2.live_fragments(predicate)) / max(1, len(t2.fragments))

    # pre-clustering the hot phash appears in ~every fragment; afterwards the
    # key range is concentrated in a small slice of fragments
    assert before >= 0.9, f"unexpected pre-clustering layout {before}"
    assert after < before, (before, after)
    assert after <= 0.5, f"clustering did not concentrate the key: {after}"
    # the pruned scan still returns every matching row
    import pyarrow.compute as pc

    cnt = 0
    for b in t2.to_dataset(columns=["phash"], predicates=predicate).iter_batches(batch_format="pyarrow"):
        cnt += pc.sum(pc.equal(b["phash"], hot)).as_py() or 0
    full = 0
    for b in t2.to_dataset(columns=["phash"]).iter_batches(batch_format="pyarrow"):
        full += pc.sum(pc.equal(b["phash"], hot)).as_py() or 0
    assert cnt == full and full > 0


def test_sample_boundaries_subsampled_path(tmp_path):
    """Exercise the frac<1.0 sampled branch of sample_boundaries (large
    tables take it; toy tables sample everything) and its determinism."""
    from ocel_ocpn_lakehouse_ray.stages.clustering import sample_boundaries

    root = str(tmp_path / "t")
    t = create_image_table(root, 300, num_fragments=10)
    b1 = sample_boundaries(t, "zorder", 4, sample_frac=0.05)
    b2 = sample_boundaries(t, "zorder", 4, sample_frac=0.05)
    assert b1 == b2 and len(b1) == 3
    assert all(b1[i] < b1[i + 1] for i in range(len(b1) - 1))
    # boundaries from the subsample partition the full key space sanely:
    # every partition gets a non-trivial share of rows
    import numpy as np
    import pyarrow.parquet as pq

    from ocel_ocpn_lakehouse_ray.stages.clustering import _salted

    keys = np.concatenate([
        _salted(pq.read_table(p, columns=["phash", "w", "h", "image_id"]),
                "zorder")
        for p in t.fragment_paths()])
    counts = np.bincount(np.searchsorted(np.array(b1, np.uint64), keys,
                                         side="right"), minlength=4)
    assert counts.min() >= len(keys) * 0.05, counts


def test_zorder_fragment_phash_ranges_follow_signed_order(tmp_path):
    """The cluster key orders phash as the signed int64 the fragment stats
    and scan predicates use: after Z-order clustering of a table holding
    both signs of phash, the fragments' phash ranges are disjoint up to one
    key bucket (an unsigned key order put the negative values after the
    positive ones, so one fragment spanned nearly the whole signed domain).

    w and h stay below 2**8, so the Morton key orders rows by phash's top 8
    bits before any w/h bit: only rows of one 2**56-wide phash bucket can
    interleave across a partition boundary, and two fragments overlap by
    less than that bucket."""
    root = str(tmp_path / "t")
    t = create_image_table(root, 400, num_fragments=10)
    t, _ = run_compaction(t, job_id="dj-c")
    t, _ = run_clustering(t, order="zorder", job_id="dj-z", num_partitions=8)
    spans = sorted((f.stats["phash"]["min"], f.stats["phash"]["max"])
                   for f in t.fragments)
    assert spans[0][0] < 0 < spans[-1][1]
    assert len(spans) > 1
    # sorted by min, a fragment overlapping ANY later one by a bucket or
    # more also overlaps its successor by that much
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert hi - lo < 1 << 56, spans
