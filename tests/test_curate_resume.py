"""Curation lineage (VERDICT r4 #7): per-stage drop manifests are journaled
under out_dir/_curation, so an interrupted curation resumes stage-exactly —
a crash mid-near-dedup reuses the journaled exact-dedup result and the
final corpus is identical to an uninterrupted run."""

from __future__ import annotations

import glob
import os

import pyarrow.parquet as pq
import pytest

from ocel_ocpn_lakehouse_ray.pipelines.curate import curate_corpus

SF = "/root/testdata/sf0.001"


def _corpus_ids(out_dir):
    ids = []
    for f in sorted(glob.glob(os.path.join(out_dir, "*.parquet"))):
        ids.extend(pq.read_table(f, columns=["doc_id"])["doc_id"].to_pylist())
    return sorted(ids)


def test_resume_mid_near_dedup_identical_corpus(tmp_path):
    clean_dir = str(tmp_path / "clean")
    crash_dir = str(tmp_path / "crash")

    clean = curate_corpus(SF, clean_dir)

    # crash right after the near-dedup journal is written (mid-pipeline:
    # exact + near journaled, export never ran)
    with pytest.raises(RuntimeError, match="failpoint"):
        curate_corpus(SF, crash_dir, failpoint="near")
    jdir = os.path.join(crash_dir, "_curation")
    assert os.path.exists(os.path.join(jdir, "exact_drops.parquet"))
    assert os.path.exists(os.path.join(jdir, "near_drops.parquet"))
    assert not os.path.exists(os.path.join(jdir, "_SUCCESS"))
    assert _corpus_ids(crash_dir) == []  # no shards yet

    resumed = curate_corpus(SF, crash_dir)
    assert _corpus_ids(crash_dir) == _corpus_ids(clean_dir)
    for k in ("n_input", "n_quality", "exact_dup_drops", "near_dup_drops",
              "n_output"):
        assert resumed[k] == clean[k], k


def test_resume_mid_exact_dedup(tmp_path):
    """Earlier failpoint: only the exact journal exists; the resume must
    recompute near-dedup and still converge."""
    clean_dir = str(tmp_path / "clean")
    crash_dir = str(tmp_path / "crash")
    clean = curate_corpus(SF, clean_dir)
    with pytest.raises(RuntimeError, match="failpoint"):
        curate_corpus(SF, crash_dir, failpoint="exact")
    jdir = os.path.join(crash_dir, "_curation")
    assert os.path.exists(os.path.join(jdir, "exact_drops.parquet"))
    assert not os.path.exists(os.path.join(jdir, "near_drops.parquet"))
    resumed = curate_corpus(SF, crash_dir)
    assert _corpus_ids(crash_dir) == _corpus_ids(clean_dir)
    assert resumed["n_output"] == clean["n_output"]


def test_rerun_after_success_is_stable(tmp_path):
    """A second run over a completed out_dir changes nothing (marker short-
    circuits the export; journals short-circuit the stages)."""
    out = str(tmp_path / "o")
    r1 = curate_corpus(SF, out)
    ids1 = _corpus_ids(out)
    r2 = curate_corpus(SF, out)
    assert _corpus_ids(out) == ids1
    assert r2["n_output"] == r1["n_output"]
    assert r2["shards"] == r1["shards"]


def test_rerun_with_other_parameters_starts_fresh(tmp_path):
    """The journal is fingerprinted: a second run into the same out_dir with
    a different ``min_tokens`` returns what a fresh run with it returns,
    not the first run's journaled drop sets and shards."""
    out = str(tmp_path / "o")
    fresh_dir = str(tmp_path / "fresh")
    curate_corpus(SF, out)
    first_ids = _corpus_ids(out)
    second = curate_corpus(SF, out, min_tokens=40)
    fresh = curate_corpus(SF, fresh_dir, min_tokens=40)
    assert _corpus_ids(out) == _corpus_ids(fresh_dir) != first_ids
    for k in ("n_input", "n_quality", "exact_dup_drops", "near_dup_drops",
              "n_output", "shards"):
        assert second[k] == fresh[k], k
