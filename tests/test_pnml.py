"""PNML XML parse stage (reference S8 `ingest/discover_and_store_ocpn.py:
36-60`): synthesizer/parser round trip, namespace handling, and the
distributed arc-explode pipeline."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from ocel_ocpn_lakehouse_ray.functions.pnml import (
    parse_pnml,
    pnml_arc_rows,
    synth_pnml,
)


def test_pnml_round_trip_counts_and_marking():
    blob = synth_pnml("net_a", n_places=6, n_transitions=5, seed=7)
    parsed = parse_pnml(blob)
    assert parsed["net_id"] == "net_a"
    assert len(parsed["places"]) == 6
    assert len(parsed["transitions"]) == 5
    assert len(parsed["arcs"]) == 10  # one in + one out per transition
    markings = {pid: m for pid, _, m in parsed["places"]}
    assert markings["p0"] == 1 and sum(markings.values()) == 1
    names = {pid: nm for pid, nm, _ in parsed["places"]}
    assert names["p3"] == "place_3"


def test_pnml_parser_handles_foreign_namespace_and_no_marking():
    xml = (b'<?xml version="1.0"?>'
           b'<pnml xmlns="http://example.com/other-ns"><net id="x"><page id="g">'
           b'<place id="pa"/><transition id="tb"/>'
           b'<arc id="a1" source="pa" target="tb"/>'
           b'</page></net></pnml>')
    parsed = parse_pnml(xml)
    assert parsed["net_id"] == "x"
    assert parsed["places"] == [("pa", "pa", 0)]
    assert parsed["transitions"] == [("tb", "tb")]
    assert parsed["arcs"] == [("a1", "pa", "tb")]


def test_pnml_synth_is_deterministic():
    assert synth_pnml("n", 4, 3, seed=1) == synth_pnml("n", 4, 3, seed=1)
    assert synth_pnml("n", 4, 3, seed=1) != synth_pnml("n", 4, 3, seed=2)


def test_discovery_algorithm_registry():
    from ocel_ocpn_lakehouse_ray.pipelines.ocpn import (
        DISCOVERY_ALGORITHMS,
        discover_petri_net,
    )

    assert set(DISCOVERY_ALGORITHMS) >= {"dfg", "dfg_filtered"}
    full = discover_petri_net("/root/testdata/sf0.001", "dfg").to_pandas()
    filt = discover_petri_net("/root/testdata/sf0.001", "dfg_filtered",
                              min_frequency=10**9).to_pandas()
    assert len(full) > 0
    assert len(filt) == 0  # absurd threshold filters every edge
    assert (full["frequency"] > 0).all()
    with pytest.raises(ValueError, match="unknown discovery algorithm"):
        discover_petri_net("/root/testdata/sf0.001", "alpha-miner-pro")


def test_pnml_arc_rows_stage_and_registry_entry():
    import pyarrow as pa

    batch = pa.table({
        "net_id": ["n1", "n2"],
        "pnml": [synth_pnml("n1", 5, 4, seed=3), synth_pnml("n2", 5, 4, seed=4)],
    })
    out = pnml_arc_rows(batch)
    assert out.num_rows == 2 * 8  # 2 arcs per transition × 4 transitions
    kinds = set(zip(out["src_kind"].to_pylist(), out["dst_kind"].to_pylist()))
    # bipartite: arcs always cross place↔transition
    assert kinds <= {("place", "transition"), ("transition", "place")}

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as e

    df = e.queries()["pnml_arcs"]("/root/testdata/sf0.001").to_pandas()
    assert len(df) == 4 * 10  # 4 nets × (2 arcs × 5 transitions)
    assert set(df.columns) == {"net_id", "arc_id", "source", "target",
                               "src_kind", "dst_kind"}


def test_synth_pnml_is_identical_across_processes():
    """The net's seed must not come from ``hash(net_id)``: Python salts str
    hashes per process, so ``q_pnml_arcs`` would differ between runs."""
    import os
    import pathlib
    import subprocess

    repo = str(pathlib.Path(__file__).resolve().parent.parent)
    code = ("import sys; from ocel_ocpn_lakehouse_ray.functions.pnml import "
            "synth_pnml; sys.stdout.buffer.write(synth_pnml('net_7', 6, 5))")
    blobs = [subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, cwd=repo,
                            env={**os.environ, "PYTHONHASHSEED": s}).stdout
             for s in ("1", "2")]
    assert blobs[0] and blobs[0] == blobs[1]
