"""PNML (Petri Net Markup Language) XML parser + deterministic synthesizer —
the reference's format-parse stage made real (S8:
`ingest/discover_and_store_ocpn.py:36-60` pulls places / transitions / arcs
out of PNML with ElementTree; `raw_pnml BinaryType` blobs are stored "for
fidelity", `ingest/production_bootstrap.py:404`).

Pure stdlib (xml.etree): no external dependency.  The synthesizer emits
spec-shaped PNML (namespace, <net>/<page>/<place|transition|arc>, initial
markings) so the parser is exercised against realistic documents; both are
deterministic for test stability.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
import zlib

import numpy as np

PNML_NS = "http://www.pnml.org/version-2009/grammar/pnml"


def synth_pnml(net_id: str, n_places: int, n_transitions: int,
               seed: int = 42) -> bytes:
    """Deterministic PNML document: a random bipartite place/transition net
    with initial marking on the first place.  Seeded by a stable hash of
    ``net_id`` (``hash`` of a str is salted per process)."""
    rng = np.random.Generator(np.random.PCG64(seed ^ zlib.crc32(net_id.encode())))
    root = ET.Element("pnml", xmlns=PNML_NS)
    net = ET.SubElement(root, "net", id=net_id,
                        type="http://www.pnml.org/version-2009/grammar/ptnet")
    page = ET.SubElement(net, "page", id="page0")
    for i in range(n_places):
        p = ET.SubElement(page, "place", id=f"p{i}")
        name = ET.SubElement(ET.SubElement(p, "name"), "text")
        name.text = f"place_{i}"
        if i == 0:
            m = ET.SubElement(ET.SubElement(p, "initialMarking"), "text")
            m.text = "1"
    for i in range(n_transitions):
        t = ET.SubElement(page, "transition", id=f"t{i}")
        name = ET.SubElement(ET.SubElement(t, "name"), "text")
        name.text = f"transition_{i}"
    aid = 0
    for i in range(n_transitions):
        # each transition consumes from one place and produces to another
        src = int(rng.integers(0, n_places))
        dst = int(rng.integers(0, n_places))
        ET.SubElement(page, "arc", id=f"a{aid}", source=f"p{src}", target=f"t{i}")
        aid += 1
        ET.SubElement(page, "arc", id=f"a{aid}", source=f"t{i}", target=f"p{dst}")
        aid += 1
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_pnml(data: bytes) -> dict:
    """→ {net_id, places: [(id, name, initial_marking)], transitions:
    [(id, name)], arcs: [(id, source, target)]} — namespace-agnostic."""
    root = ET.fromstring(data)
    out = {"net_id": None, "places": [], "transitions": [], "arcs": []}

    def text_of(el, *path_locals):
        cur = el
        for want in path_locals:
            nxt = next((c for c in cur if _local(c.tag) == want), None)
            if nxt is None:
                return None
            cur = nxt
        return cur.text

    for el in root.iter():
        tag = _local(el.tag)
        if tag == "net":
            out["net_id"] = el.get("id")
        elif tag == "place":
            marking = text_of(el, "initialMarking", "text")
            out["places"].append((
                el.get("id"), text_of(el, "name", "text") or el.get("id"),
                int(marking) if marking else 0,
            ))
        elif tag == "transition":
            out["transitions"].append((
                el.get("id"), text_of(el, "name", "text") or el.get("id"),
            ))
        elif tag == "arc":
            out["arcs"].append((el.get("id"), el.get("source"), el.get("target")))
    return out


def pnml_arc_rows(batch):
    """map_batches stage: (net_id, pnml: binary) rows → one row per arc
    (net_id, arc_id, source, target, src_kind, dst_kind) — the reference's
    exploder shape (M3) applied to a parsed binary format."""
    import pyarrow as pa

    nets, aids, srcs, dsts, sk, dk = [], [], [], [], [], []
    for nid, blob in zip(batch["net_id"].to_pylist(), batch["pnml"].to_pylist()):
        parsed = parse_pnml(blob)
        place_ids = {p[0] for p in parsed["places"]}
        for aid, s, t in parsed["arcs"]:
            nets.append(nid)
            aids.append(aid)
            srcs.append(s)
            dsts.append(t)
            sk.append("place" if s in place_ids else "transition")
            dk.append("place" if t in place_ids else "transition")
    return pa.table({
        "net_id": pa.array(nets, pa.string()),
        "arc_id": pa.array(aids, pa.string()),
        "source": pa.array(srcs, pa.string()),
        "target": pa.array(dsts, pa.string()),
        "src_kind": pa.array(sk, pa.string()),
        "dst_kind": pa.array(dk, pa.string()),
    })
