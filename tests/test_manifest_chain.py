"""One manifest chain for main and branches (state/manifest.py): a branch
handle reads, diffs, rolls back and evolves its own chain, the on-disk
layout of both chains is pinned, every small metadata file is published by
``write_atomic``, and state/branches.py keeps only ref operations."""

import ast
import os
import pathlib

import numpy as np
import pyarrow as pa
import pytest

from ocel_ocpn_lakehouse_ray.config import TableConfig
from ocel_ocpn_lakehouse_ray.sources.generator import gen_batch
from ocel_ocpn_lakehouse_ray.stages.evolution import evolve_schema
from ocel_ocpn_lakehouse_ray.state import manifest as mf
from ocel_ocpn_lakehouse_ray.table import IMAGE_SCHEMA, LakeTable

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "ocel_ocpn_lakehouse_ray"
SEED = 7


def _forked(root):
    """Main v1 holds 2 rows; branch "audit" forks there and appends 1."""
    t = LakeTable.create(root, IMAGE_SCHEMA,
                         TableConfig(target_fragment_bytes=1 << 20))
    t = t.append_arrow(gen_batch(np.arange(2), SEED))
    b = t.create_branch("audit").append_arrow(gen_batch(np.arange(2, 3), SEED))
    return t, b


def test_branch_handle_reads_its_own_chain(tmp_table_root):
    main, b = _forked(tmp_table_root)
    assert [m.operation for m in b.history()] == ["branch_fork", "append"]
    d = b.diff(0)
    assert (d["added_rows"], d["removed_rows"]) == (1, 0)
    assert d["operations"] == ["append"]
    assert b.read_incremental(0).count() == 1
    snaps = b.meta_dataset("snapshots").to_pandas()
    assert list(snaps["version"]) == [0, 1]
    assert list(snaps["operation"]) == ["branch_fork", "append"]

    r = b.rollback(0)
    assert r.branch == "audit" and r.version == 2
    assert r.manifest.total_rows == 2
    assert r.manifest.fragment_ids() == main.manifest.fragment_ids()
    assert LakeTable.load(tmp_table_root).version == main.version  # main idle


def test_evolve_schema_on_branch_commits_to_the_branch(tmp_table_root):
    main, _ = _forked(tmp_table_root)
    b = LakeTable.load(tmp_table_root, branch="audit")
    e = evolve_schema(b, [pa.field("score", pa.float64())])
    assert e.branch == "audit" and e.version == 2
    assert e.schema.names[-1] == "score"
    assert mf.read_latest_version(tmp_table_root, branch="audit") == 2
    m = LakeTable.load(tmp_table_root)
    assert m.version == main.version
    assert m.schema.names == main.schema.names
    assert m.history()[-1].operation == "append"


def test_chain_layout_on_disk(tmp_table_root):
    """Both chains keep their original file names, so tables and branches
    written before the chains were unified open unchanged."""
    _forked(tmp_table_root)
    root = pathlib.Path(tmp_table_root)
    assert sorted(os.listdir(root)) == [
        "._latest.lock", "_branches", "_latest", "data", "journal",
        "manifests"]
    assert sorted(os.listdir(root / "manifests")) == [
        "v00000000.json", "v00000001.json"]
    assert (root / "_latest").read_text() == "1"
    assert sorted(os.listdir(root / "_branches" / "audit")) == [
        ".lock", "_latest", "v00000000.json", "v00000001.json"]
    assert (root / "_branches" / "audit" / "_latest").read_text() == "1"
    fork = mf.Manifest.from_json(
        (root / "_branches" / "audit" / "v00000000.json").read_text())
    assert fork.operation == "branch_fork"
    with pytest.raises(KeyError):
        mf.read_latest_version(tmp_table_root, branch="nope")


def test_write_atomic(tmp_path):
    p = str(tmp_path / "state.json")
    mf.write_atomic(p, "a")
    mf.write_atomic(p, "b")
    assert open(p).read() == "b"
    v = str(tmp_path / "v00000001.json")
    mf.write_atomic(v, "first", exclusive=True)
    with pytest.raises(FileExistsError):
        mf.write_atomic(v, "second", exclusive=True)
    assert open(v).read() == "first"
    # no temp file survives a publish, a replace or a failed create
    assert sorted(os.listdir(tmp_path)) == ["state.json", "v00000001.json"]


def test_branches_module_holds_only_ref_operations():
    """The chain plumbing (locks, manifest files, the commit loop) lives in
    state/manifest.py alone: state/branches.py takes no lock and opens no
    file for writing, and only LakeTable.commit and publish_branch call
    commit_version."""
    tree = ast.parse((PACKAGE / "state" / "branches.py").read_text())
    imports = {a.name for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom))
               for a in n.names} | {
        n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "fcntl" not in imports
    opens = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
             and getattr(n.func, "id", None) == "open"]
    assert opens == []

    callers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for n in ast.walk(fn):
                if isinstance(n, ast.Call) and "commit_version" in (
                        getattr(n.func, "attr", None),
                        getattr(n.func, "id", None)):
                    callers.add((rel, fn.name))
    assert callers == {("table.py", "commit"),
                       ("state/branches.py", "publish_branch")}


def test_maintenance_plan_of_a_branch_reads_the_branch_chain(tmp_table_root):
    """A branch handle's plan counts the branch's own manifests and never
    recommends expiry: expire_snapshots trims main's chain only."""
    from ocel_ocpn_lakehouse_ray.stages.plan import generate_maintenance_plan

    t = LakeTable.create(tmp_table_root, IMAGE_SCHEMA,
                         TableConfig(target_fragment_bytes=1 << 20))
    for i in range(12):
        t = t.append_arrow(gen_batch(np.arange(i, i + 1), SEED))
    b = t.create_branch("audit")
    later = 1e12  # every snapshot is "very old" → main recommends expiry
    main_plan = generate_maintenance_plan(t, now=later)
    assert main_plan["retention"]["snapshots"] == 13
    assert "expire_gc" in {j["job"] for j in main_plan["jobs"]}
    plan = generate_maintenance_plan(b, now=later)
    assert plan["retention"]["snapshots"] == 1
    assert plan["health"]["snapshots"] == 1
    assert "expire_gc" not in {j["job"] for j in plan["jobs"]}


def test_manifest_json_round_trip_and_indented_manifests_load(tmp_table_root):
    t = LakeTable.create(tmp_table_root, IMAGE_SCHEMA,
                         TableConfig(target_fragment_bytes=1 << 20))
    t = t.append_arrow(gen_batch(np.arange(3), SEED))
    m = t.manifest
    assert m.fragments and m.fragments[0].stats
    text = m.to_json()
    assert "\n" not in text and ", " not in text  # compact separators
    assert mf.Manifest.from_json(text) == m
    # manifests written with json.dumps(indent=1) still load
    import json

    indented = json.dumps(json.loads(text), indent=1)
    assert mf.Manifest.from_json(indented) == m
    assert m.fragments[0].to_dict() == json.loads(text)["fragments"][0]
