"""Manifest chain: the engine's table-metadata layer (the real version of the
reference's Iceberg snapshot machinery).

The reference delegates table metadata to PyIceberg (catalog load at
`ops/maintenance_system.py:16-27`, snapshot history at
`ops/maintenance_system.py:62-64,181-190`) and explicitly stubs the commit path
(`ops/commit_staged_files.py:63-64` "In production, you'd use proper Iceberg
AppendFiles operation").  This module *is* that production path, built for a
file-based Lance-style layout:

    table_root/
      data/frag-<contenthash>.parquet     immutable fragments
      manifests/v00000001.json            one manifest per committed version
      _latest                             main head pointer
      ._latest.lock                       flock serializing main head swaps
      _branches/<name>/v00000000.json     a branch's own chain (v0 = fork copy;
      _branches/<name>/_latest              state/branches.py holds the ref
      _branches/<name>/.lock                operations)
      journal/<job_id>/part-*.json        per-partition lineage (state/lineage.py)

Main and every branch are the same kind of chain; ``_chain`` is the one place
that knows where a chain lives, and every chain function takes ``branch``
(None = main).  Commit protocol (snapshot isolation, SURVEY.md §4 "Atomic
commit / isolation"), one for every chain (``commit_version``):
  1. rebase onto the chain's head, checking every removed fragment is still
     live there (``CommitConflict`` otherwise);
  2. create ``v{n}.json`` exclusively (``write_atomic(..., exclusive=True)``)
     — a concurrent committer loses and retries on the new base;
  3. monotonically swap the head pointer under the chain's flock; a loser
     first rolls the head forward to the highest manifest, which also
     finishes a publish that crashed between steps 2 and 3.
Readers resolve the head once at open and then only ever touch immutable
files, so a reader pinned to version V sees byte-identical data while and after
V+1 commits (north_star snapshot-isolation invariant).
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import NamedTuple

FORMAT_VERSION = 1
MANIFEST_DIR = "manifests"
DATA_DIR = "data"
JOURNAL_DIR = "journal"
LATEST_FILE = "_latest"
BRANCHES_DIR = "_branches"
ARROW_BYTES_STAT = "__nbytes"  # the fragment's Arrow size, stamped at write


@dataclass
class FragmentMeta:
    """One immutable data fragment + the column stats used for scan pruning.

    ``stats`` maps column name → {"min": v, "max": v, "null_count": n} for every
    non-binary column — the payload of the reference's "manifest rewrite"
    (scan planning reads file_size_in_bytes at `ops/maintenance_system.py:38-49`;
    we add per-column min/max so predicates can prune fragments).  Keys with a
    ``__`` prefix are not columns (``__bloom``, ``__nbytes``).
    """

    fragment_id: str
    path: str                      # relative to table root
    rows: int
    bytes: int
    stats: dict = field(default_factory=dict)

    @property
    def arrow_bytes(self) -> int:
        """The fragment's size in Arrow bytes, the unit the fragment writer
        splits on (``target_fragment_bytes``); parquet's encodings can store
        it far smaller on disk.  Fragments written before the stamp fall back
        to their file size."""
        return self.stats.get(ARROW_BYTES_STAT, self.bytes)

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "FragmentMeta":
        return cls(**d)

    def prune(self, column: str, lo=None, hi=None) -> bool:
        """True if this fragment can be SKIPPED for predicate lo <= col <= hi."""
        st = self.stats.get(column)
        if not st or st.get("min") is None:
            return False
        if lo is not None and st["max"] < lo:
            return True
        if hi is not None and st["min"] > hi:
            return True
        return False


@dataclass
class Manifest:
    version: int
    parent: int | None
    created_at: float
    operation: str
    schema: list              # [[name, arrow-type-string], ...]
    config: dict
    fragments: list           # list[FragmentMeta]
    summary: dict = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(f.bytes for f in self.fragments)

    @property
    def total_rows(self) -> int:
        return sum(f.rows for f in self.fragments)

    def fragment_ids(self) -> set:
        return {f.fragment_id for f in self.fragments}

    def to_json(self) -> str:
        # compact, and no dataclasses.asdict deep copy: both dominated the
        # commit cost of a 1,000-fragment manifest (loaders ignore whitespace)
        d = dict(self.__dict__, fragments=[f.__dict__ for f in self.fragments],
                 format_version=FORMAT_VERSION)
        return json.dumps(d, separators=(",", ":"))

    @classmethod
    def from_json(cls, s: str) -> "Manifest":
        d = json.loads(s)
        d.pop("format_version", None)
        d["fragments"] = [FragmentMeta.from_dict(f) for f in d["fragments"]]
        return cls(**d)


class _Chain(NamedTuple):
    dir: str       # v{n:08d}.json manifests
    head: str      # pointer file holding the head version
    lock: str      # flock file serializing head swaps


def _chain(root: str, branch: str | None) -> _Chain:
    """Where a chain lives: main, or the named branch's subchain."""
    if branch is None:
        return _Chain(os.path.join(root, MANIFEST_DIR),
                      os.path.join(root, LATEST_FILE),
                      os.path.join(root, f".{LATEST_FILE}.lock"))
    from .branches import check_name  # branches imports this module

    d = os.path.join(root, BRANCHES_DIR, check_name(branch))
    return _Chain(d, os.path.join(d, LATEST_FILE), os.path.join(d, ".lock"))


def write_atomic(path: str, text: str, *, exclusive: bool = False) -> None:
    """Publish ``text`` at ``path`` whole or not at all: write a uniquely
    named temp file, fsync it, then rename it into place.  ``exclusive``
    links the temp file instead, so a second create raises FileExistsError
    (the O_EXCL manifest create)."""
    d, name = os.path.split(path)
    tmp = os.path.join(d, f".{name}.tmp.{uuid.uuid4().hex}")
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        (os.link if exclusive else os.replace)(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def manifest_path(root: str, version: int, *, branch: str | None = None) -> str:
    return os.path.join(_chain(root, branch).dir, f"v{version:08d}.json")


def _read_head(path: str) -> int:
    with open(path) as f:
        return int(f.read().strip())


def read_latest_version(root: str, *, branch: str | None = None) -> int:
    try:
        return _read_head(_chain(root, branch).head)
    except FileNotFoundError:
        if branch is None:
            raise
        raise KeyError(f"unknown branch {branch!r}") from None


def load_manifest(root: str, version: int | None = None, *,
                  branch: str | None = None) -> Manifest:
    if version is None:
        version = read_latest_version(root, branch=branch)
    with open(manifest_path(root, version, branch=branch)) as f:
        return Manifest.from_json(f.read())


def list_manifest_versions(root: str, *, branch: str | None = None) -> list[int]:
    mdir = _chain(root, branch).dir
    if not os.path.isdir(mdir):
        return []
    return sorted(int(name[1:-5]) for name in os.listdir(mdir)
                  if name.startswith("v") and name.endswith(".json"))


def init_table_dirs(root: str) -> None:
    os.makedirs(os.path.join(root, DATA_DIR), exist_ok=True)
    os.makedirs(os.path.join(root, MANIFEST_DIR), exist_ok=True)
    os.makedirs(os.path.join(root, JOURNAL_DIR), exist_ok=True)


def _swap_head(root: str, version: int, branch: str | None) -> None:
    """MONOTONICALLY advance the chain's head to ``version`` (no-op if
    already ahead): a crashed-commit repairer racing live committers must
    never move the pointer backwards.  Serialized by an flock on the
    chain's lock file (single-node; a shared object store would use a CAS
    on the pointer object instead)."""
    chain = _chain(root, branch)
    with open(chain.lock, "a") as lk:
        fcntl.flock(lk, fcntl.LOCK_EX)
        try:
            try:
                if version <= _read_head(chain.head):
                    return
            except (FileNotFoundError, ValueError):
                pass  # no pointer yet (initial create)
            write_atomic(chain.head, str(version))
        finally:
            fcntl.flock(lk, fcntl.LOCK_UN)


def publish_manifest(root: str, manifest: Manifest, *,
                     branch: str | None = None) -> None:
    """Atomic commit: exclusive manifest create + monotone head swap."""
    write_atomic(manifest_path(root, manifest.version, branch=branch),
                 manifest.to_json(), exclusive=True)
    _swap_head(root, manifest.version, branch)


class CommitConflict(RuntimeError):
    pass


def commit_version(
    root: str,
    *,
    base_version: int,
    operation: str,
    add: list,
    remove_ids: set,
    schema: list,
    config: dict,
    summary: dict | None = None,
    branch: str | None = None,
    max_retries: int = 10,
) -> Manifest:
    """Append a new manifest version to main or to ``branch``'s chain:
    carry over live fragments minus ``remove_ids`` plus ``add``.  Retries
    on concurrent-commit conflict by rebasing onto the new head, validating
    that every removed fragment is still live (otherwise the maintenance job
    operated on stale data and must abort — same failure Iceberg raises as a
    validation exception).  Branch commits stamp ``summary["branch"]``."""
    summary = dict(summary or {})
    if branch is not None:
        summary["branch"] = branch
    attempt_base = base_version
    for _ in range(max_retries):
        current = load_manifest(root, branch=branch)
        if current.version != attempt_base:
            live = current.fragment_ids()
            if not set(remove_ids) <= live:
                raise CommitConflict(
                    f"fragments {set(remove_ids) - live} were removed by a "
                    f"concurrent commit on {branch or 'main'} "
                    f"(base {attempt_base} → {current.version})"
                )
            attempt_base = current.version
        kept = [f for f in current.fragments if f.fragment_id not in remove_ids]
        new = Manifest(
            version=current.version + 1,
            parent=current.version,
            created_at=time.time(),
            operation=operation,
            schema=schema,
            config=config,
            fragments=kept + list(add),
            summary=summary,
        )
        try:
            publish_manifest(root, new, branch=branch)
            return new
        except FileExistsError:
            # Either we lost a live race (the winner will advance the head),
            # or a previous writer crashed AFTER creating v{n}.json but
            # BEFORE swapping the head — that orphan would wedge every future
            # commit at the same version number.  The orphan manifest was
            # durably published, so roll the head forward to the highest
            # manifest (a no-op behind a live winner); the next iteration
            # rebases past it.
            _swap_head(root, list_manifest_versions(root, branch=branch)[-1],
                       branch)
    raise CommitConflict(f"could not commit after {max_retries} attempts")


# ------------------------------------------------------------------- tags
# Named snapshot refs (Iceberg tags): a tag pins a version under a stable
# name so readers can open `LakeTable.load(root, tag="prod")` regardless of
# how many maintenance commits have advanced _latest.  Stored as one JSON
# map serialized by its own flock (.tags.lock); a tagged
# version's manifest is protected from snapshot expiry (stages/gc.py checks
# tagged_versions()).

TAGS_FILE = "_tags.json"


def _tags_path(root: str) -> str:
    return os.path.join(root, TAGS_FILE)


def read_tags(root: str) -> dict[str, int]:
    try:
        with open(_tags_path(root)) as f:
            return {k: int(v) for k, v in json.load(f).items()}
    except FileNotFoundError:
        return {}


def _write_tags_locked(root: str, mutate) -> dict[str, int]:
    with open(os.path.join(root, ".tags.lock"), "w") as lk:
        fcntl.flock(lk, fcntl.LOCK_EX)
        try:
            tags = mutate(read_tags(root))
            write_atomic(_tags_path(root), json.dumps(tags))
            return tags
        finally:
            fcntl.flock(lk, fcntl.LOCK_UN)


def set_tag(root: str, name: str, version: int) -> dict[str, int]:
    # the manifest must exist NOW; expiry protection keeps it afterwards
    load_manifest(root, version)

    def mut(tags):
        tags[name] = int(version)
        return tags

    return _write_tags_locked(root, mut)


def delete_tag(root: str, name: str) -> dict[str, int]:
    def mut(tags):
        tags.pop(name, None)
        return tags

    return _write_tags_locked(root, mut)


def tagged_versions(root: str) -> set[int]:
    return set(read_tags(root).values())
