"""MV refresh scheduler: interval-driven refresh of registered materialized
views with persisted refresh statistics — the real version of the reference's
cron-style loop (`ops/view_refresh_scheduler.py:77-142`: schedule-lib loop →
`_refresh_views`; `:184-201`: refresh_stats.json persistence).

Differences from the reference (by design):
- change detection is REAL: a view is due when its source table's manifest
  version advanced past the version recorded at the last refresh, or its
  interval elapsed — the reference's `_should_refresh` is a stub that always
  returns False (`ops/view_refresh_scheduler.py:158-182`).
- the loop is bounded (`run_loop(iterations=...)`) so tests and `ray job
  submit` runs terminate deterministically; production wraps it in whatever
  process supervisor owns the node.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from ..state.manifest import write_atomic


@dataclass
class ScheduledView:
    view: object                    # MaterializedView
    interval_seconds: float = 3600.0
    source_version_fn: object = None  # () -> hashable snapshot version, or None
    last_refresh_at: float | None = None
    last_source_version: object = None
    stats: list = field(default_factory=list)

    def due(self, now: float) -> bool:
        if self.last_refresh_at is None:
            return True
        if self.source_version_fn is not None:
            v = self.source_version_fn()
            if v != self.last_source_version:
                return True
        return (now - self.last_refresh_at) >= self.interval_seconds


class RefreshScheduler:
    def __init__(self, stats_path: str | None = None):
        self.views: dict[str, ScheduledView] = {}
        self.stats_path = stats_path
        if stats_path and os.path.exists(stats_path):
            with open(stats_path) as f:
                self._persisted = json.load(f)
        else:
            self._persisted = {}

    def register(self, view, *, interval_seconds: float = 3600.0,
                 source_version_fn=None) -> None:
        sv = ScheduledView(view=view, interval_seconds=interval_seconds,
                           source_version_fn=source_version_fn)
        prior = self._persisted.get(view.name)
        if prior:  # resume scheduling state across restarts
            sv.last_refresh_at = prior.get("last_refresh_at")
            sv.last_source_version = prior.get("last_source_version")
        self.views[view.name] = sv

    def due_views(self, now: float | None = None) -> list[str]:
        now = time.time() if now is None else now
        return [name for name, sv in self.views.items() if sv.due(now)]

    def run_once(self, now: float | None = None) -> dict:
        """Refresh every due view; returns {view: refresh summary}."""
        now = time.time() if now is None else now
        report = {}
        for name in self.due_views(now):
            sv = self.views[name]
            t0 = time.time()
            summary = sv.view.refresh()
            sv.last_refresh_at = now
            if sv.source_version_fn is not None:
                sv.last_source_version = sv.source_version_fn()
            rec = {"at": now, "seconds": round(time.time() - t0, 3),
                   "rows": summary.get("rows")}
            sv.stats.append(rec)
            report[name] = {**summary, **rec}
        self._persist()
        return report

    def run_loop(self, *, iterations: int, sleep_seconds: float = 0.0) -> list[dict]:
        """Bounded scheduler loop (the reference's `schedule`-lib while-True,
        `ops/view_refresh_scheduler.py:103-107`, made terminating)."""
        out = []
        for _ in range(iterations):
            out.append(self.run_once())
            if sleep_seconds:
                time.sleep(sleep_seconds)
        return out

    def _persist(self) -> None:
        if not self.stats_path:
            return
        data = {
            name: {
                "last_refresh_at": sv.last_refresh_at,
                "last_source_version": sv.last_source_version,
                "history": sv.stats[-50:],
            }
            for name, sv in self.views.items()
        }
        write_atomic(self.stats_path, json.dumps(data, indent=1, default=str))

    def refresh_stats(self) -> dict:
        return {name: list(sv.stats) for name, sv in self.views.items()}
