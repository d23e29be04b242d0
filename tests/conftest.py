"""Session-scoped Ray fixture: initialise Ray ONCE for the whole pytest run."""

from __future__ import annotations

import logging

import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()


@pytest.fixture()
def tmp_table_root(tmp_path):
    return str(tmp_path / "table")


@pytest.fixture()
def pin_merge_plan(monkeypatch):
    """``pin_merge_plan("cow" | "shuffle")`` makes MERGE's plan chooser
    return that plan for every job started afterwards (resumed jobs keep
    the plan recorded in their job meta)."""
    from ocel_ocpn_lakehouse_ray.stages import merge

    def pin(plan: str) -> None:
        monkeypatch.setattr(merge, "choose_merge_plan",
                            lambda src_bytes, touched_bytes: plan)

    return pin
