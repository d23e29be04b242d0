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
