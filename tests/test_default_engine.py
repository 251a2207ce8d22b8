"""The default engine: ``fast`` unless a config names another.

``repro sweep`` builds its jobs from ``SystemConfig.scaled()`` (or
``paper()``), so the config default is the engine every sweep cell runs
on.  ``reference`` stays selectable as the oracle.
"""

import pytest

from repro.cli import _config, build_parser
from repro.core.config import SystemConfig
from repro.core.cpu import Core
from repro.core.fastcpu import FastCore
from repro.experiments import runner
from repro.experiments.engine import Job, default_worker


def test_config_presets_default_to_fast():
    assert SystemConfig().engine == "fast"
    assert SystemConfig.paper().engine == "fast"
    assert SystemConfig.scaled().engine == "fast"


@pytest.fixture
def built_cores(monkeypatch):
    """Record the class of every core the runner builds."""
    built = []
    build_core = runner.build_core

    def recording_build_core(*args, **kwargs):
        core = build_core(*args, **kwargs)
        built.append(type(core))
        return core

    monkeypatch.setattr(runner, "build_core", recording_build_core)
    runner.clear_caches()  # a memoized result would build nothing
    yield built
    runner.clear_caches()


def _sweep_config(*flags):
    args = build_parser().parse_args(
        ["sweep", "--benchmarks", "mst", "--input-set", "test", *flags]
    )
    return _config(args)


def test_default_worker_runs_a_default_job_on_fast(built_cores):
    default_worker(Job("mst", "baseline", input_set="test"))
    assert built_cores == [FastCore]


def test_sweep_config_defaults_to_fast(built_cores):
    config = _sweep_config()
    assert config.engine == "fast"
    default_worker(Job("mst", "baseline", config, input_set="test"))
    assert built_cores == [FastCore]


def test_engine_reference_flag_still_builds_the_reference_core(built_cores):
    config = _sweep_config("--engine", "reference")
    default_worker(Job("mst", "baseline", config, input_set="test"))
    assert built_cores == [Core]
