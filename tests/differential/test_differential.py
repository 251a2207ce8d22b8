"""The differential matrix: every engine == reference engine, exactly.

Every cell of (workload x mechanism) runs under both engines — reference
and fast — on the ``test`` input set and must produce identical
CoreResults, cache / DRAM / queue counters, final aggressiveness levels,
and (where coordinated throttling is attached) identical
interval-by-interval throttle trajectories.
Mechanisms are chosen to cover every optimized-path branch: the raw
kernel, stream training, CDP scans + recursive deferred scans, compiler
hints (per-offset and per-load), the hardware prefetch filter, the
value-hook and correlation prefetchers that issue through the same
prefetch path, and all three throttling modes.
"""

import pytest

from repro.core.config import ENGINES, SystemConfig
from repro.experiments.runner import run_benchmark
from tests.differential.harness import (
    assert_identical,
    capture,
    compare_engines,
)

WORKLOADS = ["mst", "health", "libquantum"]

#: prefetcher configuration x throttling mode coverage
MECHANISMS = [
    "no-prefetch",     # raw kernel, no observers
    "baseline",        # stream prefetcher training + issue
    "cdp",             # stream + greedy CDP (fills, recursion, owners)
    "ecdp+throttle",   # hints + coordinated throttling (feedback hooks)
    "ecdp+fdp",        # FDP throttling mode
    "gendler",         # selector throttling mode
    "dbp",             # value-hook issue at load completion
    "pointer-cache",   # value observer + correlation issue
    "avd",             # value observer + correlation issue
    "markov",          # correlation-table issue
    "grp",             # coarse per-load hint filter on CDP scans
    "hwfilter",        # hardware filter on CDP issue, used/evicted hooks
]


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_engines_bit_identical(workload, mechanism):
    assert_identical(compare_engines(workload, mechanism))


def test_throttle_trajectory_is_exercised_and_identical():
    """Force several feedback intervals so trajectory equality is not
    vacuous, then require the exact same decision sequence."""
    config = SystemConfig.scaled().with_overrides(
        l2_size=8192, interval_evictions=32
    )
    snapshots = compare_engines("mst", "ecdp+throttle", config=config)
    assert snapshots["reference"]["throttle"], (
        "expected at least one throttle interval"
    )
    assert_identical(snapshots)


def test_oracle_and_hw_filter_paths_identical():
    """Cover the oracle-LDS fast path and the hardware prefetch filter."""
    for mechanism in ("oracle-lds", "hwfilter+throttle"):
        assert_identical(compare_engines("mst", mechanism))


def test_run_benchmark_respects_engine_field():
    """The public runner entry selects the engine from the config and
    all engines agree through it (memoization keys must not mix)."""
    results = {
        engine: run_benchmark(
            "mst",
            "ecdp+throttle",
            SystemConfig.scaled().with_overrides(engine=engine),
            input_set="test",
            use_cache=False,
        )
        for engine in ENGINES
    }
    reference = results["reference"]
    assert all(result == reference for result in results.values())


def test_capture_reports_nonzero_activity():
    """Guard against a harness that compares empty snapshots."""
    snapshot = capture(
        "mst",
        "baseline",
        SystemConfig.scaled().with_overrides(engine="fast"),
    )
    assert snapshot["result"].retired_instructions > 0
    assert snapshot["l2"].misses > 0
    assert snapshot["levels"]  # the stream prefetcher is registered
    scanned, seen, filtered = capture(
        "mst",
        "ecdp",
        SystemConfig.scaled().with_overrides(engine="fast"),
    )["cdp_scan"]
    assert scanned > 0 and seen > 0 and filtered > 0
