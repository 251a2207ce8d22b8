"""Policy-subsystem differentials.

Two equalities anchor the refactor:

* **Extraction fidelity.**  The default ``table3`` policy driven
  through :class:`~repro.policy.controller.PolicyThrottle` must be
  bit-identical — full snapshot *and* interval-by-interval trajectory,
  including Table 3 case numbers — to the legacy hard-wired
  :class:`~repro.throttle.coordinated.CoordinatedThrottle`, on every
  engine.  The legacy class stays in the tree, frozen, precisely so
  this comparison never goes vacuous.

* **Cross-engine identity.**  Every other policy (static, pid, qlearn
  with its seeded exploration) must agree across reference and fast
  exactly like the rest of the simulator, which is what licenses
  deriving the qlearn RNG seed from config identity *minus* the engine
  field.
"""

import pytest

import repro.experiments.runner as runner
from repro.core.config import ENGINES, SystemConfig
from repro.throttle.coordinated import CoordinatedThrottle
from repro.throttle.levels import ThrottleThresholds
from tests.differential.harness import (
    assert_identical,
    capture,
    compare_engines,
)

#: small L2 + short interval => tens of feedback intervals on the test
#: input, so trajectory comparisons are never vacuous
INTERVAL_HEAVY = SystemConfig.scaled().with_overrides(
    l2_size=8192, interval_evictions=32
)


class _LegacyThrottle(CoordinatedThrottle):
    """The legacy controller under the runner's controller interface."""

    def install(self, core, dram) -> None:
        """No-op: the legacy controller reads no system-tier state."""


def _legacy_controller_for(throttled, config):
    """The pre-policy wiring, reconstructed for comparison."""
    if len(throttled) < 2:
        return None
    thresholds = ThrottleThresholds(
        t_coverage=config.t_coverage,
        a_low=config.a_low,
        a_high=config.a_high,
    )
    return _LegacyThrottle(throttled, thresholds)


@pytest.mark.parametrize("workload", ["mst", "health"])
def test_table3_policy_bit_identical_to_legacy(workload, monkeypatch):
    """The tentpole invariant: extraction changed nothing, anywhere."""
    for engine in ENGINES:
        config = INTERVAL_HEAVY.with_overrides(engine=engine)
        new = capture(workload, "ecdp+throttle", config)
        monkeypatch.setattr(runner, "controller_for",
                            _legacy_controller_for)
        legacy = capture(workload, "ecdp+throttle", config)
        monkeypatch.undo()
        assert legacy["throttle"], "legacy run recorded no trajectory"
        assert_identical({"reference": legacy, engine + "+policy": new})


def test_table3_trajectory_carries_real_cases():
    """The extracted path still reports Table 3 case numbers (1..5),
    not the 0 placeholder the non-heuristic policies use."""
    snapshot = capture("mst", "ecdp+throttle", INTERVAL_HEAVY)
    cases = {case for (_, case, *_rest) in snapshot["throttle"]}
    assert cases and cases <= {1, 2, 3, 4, 5}


@pytest.mark.parametrize("policy,params", [
    ("static", "level=1"),
    ("pid", ""),
    ("qlearn", "epsilon=0.2,seed=11"),
    ("bandit", ""),
])
def test_policies_bit_identical_across_engines(policy, params):
    config = INTERVAL_HEAVY.with_overrides(
        throttle_policy=policy, policy_params=params
    )
    snapshots = compare_engines("mst", "ecdp+throttle", config=config)
    assert snapshots["reference"]["throttle"], (
        "expected at least one policy decision"
    )
    assert_identical(snapshots)


def test_policy_changes_job_identity():
    """policy fields ride the config into the sweep job content hash."""
    from repro.experiments.engine.job import Job

    base = Job("mst", "ecdp+throttle", INTERVAL_HEAVY)
    static = Job("mst", "ecdp+throttle", INTERVAL_HEAVY.with_overrides(
        throttle_policy="static", policy_params="level=1"
    ))
    params_only = Job("mst", "ecdp+throttle", INTERVAL_HEAVY.with_overrides(
        throttle_policy="static", policy_params="level=2"
    ))
    keys = {base.key(), static.key(), params_only.key()}
    assert len(keys) == 3
