"""Property tests for the pluggable throttling policies (repro.policy).

Hypothesis drives random signal sequences through each policy and the
generic :class:`PolicyThrottle` controller, asserting the invariants
the subsystem's determinism story rests on:

* **seed determinism**: two qlearn policies built from the same config
  take identical action sequences on identical inputs, at any epsilon;
* **level bounds**: any policy driving real prefetcher ladders keeps
  every level inside 0..MAX_LEVEL and moves at most one step per
  interval;
* **training-replay invariance**: training on the same recorded series
  twice yields the bit-identical Q table, and the encode/decode params
  round-trip preserves it exactly;
* **PID anti-windup**: the integral term stays within ±windup no matter
  how long the error saturates the actuator, and recovery after a long
  saturated stretch is immediate (the first surplus interval already
  commands up, instead of paying down a wound-up integral).
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.policy import (
    ACTIONS,
    FeedbackSignals,
    PidAccuracyPolicy,
    PolicyThrottle,
    QLearningPolicy,
    StaticLevelPolicy,
    Table3Policy,
)
from repro.policy.qlearn import decode_q, encode_q, stable_seed
from repro.policy.training import train_q_table, transitions_from_series
from repro.prefetch.base import Prefetcher
from repro.throttle.feedback import FeedbackCollector
from repro.throttle.levels import MAX_LEVEL

fractions = st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_subnormal=False)
levels = st.integers(min_value=0, max_value=MAX_LEVEL)

#: one randomized interval observation: (coverage, accuracy, rival, bpki)
observations = st.tuples(
    fractions, fractions, fractions,
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False,
              allow_subnormal=False),
)


def signals(owner, interval, cov, acc, rival, level, bpki=0.0):
    return FeedbackSignals(
        owner=owner, interval=interval, coverage=cov, accuracy=acc,
        rival_coverage=rival, level=level, bpki=bpki,
    )


class _NullPrefetcher(Prefetcher):
    """Level ladder only — never emits requests."""

    def on_demand_access(self, now, addr, pc, l2_hit):
        return []


# --------------------------------------------------------------------------
# seed determinism
# --------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    st.lists(observations, min_size=1, max_size=40),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**16),
)
def test_qlearn_same_seed_same_actions(sequence, epsilon, seed):
    config = SystemConfig.scaled()
    runs = []
    for _ in range(2):
        policy = QLearningPolicy(epsilon=epsilon, seed=seed, config=config)
        level = MAX_LEVEL
        actions = []
        for i, (cov, acc, rival, bpki) in enumerate(sequence):
            decision = policy.decide(
                signals("stream", i, cov, acc, rival, level, bpki)
            )
            actions.append(decision.action)
            if decision.action == "up":
                level = min(MAX_LEVEL, level + 1)
            elif decision.action == "down":
                level = max(0, level - 1)
        runs.append(actions)
    assert runs[0] == runs[1]


@settings(max_examples=25, deadline=None)
@given(st.lists(observations, min_size=5, max_size=40))
def test_qlearn_reset_replays_the_same_stream(sequence):
    policy = QLearningPolicy(epsilon=0.5, learn=False,
                             config=SystemConfig.scaled())

    def run():
        actions = []
        for i, (cov, acc, rival, bpki) in enumerate(sequence):
            decision = policy.decide(
                signals("stream", i, cov, acc, rival, MAX_LEVEL, bpki)
            )
            actions.append(decision.action)
        return actions

    first = run()
    policy.reset()
    assert run() == first


def test_stable_seed_is_engine_invariant_but_params_sensitive():
    base = SystemConfig.scaled()
    seeds = {
        stable_seed(base.with_overrides(engine=engine))
        for engine in ("reference", "fast")
    }
    assert len(seeds) == 1
    assert stable_seed(base) != stable_seed(
        base.with_overrides(policy_params="epsilon=0.05")
    )


# --------------------------------------------------------------------------
# level bounds under any policy
# --------------------------------------------------------------------------

def _drive(policy, sequence):
    """Run a policy through PolicyThrottle on real ladders; return
    the level trace (both prefetchers, one entry per interval)."""
    prefetchers = [_NullPrefetcher("stream"), _NullPrefetcher("cdp")]
    controller = PolicyThrottle(prefetchers, policy)
    collector = FeedbackCollector([p.name for p in prefetchers],
                                  interval_evictions=1)
    controller.attach(collector)
    trace = []
    for cov, acc, rival, _bpki in sequence:
        for p in prefetchers:
            collector.record_issue(p.name, 3)
            for _ in range(max(1, int(acc * 3))):
                collector.record_use(p.name)
        for _ in range(int(cov * 5) + 1):
            collector.record_demand_miss(0)
        before = {p.name: p.level for p in prefetchers}
        collector.record_eviction(0, False, False)  # rolls the interval
        for p in prefetchers:
            trace.append((before[p.name], p.level))
    return trace


@settings(max_examples=15, deadline=None)
@given(st.lists(observations, min_size=1, max_size=25),
       st.sampled_from(["table3", "static1", "pid", "qlearn"]))
def test_levels_stay_in_ladder_and_move_one_step(sequence, which):
    policy = {
        "table3": Table3Policy,
        "static1": lambda: StaticLevelPolicy(level=1),
        "pid": PidAccuracyPolicy,
        "qlearn": lambda: QLearningPolicy(config=SystemConfig.scaled()),
    }[which]()
    for before, after in _drive(policy, sequence):
        assert 0 <= after <= MAX_LEVEL
        assert abs(after - before) <= 1


# --------------------------------------------------------------------------
# training-replay invariance
# --------------------------------------------------------------------------

series_rows = st.lists(
    st.tuples(fractions, fractions, levels, fractions, fractions, levels,
              st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    min_size=3, max_size=30,
)


def _rows(points):
    rows = []
    for i, (acc1, cov1, lvl1, acc2, cov2, lvl2, bpki) in enumerate(points):
        rows.append({
            "core": "core0", "interval": i + 1, "bpki": bpki,
            "prefetchers": {
                "stream": {"accuracy": acc1, "coverage": cov1,
                           "level": lvl1},
                "cdp": {"accuracy": acc2, "coverage": cov2, "level": lvl2},
            },
        })
    return rows


@settings(max_examples=25, deadline=None)
@given(series_rows)
def test_training_replay_is_bit_invariant(points):
    rows = _rows(points)
    first = train_q_table(transitions_from_series(rows), epochs=3)
    second = train_q_table(transitions_from_series(
        json.loads(json.dumps(rows))  # a serialization round-trip, too
    ), epochs=3)
    assert first == second
    # and the params encoding preserves the trained table through %.6g
    assert decode_q(encode_q(first)) == [
        [float(f"{q:.6g}") for q in row] for row in first
    ]


# --------------------------------------------------------------------------
# PID anti-windup
# --------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    fractions,
)
def test_pid_integral_is_clamped(n_intervals, windup, accuracy):
    policy = PidAccuracyPolicy(windup=windup)
    for i in range(n_intervals):
        policy.decide(signals("stream", i, 0.0, accuracy, 0.0, level=0))
    assert abs(policy.integral("stream")) <= windup + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=10, max_value=500))
def test_pid_recovers_immediately_after_saturation(n_starved):
    """Conditional integration: a long zero-accuracy stretch at the
    ladder floor must not wind up negative charge — the first
    high-accuracy interval already commands up."""
    policy = PidAccuracyPolicy()
    for i in range(n_starved):
        decision = policy.decide(
            signals("stream", i, 0.0, 0.0, 0.0, level=0)
        )
        assert decision.action != "up"
    recovery = policy.decide(
        signals("stream", n_starved, 0.0, 1.0, 0.0, level=0)
    )
    assert recovery.action == "up"


def test_actions_tuple_is_the_policy_contract():
    assert ACTIONS == ("down", "hold", "up")
