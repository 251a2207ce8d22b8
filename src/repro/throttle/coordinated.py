"""Coordinated prefetcher throttling (paper Section 4.2, Table 3).

At each feedback interval every prefetcher makes its own decision — the
*deciding* prefetcher — from its coverage and accuracy *and* the coverage of
the best *rival* prefetcher:

    Case  Cov    Acc           Rival Cov   Decision
    1     High   -             -           Throttle Up
    2     Low    Low           -           Throttle Down
    3     Low    Med or High   Low         Throttle Up
    4     Low    Low or Med    High        Throttle Down
    5     Low    High          High        Do Nothing

The heuristics are prefetcher-symmetric and prefetcher-agnostic, so the same
controller coordinates any set of two *or more* prefetchers (the paper notes
the N-ary generalization as ongoing work; we support it and test it).

This module is the **frozen legacy reference** for the pluggable policy
subsystem: production runs go through ``repro.policy`` (where
``Table3Policy`` + ``PolicyThrottle`` replay these exact heuristics), and
``tests/differential/test_policy.py`` asserts bit-identical snapshots and
throttle trajectories against ``CoordinatedThrottle`` on every engine.
Keep the decision logic here unchanged — it is the ground truth that
differential suite compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.prefetch.base import Prefetcher
from repro.throttle.feedback import FeedbackCollector
from repro.throttle.levels import DEFAULT_THRESHOLDS, ThrottleThresholds


@dataclass
class ThrottleDecision:
    """One interval's decision for one prefetcher (for diagnostics)."""

    owner: str
    case: int
    action: str  # "up" | "down" | "hold"
    coverage: float
    accuracy: float
    rival_coverage: float


def decide_case(
    coverage_high: bool, accuracy_class: str, rival_coverage_high: bool
) -> ThrottleDecision:
    """Pure implementation of paper Table 3 (owner fields filled by caller)."""
    if coverage_high:
        return ThrottleDecision("", 1, "up", 0, 0, 0)
    if accuracy_class == "low":
        return ThrottleDecision("", 2, "down", 0, 0, 0)
    if not rival_coverage_high:
        return ThrottleDecision("", 3, "up", 0, 0, 0)
    if accuracy_class == "medium":
        return ThrottleDecision("", 4, "down", 0, 0, 0)
    return ThrottleDecision("", 5, "hold", 0, 0, 0)


class CoordinatedThrottle:
    """The paper's mechanism: installs itself on a FeedbackCollector."""

    def __init__(
        self,
        prefetchers: Sequence[Prefetcher],
        thresholds: ThrottleThresholds = DEFAULT_THRESHOLDS,
    ) -> None:
        if len(prefetchers) < 2:
            raise ValueError(
                "coordinated throttling manages two or more prefetchers"
            )
        self.prefetchers = list(prefetchers)
        self.thresholds = thresholds
        self.decisions: List[ThrottleDecision] = []

    def attach(self, collector: FeedbackCollector) -> None:
        collector.on_interval = self.on_interval

    def on_interval(self, collector: FeedbackCollector) -> None:
        """Apply Table 3 to every prefetcher simultaneously.

        Decisions are computed from the same snapshot before any level
        changes, so ordering among prefetchers cannot matter.
        """
        thresholds = self.thresholds
        snapshot: Dict[str, tuple] = {}
        for prefetcher in self.prefetchers:
            name = prefetcher.name
            snapshot[name] = (
                collector.coverage(name),
                collector.accuracy(name),
            )
        for prefetcher in self.prefetchers:
            name = prefetcher.name
            coverage, accuracy = snapshot[name]
            rival_coverage = max(
                (cov for other, (cov, __) in snapshot.items() if other != name),
                default=0.0,
            )
            decision = decide_case(
                thresholds.coverage_is_high(coverage),
                thresholds.accuracy_class(accuracy),
                thresholds.coverage_is_high(rival_coverage),
            )
            decision.owner = name
            decision.coverage = coverage
            decision.accuracy = accuracy
            decision.rival_coverage = rival_coverage
            self.decisions.append(decision)
            if decision.action == "up":
                prefetcher.throttle_up()
            elif decision.action == "down":
                prefetcher.throttle_down()
