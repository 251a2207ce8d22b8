"""The benchmark's workloads: which sweep cells each one runs, and how.

Stdlib only, so the orchestrator (``run.py``) can read it without
importing the program under test.  Benchmark sets named ``"pointer"``
and ``"all"`` are resolved against the program's workload registry by
``sweep.py``; everything else is an explicit list of names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

#: Fig 7's four proposal configurations plus the stream baseline they are
#: normalized to
FIG7_MECHANISMS = ("baseline", "cdp", "ecdp", "cdp+throttle", "ecdp+throttle")

#: every mechanism that needs no compiler profile
PROFILE_FREE_MECHANISMS = (
    "no-prefetch", "baseline", "oracle-lds", "cdp", "cdp+throttle", "dbp",
    "markov", "ghb", "hwfilter", "hwfilter+throttle", "pointer-cache",
    "avd", "stride", "nextline",
)

#: the hint-driven mechanisms; all four derive hints from one profile
ECDP_MECHANISMS = ("ecdp", "ecdp+throttle", "ecdp+fdp", "grp")


@dataclass(frozen=True)
class Workload:
    name: str
    #: "pointer" (the paper's 15), "all" (every registered analog) or names
    benchmarks: Union[str, Tuple[str, ...]]
    mechanisms: Tuple[str, ...]
    input_set: str
    #: sweep the cells once into the run's checkpoint directory during
    #: set-up, then time re-sweeps into that same directory
    warm: bool = False
    #: timed sweeps per run, at least (more run while under --seconds)
    min_sweeps: int = 1


WORKLOADS = {
    workload.name: workload
    for workload in (
        # dispatch- and journal-heavy: 336 cells of ~50 ms, no profiling,
        # and the no-prefetch/correlation paths fig7 never touches
        Workload("survey-test", "all", PROFILE_FREE_MECHANISMS, "test"),
        # the north star: the paper's Fig 7 matrix from no persisted state
        Workload("fig7-cold", "pointer", FIG7_MECHANISMS, "ref"),
        # profiling-dominated cells re-swept over a primed directory, where
        # a persisted artifact would be read back; three timed sweeps give
        # 24 timed cells per run
        Workload(
            "ecdp-warm", ("xalancbmk", "perlbench"), ECDP_MECHANISMS, "ref",
            warm=True, min_sweeps=3,
        ),
    )
}
