"""Kernel microbenchmark worker: fast-vs-reference engine speedup.

One job cell = one (workload, mechanism, input set).  The worker runs the
cell under both engines in the same process — pre-materializing the
trace so only :meth:`Core.run` is timed — and returns JSON-safe metrics
(ops/sec per engine, the speedup, and whether both engines produced
bit-identical :class:`~repro.core.stats.CoreResult`\\ s).
Because the return value is a plain dict, the sweep engine's checkpoint
journal can snapshot it unchanged, which gives the microbenchmark
checkpoint-resume for free.

Two measurement rules keep the ladder honest on noisy shared machines:

* **Interleaved rounds.**  Engines take turns within each repetition
  (A, B, A, B, ...) instead of running all of one engine's
  repeats back to back, so a slow drift in machine speed lands on every
  engine equally.
* **Best-of (min over repeats).**  The minimum elapsed time per engine
  is the run least disturbed by the scheduler; ratios of minima compare
  like with like.

Lives in the library (not under ``benchmarks/``) because sweep-engine
workers must be importable by qualified name from child processes.

Two environment knobs let CI pin the run to a budget without changing
the job matrix (child processes inherit them through the pool):

* ``REPRO_KERNEL_OPS`` — truncate every trace to at most N ops;
* ``REPRO_KERNEL_REPEATS`` — timed repetitions per engine (best-of).
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.config import ENGINES, SystemConfig
from repro.core.stats import CoreResult
from repro.experiments.configs import get_mechanism
from repro.experiments.engine.job import Job
from repro.experiments.runner import build_core, hint_filter_for, make_dram
from repro.workloads.registry import get_workload

OPS_ENV = "REPRO_KERNEL_OPS"
REPEATS_ENV = "REPRO_KERNEL_REPEATS"

#: default timed repetitions per engine (best-of, to shed scheduler noise)
DEFAULT_REPEATS = 3


def op_budget() -> Optional[int]:
    """Trace truncation from the environment; None = full trace."""
    try:
        value = int(os.environ.get(OPS_ENV, "0"))
    except ValueError:
        return None
    return value if value > 0 else None


def repeats() -> int:
    try:
        value = int(os.environ.get(REPEATS_ENV, str(DEFAULT_REPEATS)))
    except ValueError:
        return DEFAULT_REPEATS
    return max(1, value)


def _materialize(instance, budget: Optional[int]):
    """The trace as a list of ops, truncated to *budget* if given."""
    ops = list(instance.trace())
    if budget is not None:
        ops = ops[:budget]
    return ops


def time_engine(
    engine: str,
    benchmark: str,
    mechanism: str,
    config: SystemConfig,
    input_set: str = "train",
    profile_input: str = "train",
    budget: Optional[int] = None,
    rounds: int = DEFAULT_REPEATS,
) -> Tuple[int, float, CoreResult]:
    """(ops, best seconds, final CoreResult) for one engine on one cell.

    The workload instance (and therefore the trace and simulated memory
    contents) is rebuilt per round — workload generation is
    deterministic, so every round and every engine sees identical input.
    Prefer :func:`time_engines` when comparing engines: it interleaves
    rounds so machine-speed drift cannot favour one side.
    """
    mech = get_mechanism(mechanism)
    cfg = config.with_overrides(engine=engine)
    hint_filter = hint_filter_for(mech, benchmark, cfg, profile_input)
    best = float("inf")
    result: Optional[CoreResult] = None
    n_ops = 0
    for __ in range(max(1, rounds)):
        instance = get_workload(benchmark).build(input_set)
        ops = _materialize(instance, budget)
        n_ops = len(ops)
        dram = make_dram(cfg, n_cores=1)
        core = build_core(mech, cfg, instance, dram, hint_filter)
        start = time.perf_counter()
        result = core.run(ops)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return n_ops, max(best, 1e-9), result


def time_engines(
    engines: Sequence[str],
    benchmark: str,
    mechanism: str,
    config: SystemConfig,
    input_set: str = "train",
    profile_input: str = "train",
    budget: Optional[int] = None,
    rounds: int = DEFAULT_REPEATS,
) -> Dict[str, Dict[str, Any]]:
    """Best-of timings for several engines, rounds interleaved.

    Returns ``{engine: {"ops", "seconds", "result"}}`` where ``seconds``
    is the minimum over *rounds* interleaved timed runs.
    """
    mech = get_mechanism(mechanism)
    configs = {e: config.with_overrides(engine=e) for e in engines}
    filters = {
        e: hint_filter_for(mech, benchmark, configs[e], profile_input)
        for e in engines
    }
    out: Dict[str, Dict[str, Any]] = {
        e: {"ops": 0, "seconds": float("inf"), "result": None}
        for e in engines
    }
    for __ in range(max(1, rounds)):
        for engine in engines:
            cfg = configs[engine]
            instance = get_workload(benchmark).build(input_set)
            ops = _materialize(instance, budget)
            entry = out[engine]
            entry["ops"] = len(ops)
            dram = make_dram(cfg, n_cores=1)
            core = build_core(mech, cfg, instance, dram, filters[engine])
            start = time.perf_counter()
            entry["result"] = core.run(ops)
            elapsed = time.perf_counter() - start
            if elapsed < entry["seconds"]:
                entry["seconds"] = elapsed
    for entry in out.values():
        entry["seconds"] = max(entry["seconds"], 1e-9)
    return out


def kernel_bench_worker(job: Job) -> Dict[str, Any]:
    """Sweep-engine worker: time both engines on *job*'s cell."""
    rounds = repeats()
    timings = time_engines(
        ENGINES,
        job.benchmark,
        job.mechanism,
        job.config,
        input_set=job.input_set,
        profile_input=job.profile_input,
        budget=op_budget(),
        rounds=rounds,
    )
    reference = timings["reference"]
    fast = timings["fast"]
    n_ops = reference["ops"]
    return {
        "ops": n_ops,
        "repeats": rounds,
        "engines": list(ENGINES),
        "reference_seconds": reference["seconds"],
        "fast_seconds": fast["seconds"],
        "reference_ops_per_sec": n_ops / reference["seconds"],
        "fast_ops_per_sec": n_ops / fast["seconds"],
        "speedup": reference["seconds"] / fast["seconds"],
        "identical": reference["result"] == fast["result"],
    }
