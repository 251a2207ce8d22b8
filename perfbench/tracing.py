"""Traced runs: per-cell spans around each layer, and their reduction.

The traced worker runs the engine's own ``default_worker`` — the exact
path an untraced sweep takes — with the runner's calls into each layer
wrapped for the duration of the cell:

* ``get_workload(...).build``  -> span ``workloads.build``
* ``profile_trace``            -> span ``compiler.profile``
* ``hint_filter_for``          -> span ``compiler.hints``
* ``build_core``               -> span ``core.build``; the built core's
  ``run``                      -> span ``core.run``
* every trace generator consumed inside ``compiler.profile`` or
  ``core.run`` is iterated through a timer, and the time spent inside its
  ``next()`` is recorded as one ``workloads.trace`` child span.

Wrapping the runner's calls, rather than re-composing them here, keeps
the traced path identical to the timed one even after the program
changes what happens inside them (a profile cache behind
``profile_benchmark``, say): a change that claims a gain may not edit
this benchmark, so its traced numbers must follow the program.

Spans live in memory in the worker and travel back to the sweep process
inside the result (:class:`TracedResult`), which the engine journals
exactly like a plain ``CoreResult``.  The wrappers only ever exist in the
forked worker process, and are removed when the cell ends.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from typing import Dict, List

from repro.core.stats import CoreResult
from repro.experiments import runner
from repro.experiments.engine import CheckpointJournal, default_worker

_clock = time.perf_counter


@dataclasses.dataclass
class TracedResult(CoreResult):
    """A cell's ``CoreResult`` plus what its traced worker recorded."""

    #: (id, name, start, end, parent id, ops) per span, ops for traces
    spans: List[tuple] = dataclasses.field(default_factory=list)
    #: the runner's profile-cache counters at the end of the cell
    profile_cache: Dict[str, int] = dataclasses.field(default_factory=dict)


class Spans:
    """Nested spans of one cell, kept in memory."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.records), name, _clock(), None,
                  self._open[-1] if self._open else None, None]
        self.records.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            self._open.pop()
            record[3] = _clock()

    @contextmanager
    def trace(self, trace):
        """Yield *trace* behind a timer; record its ``next()`` time.

        The recorded ``workloads.trace`` span starts where iteration
        began and lasts as long as the generator itself ran, so its
        parent's self time excludes trace generation.
        """
        tally = [0.0, 0]
        began = _clock()
        try:
            yield _timed(trace, tally)
        finally:
            self.records.append([
                len(self.records), "workloads.trace", began,
                began + tally[0], self._open[-1] if self._open else None,
                tally[1],
            ])


def _timed(trace, tally):
    clock = _clock
    iterator = iter(trace)
    while True:
        began = clock()
        try:
            op = next(iterator)
        except StopIteration:
            tally[0] += clock() - began
            return
        tally[0] += clock() - began
        tally[1] += 1
        yield op


@contextmanager
def _wrapped_runner(spans: Spans):
    """Wrap the runner's layer calls for the duration of one cell."""
    real_get_workload = runner.get_workload
    real_profile_trace = runner.profile_trace
    real_hint_filter_for = runner.hint_filter_for
    real_build_core = runner.build_core

    def get_workload(name):
        workload = real_get_workload(name)
        build = workload.build

        def traced_build(input_set="ref"):
            with spans.span("workloads.build"):
                return build(input_set)

        workload.build = traced_build
        return workload

    def profile_trace(memory, trace, config, hint_filter=None):
        with spans.span("compiler.profile"), spans.trace(trace) as timed:
            return real_profile_trace(memory, timed, config, hint_filter)

    def hint_filter_for(*args, **kwargs):
        with spans.span("compiler.hints"):
            return real_hint_filter_for(*args, **kwargs)

    def build_core(*args, **kwargs):
        with spans.span("core.build"):
            core = real_build_core(*args, **kwargs)
        run = core.run

        def traced_run(trace):
            with spans.span("core.run"), spans.trace(trace) as timed:
                return run(timed)

        core.run = traced_run
        return core

    runner.get_workload = get_workload
    runner.profile_trace = profile_trace
    runner.hint_filter_for = hint_filter_for
    runner.build_core = build_core
    try:
        yield
    finally:
        runner.get_workload = real_get_workload
        runner.profile_trace = real_profile_trace
        runner.hint_filter_for = real_hint_filter_for
        runner.build_core = real_build_core


def traced_worker(job) -> TracedResult:
    """The engine's default worker, with every layer call spanned."""
    spans = Spans()
    with _wrapped_runner(spans), spans.span("cell"):
        result = default_worker(job)
    values = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(CoreResult)
    }
    return TracedResult(
        **values,
        spans=[tuple(record) for record in spans.records],
        profile_cache=dict(runner.cache_stats()["profiles"]),
    )


class TimedJournal(CheckpointJournal):
    """A checkpoint journal that adds up the time spent recording."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.seconds = 0.0

    def record(self, outcome, mutate=None) -> None:
        began = _clock()
        try:
            super().record(outcome, mutate=mutate)
        finally:
            self.seconds += _clock() - began


def layer_metrics(report, sweep_s: float, slots: int, journal_s: float):
    """Per-layer metrics of one traced sweep, and its span rows.

    A span's self time is its duration minus its children's durations.
    Layer self times: ``workloads`` = builds + trace generation,
    ``compiler`` = profiling + hint derivation, ``core`` = core
    construction + simulation.  Whatever the ``cell`` root span holds
    beyond those (DRAM construction, runner glue) is ``unattributed_s``.
    """
    self_s: Dict[str, float] = {}
    count: Dict[str, int] = {}
    ops = 0
    worker_s = 0.0
    hits = misses = 0
    rows = []
    results = [outcome for outcome in report if outcome.ok]
    for outcome in results:
        result = outcome.result
        cell = outcome.job.key()
        children: Dict[int, float] = {}
        for ident, name, start, end, parent, __ in result.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + end - start
        for ident, name, start, end, parent, n_ops in result.spans:
            self_s[name] = self_s.get(name, 0.0) + (
                end - start - children.get(ident, 0.0)
            )
            count[name] = count.get(name, 0) + 1
            if name == "cell":
                worker_s += end - start
            if n_ops is not None:
                ops += n_ops
            rows.append({
                "cell": cell, "id": ident, "name": name, "start": start,
                "end": end, "parent": parent,
            })
        hits += result.profile_cache.get("hits", 0)
        misses += result.profile_cache.get("misses", 0)

    sim_s = self_s.get("core.run", 0.0)
    kinst = sum(o.result.retired_instructions for o in results) / 1000.0
    issued = used = 0
    for outcome in results:
        for prefetcher in outcome.result.prefetchers.values():
            issued += prefetcher.issued
            used += prefetcher.used
    attempts = sum(outcome.attempts for outcome in report)
    layers = {
        "workloads": self_s.get("workloads.build", 0.0)
        + self_s.get("workloads.trace", 0.0),
        "compiler": self_s.get("compiler.profile", 0.0)
        + self_s.get("compiler.hints", 0.0),
        "core": self_s.get("core.build", 0.0) + sim_s,
    }
    metrics = {
        "workloads.build_s": self_s.get("workloads.build", 0.0),
        "workloads.builds": count.get("workloads.build", 0),
        "workloads.trace_s": self_s.get("workloads.trace", 0.0),
        "workloads.ops": ops,
        "compiler.profile_s": self_s.get("compiler.profile", 0.0),
        "compiler.profiles": count.get("compiler.profile", 0),
        "compiler.hint_s": self_s.get("compiler.hints", 0.0),
        "runner.profile_cache_hits": hits,
        "runner.profile_cache_misses": misses,
        "core.build_s": self_s.get("core.build", 0.0),
        "core.sim_s": sim_s,
        "core.runs": count.get("core.run", 0),
        "core.kinst": kinst,
        "core.sim_kips": kinst / sim_s if sim_s else 0.0,
        "cache.l2_demand_misses": sum(
            o.result.l2_demand_misses for o in results
        ),
        "prefetch.issued": issued,
        "prefetch.used": used,
        "prefetch.accuracy": used / issued if issued else 0.0,
        "throttle.intervals": sum(
            o.result.intervals_completed for o in results
        ),
        "dram.bus_transfers": sum(o.result.bus_transfers for o in results),
        "engine.worker_s": worker_s,
        "engine.dispatch_s": sum(o.duration for o in report) - worker_s,
        "engine.journal_s": journal_s,
        "engine.queue_s": sum(o.queue_seconds or 0.0 for o in report),
        "engine.busy_frac": worker_s / (sweep_s * slots),
        "engine.attempts": attempts,
        "engine.retries": attempts - len(report.order),
        "trace.sweep_s": sweep_s,
    }
    summary = {
        "layer_self_s": layers,
        "unattributed_s": self_s.get("cell", 0.0),
        "layers_vs_worker": sum(layers.values()) / worker_s
        if worker_s else 0.0,
    }
    return metrics, summary, rows
