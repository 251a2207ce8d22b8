"""One sweep of one workload, in a fresh process (``run.py`` spawns it).

Builds the configuration ``repro sweep`` builds by default
(``SystemConfig.scaled()``, no engine override), submits the workload's
cells in a seed-shuffled order to an ``ExecutionEngine`` on the local
fork backend with ``nproc`` slots and a ``CheckpointJournal`` started
from scratch, checks every cell's simulated metrics against the pinned
ones in ``expected/``, checks that no worker process or pipe outlives
the sweep, and writes what it measured to ``--result`` as JSON.

Modes: ``sweep`` (timed), ``setup`` (stop just before the first cell is
submitted, to sample set-up time), ``pin`` (sweep, then write the cells'
metrics to ``expected/<workload>.json``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import SystemConfig  # noqa: E402
from repro.experiments.engine import (  # noqa: E402
    CheckpointJournal,
    ExecutionEngine,
    Job,
    QuarantinePolicy,
    RetryPolicy,
    create_backend,
    snapshot_metrics,
)
from repro.experiments.suites import summary_line  # noqa: E402
from repro.workloads.registry import (  # noqa: E402
    all_names,
    pointer_intensive_names,
)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: the paper's Fig 7 headline for ecdp+throttle over the stream baseline
PAPER_IPC_GAIN_PCT = 22.5
PAPER_BPKI_CHANGE_PCT = -25.0


def cell_id(job: Job) -> str:
    return f"{job.benchmark}/{job.mechanism}/{job.input_set}"


def make_jobs(workload, seed: int):
    benchmarks = workload.benchmarks
    if benchmarks == "pointer":
        benchmarks = pointer_intensive_names()
    elif benchmarks == "all":
        benchmarks = all_names()
    config = SystemConfig.scaled()
    jobs = [
        Job(benchmark, mechanism, config, input_set=workload.input_set)
        for mechanism in workload.mechanisms
        for benchmark in benchmarks
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


def pipe_fds():
    fds = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{name}").startswith("pipe:"):
                fds.add(int(name))
        except OSError:
            continue  # the fd listdir itself used, already closed
    return fds


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def check(report, jobs, expected):
    """(mismatched or failed cells, first difference as text or None)."""
    bad = 0
    first = None
    for job in jobs:
        outcome = report.results.get(job.key())
        want = expected.get(cell_id(job))
        if outcome is None or not outcome.ok:
            reason = "not run" if outcome is None else outcome.failure.reason
            diff = f"{cell_id(job)}: failed ({reason})"
        elif want is None:
            diff = f"{cell_id(job)}: no pinned metrics"
        else:
            got = snapshot_metrics(outcome.result)
            fields = sorted(
                name for name in set(got) | set(want)
                if got.get(name) != want.get(name)
            )
            if not fields:
                continue
            diff = (
                f"{cell_id(job)}: {fields[0]} = {got.get(fields[0])!r}, "
                f"pinned {want.get(fields[0])!r}"
            )
        bad += 1
        first = first or diff
    return bad, first


def paper_gaps(report):
    """|ecdp+throttle - paper| for IPC gain and BPKI change, or None."""
    cells = report.by_cell()
    names = sorted({b for b, m in cells if m == "ecdp+throttle"})
    if not names or not all((b, "baseline") in cells for b in names):
        return None
    if not all(cells[(b, m)].ok for b in names
               for m in ("baseline", "ecdp+throttle")):
        return None
    summary = summary_line(
        {b: cells[(b, "ecdp+throttle")].result for b in names},
        {b: cells[(b, "baseline")].result for b in names},
    )
    return {
        "ipc_gap_pp": abs(summary["gmean_ipc_pct"] - PAPER_IPC_GAIN_PCT),
        "bpki_gap_pp": abs(summary["mean_bpki_pct"] - PAPER_BPKI_CHANGE_PCT),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("sweep", "setup", "pin"),
                        default="sweep")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--state", required=True,
                        help="directory the sweep's journal lives in")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    jobs = make_jobs(workload, args.seed)
    traced = bool(args.trace) and args.mode == "sweep"
    journal_cls = tracing.TimedJournal if traced else CheckpointJournal
    journal = journal_cls(Path(args.state) / "checkpoints" / "sweep.jsonl")
    journal.clear()  # resume off: nothing is replayed from the journal
    slots = os.cpu_count() or 1
    engine = ExecutionEngine(
        jobs=slots,
        retry=RetryPolicy(max_attempts=3),
        checkpoint=journal,
        quarantine=QuarantinePolicy(max_crashes=3),
        worker=tracing.traced_worker if traced else None,
        backend=create_backend("local"),
    )
    pipes_before = pipe_fds()
    cpu_before = cpu_seconds()
    submitted = time.monotonic()
    out = {"setup_s": submitted - args.spawned}
    if args.mode == "setup":
        engine.close()
        Path(args.result).write_text(json.dumps(out))
        return 0

    report = engine.run(jobs, resume=False)
    sweep_s = time.monotonic() - submitted
    cpu_s = cpu_seconds() - cpu_before
    engine.close()

    leaks = [f"worker pid {child.pid}"
             for child in multiprocessing.active_children()]
    leaks += [f"pipe fd {fd}" for fd in sorted(pipe_fds() - pipes_before)]
    expected_path = HERE / "expected" / f"{workload.name}.json"
    if args.mode == "pin":
        if report.failures:
            print(f"cannot pin: {len(report.failures)} cell(s) failed",
                  file=sys.stderr)
            return 1
        cells = {cell_id(o.job): snapshot_metrics(o.result) for o in report}
        expected_path.write_text(
            json.dumps(dict(sorted(cells.items())), indent=1) + "\n"
        )
    expected = json.loads(expected_path.read_text())
    mismatched, first_diff = check(report, jobs, expected)

    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    out.update({
        "sweep_s": sweep_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "durations": [o.duration for o in report],
        "attempted": len(jobs),
        "failed": mismatched,
        "first_diff": first_diff,
        "leaks": leaks,
        "slots": slots,
        "default_engine": SystemConfig.scaled().engine,
        "paper_gaps": paper_gaps(report),
    })
    if traced:
        metrics, summary, rows = tracing.layer_metrics(
            report, sweep_s, slots, journal.seconds
        )
        out.update({"layers": metrics, "layer_summary": summary,
                    "spans": rows})
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
