"""Sweep benchmark: time ``repro sweep``'s engine on one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 5 --trace 0

Each timed sweep runs in a fresh process (``sweep.py``) with a fresh
``HOME``/``TMPDIR``/``XDG_CACHE_HOME`` and checkpoint directory under
``.bench_run/`` (a warm workload keeps one directory for its priming
sweep and its timed sweeps), removed when the run ends.  Sweeps repeat
until ``--seconds`` of sweeping is measured, and at least the workload's
``min_sweeps``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the sweeps run the traced worker
and it carries the per-layer metrics.  A full record of the run (the
environment stamp, every sample, the spans of a traced run) is written
to ``.bench_out/``.  ``--pin`` re-captures ``expected/<workload>.json``
from one untraced sweep instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: set-up samples per run: each sweep's own plus set-up-only processes
SETUP_SAMPLES = 9
#: a run must end within this many seconds of starting
RUN_BUDGET_S = 170.0
#: per-cell tail: the highest percentile with this many cells beyond it
TAIL_CELLS = 10


class RunFailed(Exception):
    """The run cannot produce a result."""


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """sha256 over the program's sources (a checkout may not be a repo)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_digest": src_digest(),
        "seed": seed,
    }


def tail(values):
    """(value, percentile) at the highest percentile that has TAIL_CELLS
    cells beyond it."""
    ordered = sorted(values)
    index = len(ordered) - TAIL_CELLS - 1
    if index < 0:
        raise RunFailed(f"{len(ordered)} cells are too few for a tail")
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Runner:
    """Spawns the run's sweep processes and collects what they wrote."""

    def __init__(self, workload, seed: int, trace: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.deadline = deadline
        self.base = ROOT / ".bench_run" / (
            f"{workload.name}-s{seed}-t{trace}-{os.getpid()}"
        )
        self.leaks = []
        self._spawned = 0
        self._states = 0

    def state_dir(self) -> Path:
        self._states += 1
        state = self.base / f"state{self._states}"
        for sub in ("home", "tmp", "cache"):
            (state / sub).mkdir(parents=True)
        return state

    def spawn(self, mode: str, state: Path, trace: int = 0) -> dict:
        self._spawned += 1
        result = self.base / f"result{self._spawned}.json"
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("PYTHON")
        }
        env.update(
            PYTHONPATH=str(ROOT / "src"), HOME=str(state / "home"),
            TMPDIR=str(state / "tmp"), XDG_CACHE_HOME=str(state / "cache"),
        )
        command = [
            sys.executable, str(HERE / "sweep.py"),
            "--workload", self.workload.name, "--seed", str(self.seed),
            "--mode", mode, "--trace", str(trace), "--state", str(state),
            "--result", str(result),
        ]
        spawned = time.monotonic()
        process = subprocess.Popen(
            command + ["--spawned", repr(spawned)], cwd=state, env=env,
            start_new_session=True, stdout=sys.stderr,
        )
        try:
            code = process.wait(max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._kill_group(process.pid)
            process.wait()
            raise RunFailed(f"{mode} sweep overran the run's time budget")
        if self._kill_group(process.pid):
            self.leaks.append(f"process group of {mode} sweep outlived it")
        if code != 0 or not result.exists():
            raise RunFailed(f"{mode} sweep exited with code {code}")
        outcome = json.loads(result.read_text())
        outcome["wall_s"] = time.monotonic() - spawned
        self.leaks += outcome.get("leaks", [])
        return outcome

    @staticmethod
    def _kill_group(pgid: int) -> bool:
        """Kill whatever is left in *pgid*; True if anything was."""
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return False
        for __ in range(100):  # reparented to init, which reaps them
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        return True

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            self.base.parent.rmdir()  # only when no other run is live
        except OSError:
            pass


def measure(runner: Runner, seconds: float) -> dict:
    workload = runner.workload
    prime_s = 0.0
    primed = None
    shared = runner.state_dir() if workload.warm else None
    if workload.warm:
        # set-up: sweep the cells once into the directory the timed
        # sweeps re-use; whatever the program persists there carries over
        primed = runner.spawn("sweep", shared)
        prime_s = primed["wall_s"]
    sweeps = []
    while (len(sweeps) < workload.min_sweeps
           or sum(s["sweep_s"] for s in sweeps) < seconds):
        state = shared or runner.state_dir()
        sweeps.append(runner.spawn("sweep", state, runner.trace))
        if not workload.warm:
            shutil.rmtree(state)
    setups = [s["setup_s"] for s in sweeps]
    while len(setups) < SETUP_SAMPLES and not runner.trace:
        state = shared or runner.state_dir()
        setups.append(runner.spawn("setup", state)["setup_s"])
        if not workload.warm:
            shutil.rmtree(state)
    return {"primed": primed, "prime_s": prime_s, "sweeps": sweeps,
            "setups": setups}


def end_to_end(run: dict) -> dict:
    sweeps = run["sweeps"]
    durations = [d for s in sweeps for d in s["durations"]]
    tail_s, tail_pct = tail(durations)
    metrics = {
        "sweep_s": statistics.median(s["sweep_s"] for s in sweeps),
        "cell_p50_s": statistics.median(durations),
        "cell_tail_s": tail_s,
        "cpu_s": statistics.median(s["cpu_s"] for s in sweeps),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in sweeps),
        "setup_s": run["prime_s"] + statistics.median(run["setups"]),
    }
    notes = {
        "cell_tail": {"percentile": tail_pct, "cells": len(durations),
                      "cells_beyond": TAIL_CELLS},
    }
    return metrics, notes


def per_layer(run: dict) -> dict:
    sweeps = run["sweeps"]
    return {
        name: statistics.median(s["layers"][name] for s in sweeps)
        for name in sweeps[0]["layers"]
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-capture expected/<workload>.json")
    args = parser.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, args.trace,
                    started + RUN_BUDGET_S)
    try:
        if args.pin:
            outcome = runner.spawn("pin", runner.state_dir())
            print(f"pinned {outcome['attempted']} cells of {workload.name}",
                  file=sys.stderr)
            return 0
        run = measure(runner, args.seconds)
        if args.trace:
            metrics = per_layer(run)
            notes = {"layer_summary": [s["layer_summary"]
                                       for s in run["sweeps"]]}
        else:
            metrics, notes = end_to_end(run)
    except RunFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    sweeps = run["sweeps"]
    checked = sweeps + ([run["primed"]] if run["primed"] else [])
    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    first_diff = next(
        (s["first_diff"] for s in checked if s["first_diff"]), None
    )
    correct = not first_diff and not runner.leaks
    stamp = dict(environment(args.seed),
                 default_engine=sweeps[0]["default_engine"],
                 workload=workload.name, trace=args.trace,
                 sweeps=len(sweeps))
    record = {"environment": stamp, "run": run,
              "paper_gaps": sweeps[0]["paper_gaps"],
              "first_diff": first_diff, "leaks": runner.leaks, **notes}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans = out_dir / f"{stem}.spans.jsonl"
        with open(spans, "w") as stream:
            for index, sweep in enumerate(sweeps):
                for row in sweep.pop("spans"):
                    stream.write(json.dumps(dict(row, sweep=index)) + "\n")
        record["spans_file"] = str(spans.relative_to(ROOT))
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print("environment: " + json.dumps(stamp, sort_keys=True))
    if record["paper_gaps"]:
        print("paper gaps (pp): " + json.dumps(record["paper_gaps"]))
    if args.trace:
        for summary in record["layer_summary"]:
            print("layer self time vs worker time: "
                  + json.dumps(summary, sort_keys=True))
    else:
        print("cell tail: " + json.dumps(record["cell_tail"]))
    if first_diff:
        print(f"MISMATCH: {first_diff}")
    for leak in runner.leaks:
        print(f"LEAK: {leak}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    print(f"done in {time.monotonic() - started:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
