"""Sweep fan-out throughput on the local fork pool.

Times the same content-addressed job matrix through the execution
engine at ``--jobs`` 1/2/4, reporting jobs/minute per cell.  Per-job
simulation time is small (``input_set="test"``), so the numbers expose
what the bench is after: the dispatch overhead of a forked worker per
attempt and how it scales with slot count — not simulator speed (that
is ``bench_perf_kernel.py``'s job).

Every run journals to a throwaway checkpoint, and the bench asserts a
differential on the side: all cells at all slot counts must converge to
one identical set of journal content hashes.

Two entry points:

* ``pytest benchmarks/bench_sweep_fanout.py --benchmark-only`` — smoke
  variant (small matrix, jobs 1/2) for CI;
* ``PYTHONPATH=src python benchmarks/bench_sweep_fanout.py`` — the full
  measurement, written to ``BENCH_sweep.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.config import SystemConfig
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    Job,
    RetryPolicy,
)
from repro.experiments.reporting import format_table
from repro.workloads.registry import pointer_intensive_names

JOBS_GRID = (1, 2, 4)
MECHANISMS = ("baseline", "cdp")
INPUT_SET = "test"


def job_matrix(benchmarks: int) -> List[Job]:
    config = SystemConfig.scaled()
    return [
        Job(workload, mechanism, config, input_set=INPUT_SET)
        for workload in pointer_intensive_names()[:benchmarks]
        for mechanism in MECHANISMS
    ]


def _run_once(slots: int, matrix: List[Job], scratch: Path) -> Dict[str, Any]:
    """One timed sweep; returns seconds + the journal's content hashes."""
    journal = CheckpointJournal(scratch / f"local-j{slots}.jsonl")
    engine = ExecutionEngine(
        jobs=slots,
        timeout=300.0,
        retry=RetryPolicy(max_attempts=2),
        checkpoint=journal,
    )
    start = time.perf_counter()
    report = engine.run(matrix)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "ok": len(report.ok),
        "failed": len(report.failures),
        "hashes": journal.content_hashes(),
    }


def compute(
    benchmarks: int = 6,
    jobs_grid=JOBS_GRID,
    repeats: int = 2,
) -> Dict[str, Any]:
    """Run the grid; best-of *repeats* per slot count."""
    matrix = job_matrix(benchmarks)
    cells: List[Dict[str, Any]] = []
    hash_sets: List[Any] = []
    with tempfile.TemporaryDirectory(prefix="bench-fanout-") as tmp:
        scratch = Path(tmp)
        for slots in jobs_grid:
            best: Optional[Dict[str, Any]] = None
            for repeat in range(repeats):
                run_dir = scratch / f"r{repeat}"
                run_dir.mkdir(exist_ok=True)
                run = _run_once(slots, matrix, run_dir)
                if best is None or run["seconds"] < best["seconds"]:
                    best = run
            hash_sets.append(best.pop("hashes"))
            cells.append(
                {
                    "jobs": slots,
                    "n_jobs": len(matrix),
                    "repeats": repeats,
                    "jobs_per_minute": 60.0 * len(matrix) / best["seconds"],
                    **best,
                }
            )

    rates = {cell["jobs"]: cell["jobs_per_minute"] for cell in cells}
    widest = rates[max(jobs_grid)]
    headline = {
        "local_jobs_per_minute": widest,
        "local_scaling": widest / rates[jobs_grid[0]],
        "all_ok": all(cell["failed"] == 0 for cell in cells),
        # the differential: every slot count journals the same
        # content-addressed records
        "all_journals_identical": bool(hash_sets)
        and all(hashes == hash_sets[0] for hashes in hash_sets),
    }
    return {
        "benchmark": "bench_sweep_fanout",
        "config": "scaled",
        "input_set": INPUT_SET,
        "mechanisms": list(MECHANISMS),
        "versions": {
            "python": platform.python_version(),
            "python_implementation": platform.python_implementation(),
        },
        "cells": cells,
        "headline": headline,
    }


def render(payload: Dict[str, Any]) -> str:
    rows = []
    for cell in payload["cells"]:
        rows.append(
            (
                str(cell["jobs"]),
                str(cell["n_jobs"]),
                f"{cell['seconds']:.2f}",
                f"{cell['jobs_per_minute']:,.0f}",
                str(cell["failed"]) if cell["failed"] else "-",
            )
        )
    headline = payload["headline"]
    rows.append(
        (
            "[headline]",
            "",
            "",
            f"{headline['local_scaling']:.2f}x scaling",
            "identical" if headline["all_journals_identical"] else "MISMATCH",
        )
    )
    return format_table(
        ["--jobs", "matrix", "seconds", "jobs/min", "failed"],
        rows,
        title="Sweep fan-out throughput — local dispatch overhead",
    )


def bench_sweep_fanout(benchmark, show):
    """pytest entry: small matrix, jobs 1/2; correctness asserts only."""
    payload = benchmark.pedantic(
        lambda: compute(benchmarks=2, jobs_grid=(1, 2), repeats=1),
        rounds=1,
        iterations=1,
    )
    show(render(payload))
    assert payload["headline"]["all_ok"]
    assert payload["headline"]["all_journals_identical"]
    assert all(cell["jobs_per_minute"] > 0 for cell in payload["cells"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="sweep fan-out throughput on the local fork pool"
    )
    repo_root = Path(__file__).resolve().parent.parent
    parser.add_argument(
        "--out",
        type=Path,
        default=repo_root / "BENCH_sweep.json",
        help="output JSON path (default: BENCH_sweep.json at repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small matrix, jobs 1/2, one repeat (CI)",
    )
    parser.add_argument("--benchmarks", type=int, default=6,
                        help="pointer workloads in the matrix")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed sweeps per cell (best-of)")
    args = parser.parse_args(argv)

    if args.smoke:
        payload = compute(benchmarks=2, jobs_grid=(1, 2), repeats=1)
    else:
        payload = compute(
            benchmarks=args.benchmarks, repeats=args.repeats
        )
    print(render(payload))
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if not (
        payload["headline"]["all_ok"]
        and payload["headline"]["all_journals_identical"]
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
