"""Export experiment results to JSON or CSV for external analysis.

The bench harness prints paper-shaped tables; this module serves users
who want the raw numbers — spreadsheets, notebooks, regression tracking
across library versions.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Union

from repro.core.stats import CoreResult
from repro.experiments.engine import is_failed

PathLike = Union[str, Path]

#: columns exported per (benchmark, mechanism) result
FIELDS = [
    "benchmark",
    "mechanism",
    "status",
    "ipc",
    "bpki",
    "retired_instructions",
    "cycles",
    "l2_demand_misses",
    "bus_transfers",
    "cdp_accuracy",
    "cdp_coverage",
    "stream_accuracy",
    "stream_coverage",
    "intervals_completed",
    "attempts",
    "backoff_seconds",
    "executor",
    "host",
    "queue_seconds",
    "error_type",
    "series_file",
    "policy",
    "policy_params",
]


def result_record(
    benchmark: str,
    mechanism: str,
    result: CoreResult,
    series_file: Union[str, None] = None,
    attempts: Union[int, None] = None,
    backoff_seconds: Union[float, None] = None,
    executor: Union[str, None] = None,
    host: Union[str, None] = None,
    queue_seconds: Union[float, None] = None,
    policy: Union[str, None] = None,
    policy_params: Union[str, None] = None,
) -> Dict:
    """Flatten one run's metrics into an export row.

    A failed run exports with ``status`` carrying the failure reason,
    ``error_type`` naming the exception class, and every metric column
    null, so downstream analysis sees the hole — and *how* it failed —
    explicitly instead of a silently missing row.

    ``attempts`` and ``backoff_seconds`` surface the engine's retry
    schedule (how many launches the cell took and how long backoff
    delayed it); they stay null for runs outside the sweep engine.

    ``executor``, ``host``, and ``queue_seconds`` are execution
    provenance: which backend ran the cell (``local``; older journals
    may say ``subprocess`` or ``remote``, with the ``host`` that ran
    it), and how long it sat queued for a free slot.  They stay null
    for runs outside the sweep engine, for journals written before
    provenance was recorded, and —
    deliberately — for FAILED rows, where no attempt is *the* one that
    produced the cell.

    ``series_file`` optionally points at the per-interval telemetry
    series recorded for this cell (sweeps run with ``--telemetry``
    persist one file per cell beside the checkpoint journal); it stays
    null for runs without telemetry.

    ``policy`` and ``policy_params`` record which throttling policy
    (``repro.policy``) governed the run.  Unlike the provenance trio
    they are identity-bearing (part of the config, thus of the job's
    content hash); they stay null for journals written before policies
    existed.  Failed rows keep them — the policy was still part of what
    was asked for.
    """
    if is_failed(result):
        failure = getattr(result, "failure", None)
        reason = getattr(result, "reason", "unknown failure")
        record = {field: None for field in FIELDS}
        record.update(
            benchmark=benchmark, mechanism=mechanism,
            status=f"FAILED({reason})",
            error_type=getattr(failure, "error_type", None),
            attempts=attempts,
            backoff_seconds=backoff_seconds,
            policy=policy,
            policy_params=policy_params,
        )
        return record
    return {
        "benchmark": benchmark,
        "mechanism": mechanism,
        "status": "ok",
        "ipc": result.ipc,
        "bpki": result.bpki,
        "retired_instructions": result.retired_instructions,
        "cycles": result.cycles,
        "l2_demand_misses": result.l2_demand_misses,
        "bus_transfers": result.bus_transfers,
        "cdp_accuracy": result.accuracy("cdp"),
        "cdp_coverage": result.coverage("cdp"),
        "stream_accuracy": result.accuracy("stream"),
        "stream_coverage": result.coverage("stream"),
        "intervals_completed": getattr(result, "intervals_completed", None),
        "attempts": attempts,
        "backoff_seconds": backoff_seconds,
        "executor": executor,
        "host": host,
        "queue_seconds": queue_seconds,
        "error_type": None,
        "series_file": series_file,
        "policy": policy,
        "policy_params": policy_params,
    }


def sweep_records(
    per_mechanism: Dict[str, Dict[str, CoreResult]]
) -> List[Dict]:
    """Flatten a suites.sweep() result into export rows."""
    return [
        result_record(benchmark, mechanism, result)
        for mechanism, per_bench in per_mechanism.items()
        for benchmark, result in per_bench.items()
    ]


def write_json(path: PathLike, records: List[Dict]) -> None:
    """Write export rows as a JSON array."""
    with open(path, "w") as stream:
        json.dump(records, stream, indent=2)
        stream.write("\n")


def write_csv(path: PathLike, records: List[Dict]) -> None:
    """Write export rows as CSV with the standard column set."""
    with open(path, "w", newline="") as stream:
        writer = csv.DictWriter(stream, fieldnames=FIELDS)
        writer.writeheader()
        for record in records:
            writer.writerow(record)


def read_json(path: PathLike) -> List[Dict]:
    with open(path) as stream:
        return json.load(stream)
