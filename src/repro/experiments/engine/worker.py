"""Worker-process entry points.

These run on the child side of the engine's process pool, so everything
here must be importable by qualified name (picklable).  The shim is the
crash barrier: whatever the simulation does — raise, return something
unpicklable, even ``os._exit`` — the parent either receives a structured
``("ok", result)`` / ``("error", info)`` message or observes the process
sentinel and records a worker crash.  Nothing a job does can take down
the sweep.

When the executor runs under a watchdog, the shim also starts a daemon
heartbeat thread (``("heartbeat", {...})`` messages over the same pipe,
serialized by a lock) so the parent can tell a slow worker from a wedged
one; and when a fault plan targets this launch, the shim *is* the
delivery mechanism — the injected crash/hang/slow-start happens inside
the real worker process, exercising exactly the code paths a genuine
failure would.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.errors import is_transient
from repro.experiments.engine.faults import Unpicklable, apply_worker_fault
from repro.experiments.engine.job import Job
from repro.experiments.engine.supervise import start_heartbeat


def default_worker(job: Job) -> Any:
    """Run one (benchmark, mechanism) simulation; the engine's default.

    When the job carries a ``telemetry_dir``, the run records the
    per-interval series and persists it beside the sweep's checkpoint
    journal (one ``<benchmark>-<mechanism>-<input_set>.series.jsonl``
    per cell — the path is deterministic via
    :func:`repro.telemetry.series_path`, so exporters can recompute it).
    A job's ``artifact_dir`` is where its train profile is read from and
    written to (:mod:`repro.experiments.artifacts`).
    """
    from repro.experiments.runner import run_benchmark

    if hasattr(job.config, "validate"):
        job.config.validate()
    telemetry = None
    if job.telemetry_dir:
        from repro.telemetry import Telemetry, TelemetryConfig

        telemetry = Telemetry(TelemetryConfig(series=True, trace=False))
    result = run_benchmark(
        job.benchmark,
        job.mechanism,
        job.config,
        input_set=job.input_set,
        profile_input=job.profile_input,
        telemetry=telemetry,
        artifact_dir=job.artifact_dir,
    )
    if telemetry is not None:
        from pathlib import Path

        from repro.telemetry import series_path, write_series_jsonl

        Path(job.telemetry_dir).mkdir(parents=True, exist_ok=True)
        path = series_path(
            job.telemetry_dir, job.benchmark, job.mechanism, job.input_set
        )
        write_series_jsonl(telemetry, path)
    return result


def error_info(error: BaseException) -> Dict[str, Any]:
    """JSON-safe description of an exception (never raises)."""
    try:
        message = str(error)
    except Exception:
        message = "<unprintable exception>"
    return {
        "type": type(error).__name__,
        "message": message,
        "transient": is_transient(error),
    }


def worker_shim(
    conn,
    worker,
    job: Job,
    fault=None,
    heartbeat_interval: Optional[float] = None,
) -> None:
    """Child-process main: run *worker* on *job*, report over *conn*.

    *fault* is an injected :class:`~repro.experiments.engine.faults.
    FaultSpec` for this launch (None in production);
    *heartbeat_interval* > 0 starts the watchdog heartbeat thread.
    """
    lock = threading.Lock()
    stop_heartbeat = threading.Event()
    if heartbeat_interval:
        stop_heartbeat = start_heartbeat(conn, lock, heartbeat_interval)
    try:
        try:
            if fault is not None:
                apply_worker_fault(fault, stop_heartbeat)
            result = worker(job)
            if fault is not None and fault.kind == "unpicklable":
                result = Unpicklable()
        except BaseException as error:  # the barrier: report, don't escape
            _send(conn, ("error", error_info(error)), lock, stop_heartbeat)
            return
        try:
            with lock:
                stop_heartbeat.set()  # no beats may trail the result
                conn.send(("ok", result))
        except Exception as error:  # unpicklable / oversized result
            _send(
                conn,
                (
                    "error",
                    {
                        "type": "JobError",
                        "message": f"result not transferable: {error}",
                        "transient": False,
                    },
                ),
                lock,
                stop_heartbeat,
            )
    finally:
        stop_heartbeat.set()
        try:
            conn.close()
        except Exception:
            pass


def _send(conn, message, lock=None, stop_heartbeat=None) -> None:
    """Best-effort send; a dead parent pipe is not worth crashing over."""
    try:
        if lock is None:
            conn.send(message)
            return
        with lock:
            if stop_heartbeat is not None:
                stop_heartbeat.set()
            conn.send(message)
    except Exception:
        pass

