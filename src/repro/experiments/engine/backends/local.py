"""The local backend: one forked worker process per job attempt.

Each attempt gets its own process, connected to the parent by a one-way
pipe; :meth:`LocalBackend.poll` multiplexes every pipe together with
every process sentinel.  Because children are forked, the worker
callable travels by memory copy: lambdas and closures work, no import
dance required.  The backend owns only this plumbing — start an
attempt, stream its heartbeats back, deliver exactly one outcome
message (or observe the process dying), kill it on request.

Outcome messages are the worker shim's wire shape: ``("ok", result)``
or ``("error", {"type", "message", "transient"})``.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_ready
from typing import List, Optional, Sequence, Tuple

from repro.experiments.engine.job import Job

#: an outcome message in the worker-shim wire shape
Outcome = Tuple[str, object]


@dataclass
class LocalHandle:
    """One in-flight attempt: its worker process and result pipe."""

    job: Job
    attempt: int
    #: monotonic launch time (deadline and duration are measured from it)
    started: float = 0.0
    #: monotonic time of the last heartbeat (0.0 = none seen yet)
    last_beat: float = 0.0
    process: object = field(default=None, repr=False)
    conn: object = field(default=None, repr=False)


class LocalBackend:
    """Crash-isolated worker processes on this machine."""

    #: the provenance ``executor`` value and ``dispatch`` event field
    name = "local"

    def __init__(self):
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # a platform without fork
            self._ctx = multiprocessing.get_context("spawn")

    def submit(
        self,
        worker,
        job: Job,
        attempt: int,
        fault=None,
        heartbeat: Optional[float] = None,
    ) -> LocalHandle:
        """Start one attempt of *job* running *worker* in a new process."""
        from repro.experiments.engine.worker import worker_shim

        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_shim,
            args=(send_conn, worker, job, fault, heartbeat),
            daemon=True,
        )
        process.start()
        send_conn.close()  # child holds the only writer now
        return LocalHandle(
            job=job,
            attempt=attempt,
            started=time.monotonic(),
            process=process,
            conn=recv_conn,
        )

    def poll(
        self, handles: Sequence[LocalHandle], timeout: float
    ) -> List[Tuple[LocalHandle, Outcome]]:
        """Wait up to *timeout* for activity; return settled attempts.

        Handles that only heartbeat get their ``last_beat`` refreshed and
        are not returned; a silently-dead worker is returned with a
        synthesized ``WorkerCrashError`` outcome.
        """
        if not handles:
            if timeout > 0:
                time.sleep(timeout)
            return []
        waitables = [handle.conn for handle in handles]
        waitables += [handle.process.sentinel for handle in handles]
        _wait_ready(waitables, timeout=max(0.0, timeout))
        settled: List[Tuple[LocalHandle, Outcome]] = []
        for handle in handles:
            outcome = self._poll_one(handle)
            if outcome is not None:
                settled.append((handle, outcome))
        return settled

    def cancel(self, handle: LocalHandle) -> None:
        """Kill one in-flight attempt (idempotent, never raises)."""
        self._kill(handle.process)
        self._close(handle.conn)

    # -- plumbing ----------------------------------------------------------

    def _poll_one(self, handle: LocalHandle) -> Optional[Outcome]:
        """The attempt's outcome message, or None if still running."""
        outcome = None
        pipe_broken = False
        while True:  # drain heartbeats queued ahead of the outcome
            try:
                if not handle.conn.poll():
                    break
            except (OSError, ValueError):
                break
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):  # died mid-send
                pipe_broken = True
                break
            if (
                isinstance(message, tuple)
                and message
                and message[0] == "heartbeat"
            ):
                handle.last_beat = time.monotonic()
                continue
            outcome = message
            break
        if outcome is not None:
            handle.process.join(5)
            if handle.process.is_alive():
                self._kill(handle.process)
            self._close(handle.conn)
            return outcome
        if pipe_broken:
            handle.process.join(5)
            if handle.process.is_alive():
                self._kill(handle.process)
            self._close(handle.conn)
            return self._crash_outcome(handle)
        if not handle.process.is_alive():
            handle.process.join()
            self._close(handle.conn)
            return self._crash_outcome(handle)
        return None

    @staticmethod
    def _crash_outcome(handle: LocalHandle) -> Outcome:
        exitcode = handle.process.exitcode
        return (
            "error",
            {
                "type": "WorkerCrashError",
                "message": (
                    f"worker died without a result (exit code {exitcode})"
                ),
                "transient": True,
            },
        )

    @staticmethod
    def _kill(process) -> None:
        try:
            if process.is_alive():
                process.terminate()
                process.join(0.5)
            if process.is_alive():
                process.kill()
                process.join(5)
        except (OSError, ValueError, AttributeError):
            pass

    @staticmethod
    def _close(conn) -> None:
        try:
            conn.close()
        except Exception:
            pass
