"""The executor transport: where sweep jobs physically run.

One transport ships, :class:`LocalBackend` — a forked worker process per
attempt on this machine.  The engine's scheduling policy (retry,
watchdog, quarantine, journaling, fault delivery) lives in
:mod:`repro.experiments.engine.executor`; this package only starts,
polls and kills attempts.
"""

from __future__ import annotations

from repro.errors import UsageError
from repro.experiments.engine.backends.local import LocalBackend


def create_backend(name: str) -> LocalBackend:
    """Build the backend registered as *name*; only ``local`` exists."""
    if name == "local":
        return LocalBackend()
    raise UsageError(
        f"unknown backend {name!r}; the only backend is 'local'"
    )


__all__ = ["LocalBackend", "create_backend"]
