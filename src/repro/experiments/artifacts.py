"""Content-addressed profile artifacts beside a sweep's checkpoint journal.

ECDP's profiling pass over the ``train`` input yields the same
:class:`~repro.compiler.pointer_group.PointerGroupProfile` for every
hint-driven cell of a benchmark (ecdp, ecdp+throttle, ecdp+fdp, grp).
Sweep workers are separate processes, so an in-memory memo dies with
each cell; these artifacts let every later cell — in this sweep, and in
later sweeps over the same checkpoint directory — read the profile back
instead of rebuilding the train workload and profiling it again.

One file per profile, ``<journal dir>/artifacts/<key>.json``.  The key
is a sha256 over the same named-field discipline as a job's identity
(:func:`repro.experiments.engine.job.identity_payload`): benchmark,
profile input set, the profiler configuration, a format version, and a
digest of the ``repro`` package's sources, so an artifact written by
other code is simply a miss.  The file is one CRC32-framed record in the
journal's encoding holding the profile's sorted ``(pc, offset, issued,
useful)`` rows.  Writes go through a temporary file and a rename, so
readers see a whole file or none; a file that fails its checksum or
names another key is counted as rejected and never trusted.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.compiler.pointer_group import PointerGroupProfile
from repro.compiler.profiler import ProfilerConfig
from repro.experiments.engine.checkpoint import (
    PathLike,
    frame_record,
    unframe_record,
)

#: bump when the artifact payload changes shape
FORMAT_VERSION = 1

@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over the ``repro`` package's ``.py`` sources.

    Computed at most once per process, on its first profile lookup.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def profile_key(
    benchmark: str, input_set: str, config: ProfilerConfig
) -> str:
    """Content address of one profile: what it was computed from."""
    payload = {
        "benchmark": benchmark,
        "input_set": input_set,
        "profiler": dataclasses.asdict(config),
        "format": FORMAT_VERSION,
        "source": source_digest(),
    }
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:32]


@dataclass
class ArtifactStats:
    """What the artifact store did in this process."""

    hits: int = 0  #: profiles served from disk
    misses: int = 0  #: no artifact on disk; computed
    writes: int = 0  #: artifacts written after a compute
    rejected: int = 0  #: unreadable, corrupt or mislabelled; recomputed

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def clear(self) -> None:
        self.hits = self.misses = self.writes = self.rejected = 0


def artifact_path(directory: PathLike, key: str) -> Path:
    return Path(directory) / f"{key}.json"


def read_profile(
    directory: PathLike, key: str, stats: ArtifactStats
) -> Optional[PointerGroupProfile]:
    """The profile stored under *key*, or None (counted) to recompute."""
    path = artifact_path(directory, key)
    try:
        text = path.read_text("utf-8")
    except FileNotFoundError:
        stats.misses += 1
        return None
    except (OSError, UnicodeDecodeError):
        stats.rejected += 1
        return None
    try:
        parsed = json.loads(text)
        data = unframe_record(parsed) if isinstance(parsed, dict) else None
        if data is None or data["key"] != key:
            raise ValueError("checksum or key mismatch")
        profile = PointerGroupProfile.from_rows(data["rows"])
    except (ValueError, KeyError, TypeError):
        stats.rejected += 1
        return None
    stats.hits += 1
    return profile


def write_profile(
    directory: PathLike,
    key: str,
    profile: PointerGroupProfile,
    stats: ArtifactStats,
) -> None:
    """Store *profile* under *key*: temporary file, then rename.

    Concurrent writers of one key each rename a complete file into
    place, so the survivor is always whole.  A failed write (read-only
    or full disk) leaves the store as it was: the caller already has
    the profile, and the next reader recomputes it.
    """
    line = frame_record({"key": key, "rows": profile.rows()})
    temp_name = None
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            dir=str(directory), prefix=f".{key}.", suffix=".tmp"
        )
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(line)
        os.replace(temp_name, artifact_path(directory, key))
    except OSError:
        if temp_name is not None:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
        return
    stats.writes += 1
