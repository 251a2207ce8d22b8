"""Golden pointer-group profiles from the functional profiling pass.

Every entry is one profile's sorted ``(pc, offset, issued, useful)``
rows (:meth:`PointerGroupProfile.rows`), recomputed here and required to
match exactly.  The set covers every registered workload on ``test``,
the two most profiling-heavy benchmarks on ``train`` (the input sweeps
profile), and mst re-profiled with its own ECDP hint filter installed
(Figure 10's "after" measurement).  Any drift is a behaviour change in
the profiler, not noise; re-baseline consciously with::

    PYTHONPATH=src python -m pytest tests/test_profile_goldens.py --update-goldens
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.compiler.hints import HintTable
from repro.compiler.profiler import profile_trace
from repro.core.config import SystemConfig
from repro.experiments.runner import profiler_config
from repro.workloads.registry import all_names, get_workload

GOLDEN = Path(__file__).parent / "goldens" / "profiles.json"
CONFIG = profiler_config(SystemConfig.scaled())

#: (benchmark, input set) profiled with the greedy (unfiltered) CDP
PLAIN = [(name, "test") for name in all_names()] + [
    ("xalancbmk", "train"),
    ("perlbench", "train"),
]


def _profile(benchmark, input_set, hint_filter=None):
    instance = get_workload(benchmark).build(input_set)
    return profile_trace(
        instance.memory, instance.trace(), CONFIG, hint_filter
    )


def compute_goldens():
    entries = {}
    for benchmark, input_set in PLAIN:
        profile = _profile(benchmark, input_set)
        entries[f"{benchmark}/{input_set}"] = profile.rows()
    hints = HintTable.from_profile(_profile("mst", "test"))
    filtered = _profile("mst", "test", hint_filter=hints.allows)
    entries["mst/test+ecdp"] = filtered.rows()
    return {key: [list(row) for row in rows] for key, rows in entries.items()}


def test_profiles_match_goldens(update_goldens):
    got = compute_goldens()
    if update_goldens:
        GOLDEN.parent.mkdir(exist_ok=True)
        lines = [
            f"{json.dumps(key)}: {json.dumps(got[key])}" for key in sorted(got)
        ]
        GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        pytest.skip(f"rewrote {GOLDEN.name}")
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
