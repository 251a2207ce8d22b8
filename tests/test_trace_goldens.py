"""Golden digests of the workload traces.

Every entry is the sha256 of one generated trace, each op encoded as its
five fields (``pc, addr, is_load, work, dep``), plus the op count.  The
set covers every registered workload on ``test`` and the 15
pointer-intensive benchmarks on ``train`` (the input profiling reads).
Trace generation touches the structure builders, ``Program`` and
``MemOp``; any drift here is a behaviour change in the workloads, not
noise.  Re-baseline consciously with::

    PYTHONPATH=src python -m pytest tests/test_trace_goldens.py --update-goldens
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import pytest

from repro.workloads.registry import (
    all_names,
    get_workload,
    pointer_intensive_names,
)

GOLDEN = Path(__file__).parent / "goldens" / "traces.json"

CELLS = [(name, "test") for name in all_names()] + [
    (name, "train") for name in pointer_intensive_names()
]

_OP = struct.Struct("<qq?qq")


def trace_digest(benchmark: str, input_set: str):
    """``{"ops": n, "sha256": hex}`` of one freshly generated trace."""
    digest = hashlib.sha256()
    pack = _OP.pack
    count = 0
    for op in get_workload(benchmark).build(input_set).trace():
        digest.update(pack(op.pc, op.addr, op.is_load, op.work, op.dep))
        count += 1
    return {"ops": count, "sha256": digest.hexdigest()}


def test_traces_match_goldens(update_goldens):
    got = {f"{name}/{input_set}": trace_digest(name, input_set)
           for name, input_set in CELLS}
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
