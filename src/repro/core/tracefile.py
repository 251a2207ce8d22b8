"""Trace serialization: save and load MemOp streams.

Workload traces are normally generated on the fly, but a standalone
simulator needs to exchange traces with the outside world — to archive a
profiling input, to replay a trace from another tool, or to diff two runs.

Two formats:

* **binary** (default) — fixed 17-byte little-endian records
  ``<pc:u32, addr:u32, flags:u8, work:u32, dep:i32>``, streamed, with a
  magic header carrying a format version.  Compact and fast.
* **text** — one ``pc addr kind work dep`` line per op (hex addresses),
  greppable and diffable.

Both round-trip exactly, including dependence edges.  Loading is lazy
(generators), so multi-million-op traces never fully materialize.

Corruption is reported as :class:`~repro.errors.TraceFormatError` (a
``ValueError`` subclass) carrying the byte offset and record index of the
first bad record.  Both loaders also accept ``strict=False``, which skips
corrupt records with a warning — the pragmatic mode for salvaging the
intact prefix of a truncated archive.
"""

from __future__ import annotations

import struct
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.core.instruction import MemOp
from repro.errors import TraceFormatError

MAGIC = b"RPTR\x01"
_RECORD = struct.Struct("<IIBIi")

_FLAG_LOAD = 0x1

#: records decoded per read in the batched loader (~68 KB per chunk)
_CHUNK_RECORDS = 4096

PathLike = Union[str, Path]


def save_trace(path: PathLike, trace: Iterable[MemOp]) -> int:
    """Write *trace* in binary format; returns the number of ops written."""
    count = 0
    with open(path, "wb") as stream:
        stream.write(MAGIC)
        for op in trace:
            stream.write(
                _RECORD.pack(
                    op.pc,
                    op.addr,
                    _FLAG_LOAD if op.is_load else 0,
                    op.work,
                    op.dep,
                )
            )
            count += 1
    return count


def load_trace(path: PathLike, strict: bool = True) -> Iterator[MemOp]:
    """Stream MemOps back from a binary trace file.

    Decoding is batched: records are read in ~68 KB chunks and unpacked
    with ``Struct.iter_unpack`` rather than one 17-byte ``read`` +
    ``unpack`` per record, which dominates replay time on multi-million
    op traces.  Laziness is preserved — each chunk's ops are yielded
    before the next chunk is read.

    With ``strict=False`` a truncated tail record is skipped with a
    warning instead of raising, yielding the intact prefix.
    """
    record_size = _RECORD.size
    chunk_bytes = record_size * _CHUNK_RECORDS
    with open(path, "rb") as stream:
        header = stream.read(len(MAGIC))
        if header != MAGIC:
            raise TraceFormatError(
                f"{path}: not a repro trace file (bad magic {header!r})",
                path=path,
                offset=0,
                record_index=0,
            )
        offset = len(MAGIC)
        index = 0
        leftover = b""
        while True:
            chunk = stream.read(chunk_bytes)
            if not chunk:
                if leftover:
                    message = (
                        f"{path}: truncated trace record {index} at byte "
                        f"offset {offset} ({len(leftover)} of {record_size} "
                        "bytes)"
                    )
                    if strict:
                        raise TraceFormatError(
                            message,
                            path=path,
                            offset=offset,
                            record_index=index,
                        )
                    warnings.warn(f"{message}; dropping corrupt tail")
                break
            if leftover:
                chunk = leftover + chunk
            usable = len(chunk) - len(chunk) % record_size
            leftover = chunk[usable:]
            if not usable:
                continue
            for pc, addr, flags, work, dep in _RECORD.iter_unpack(
                chunk[:usable]
            ):
                yield MemOp(pc, addr, bool(flags & _FLAG_LOAD), work, dep)
            decoded = usable // record_size
            offset += usable
            index += decoded


def save_trace_text(path: PathLike, trace: Iterable[MemOp]) -> int:
    """Write *trace* as text, one op per line."""
    count = 0
    with open(path, "w") as stream:
        stream.write("# pc addr kind work dep\n")
        for op in trace:
            kind = "L" if op.is_load else "S"
            stream.write(
                f"{op.pc:#x} {op.addr:#x} {kind} {op.work} {op.dep}\n"
            )
            count += 1
    return count


def load_trace_text(path: PathLike, strict: bool = True) -> Iterator[MemOp]:
    """Stream MemOps back from a text trace file.

    With ``strict=False`` malformed lines are skipped with a warning
    instead of raising.
    """
    offset = 0
    with open(path, "rb") as stream:
        for line_number, raw in enumerate(stream, 1):
            line_offset = offset
            offset += len(raw)
            line = raw.decode("utf-8", errors="replace").strip()
            if not line or line.startswith("#"):
                continue
            op = None
            fields = line.split()
            if len(fields) == 5 and fields[2] in ("L", "S"):
                try:
                    op = MemOp(
                        int(fields[0], 16),
                        int(fields[1], 16),
                        fields[2] == "L",
                        int(fields[3]),
                        int(fields[4]),
                    )
                except ValueError:
                    op = None
            if op is None:
                message = (
                    f"{path}:{line_number}: malformed trace line {line!r} "
                    f"at byte offset {line_offset}"
                )
                if strict:
                    raise TraceFormatError(
                        message,
                        path=path,
                        offset=line_offset,
                        record_index=line_number,
                    )
                warnings.warn(f"{message}; skipping corrupt record")
                continue
            yield op


def trace_summary(trace: Iterable[MemOp]) -> dict:
    """Aggregate statistics of a trace (for quick sanity checks)."""
    ops = loads = stores = instructions = dependent = 0
    min_addr, max_addr = None, None
    for op in trace:
        ops += 1
        instructions += 1 + op.work
        if op.is_load:
            loads += 1
            if op.dep >= 0:
                dependent += 1
        else:
            stores += 1
        if min_addr is None or op.addr < min_addr:
            min_addr = op.addr
        if max_addr is None or op.addr > max_addr:
            max_addr = op.addr
    return {
        "ops": ops,
        "loads": loads,
        "stores": stores,
        "instructions": instructions,
        "dependent_loads": dependent,
        "min_addr": min_addr,
        "max_addr": max_addr,
    }
