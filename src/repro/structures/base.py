"""Base machinery for linked data structures living in simulated memory.

Structures are built of fixed-layout records (a C struct of 4-byte fields).
Construction writes real pointer values into the backing store — this is
what the content-directed prefetcher later scans for — and traversal goes
through a :class:`Program`, which reads the same memory *and* emits the
``MemOp`` trace the timing simulator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.instruction import MemOp
from repro.memory.address import (
    ADDRESS_MASK,
    WORD_ALIGN_MASK,
    WORD_SIZE,
    validate_address,
)
from repro.memory.backing import SimulatedMemory

#: builds a MemOp without the NamedTuple's Python-level ``__new__``
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class StructLayout:
    """A C-like record layout: named 4-byte fields at fixed offsets.

    The constant field offsets are what give rise to pointer groups: every
    dynamic instance of ``node->next`` sits at the same byte offset from
    the field a traversal load touches (paper Figure 3).
    """

    name: str
    fields: Tuple[str, ...]
    #: field name -> byte offset, derived from ``fields`` once
    _offsets: Dict[str, int] = dataclass_field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(set(self.fields)) != len(self.fields):
            raise ValueError(f"duplicate field names in struct {self.name!r}")
        offsets = {
            name: index * WORD_SIZE for index, name in enumerate(self.fields)
        }
        object.__setattr__(self, "_offsets", offsets)

    @property
    def size(self) -> int:
        return len(self.fields) * WORD_SIZE

    def offset(self, field: str) -> int:
        """Byte offset of *field* within the record."""
        try:
            return self._offsets[field]
        except KeyError:
            raise ValueError(
                f"struct {self.name!r} has no field {field!r}"
            ) from None

    def addr_of(self, base: int, field: str) -> int:
        """Address of *field* in the record at *base*."""
        try:
            return base + self._offsets[field]
        except KeyError:
            return base + self.offset(field)  # raises the ValueError


class Program:
    """Execution context that turns structure traversals into traces.

    The workload calls :meth:`load` / :meth:`store`; the Program reads or
    writes the backing store (so data-dependent control flow works — e.g.
    hash-chain walks follow the *actual* pointers) and buffers a ``MemOp``
    per call.  ``work(n)`` accounts n non-memory instructions, which attach
    to the next memory op.

    Address dependences: a traversal passes ``base=node`` when a load's
    address was computed from a previously *loaded* pointer; the Program
    resolves the producing load and stamps the op's ``dep`` field so the
    timing model serializes the pointer chain, as real hardware must.
    """

    #: values below this are never pointers, so never tracked as producers
    _MIN_POINTER = 0x1000

    def __init__(self, memory: SimulatedMemory) -> None:
        self.memory = memory
        self._words = memory.words
        self._pending_work = 0
        self._ops: List[MemOp] = []
        self._load_seq = 0
        self._producers: Dict[int, int] = {}  # loaded value -> load seq

    def work(self, instructions: int) -> None:
        """Account *instructions* of non-memory work before the next op."""
        self._pending_work += instructions

    def load(self, pc: int, addr: int, base: Optional[int] = None) -> int:
        """Emit a load at *pc* from *addr*; return the value read.

        ``base``: the pointer value this address was derived from (e.g.
        the node whose field is being read), used to stamp the load-load
        dependence.
        """
        if not 0 <= addr <= ADDRESS_MASK:
            validate_address(addr)
        dep = -1
        if base is not None:
            dep = self._producers.get(base, -1)
        seq = self._load_seq
        self._load_seq = seq + 1
        self._ops.append(
            _new_tuple(MemOp, (pc, addr, True, self._pending_work, dep))
        )
        self._pending_work = 0
        # == memory.read_word(addr), address already checked
        value = self._words.get(addr & WORD_ALIGN_MASK, 0)
        if value >= self._MIN_POINTER:
            self._producers[value] = seq
        return value

    def store(self, pc: int, addr: int, value: int) -> None:
        """Emit a store at *pc*; write *value* to the backing store."""
        if not 0 <= addr <= ADDRESS_MASK:
            validate_address(addr)
        # == memory.write_word(addr, value), address already checked
        self._words[addr & WORD_ALIGN_MASK] = value & ADDRESS_MASK
        self._ops.append(
            _new_tuple(MemOp, (pc, addr, False, self._pending_work, -1))
        )
        self._pending_work = 0

    def drain(self) -> List[MemOp]:
        """Take the buffered ops (workload generators drain per step)."""
        ops = self._ops
        self._ops = []
        return ops

    def __len__(self) -> int:
        return len(self._ops)


class SilentWriter:
    """Builds structures without emitting trace ops (the setup phase).

    The paper's measured region is the traversal, not the allocation; using
    a silent writer for construction keeps traces focused on the behaviour
    under study while still leaving real pointers in memory.
    """

    def __init__(self, memory: SimulatedMemory) -> None:
        self.memory = memory

    def store_fields(
        self, layout: StructLayout, base: int, values: Dict[str, int]
    ) -> None:
        """Write the given field values of the record at *base*."""
        for field, value in values.items():
            self.memory.write_word(layout.addr_of(base, field), value)


def run_steps(
    program: Program, steps: Iterator[None]
) -> Iterator[MemOp]:
    """Adapt a step-wise traversal into a flat MemOp stream.

    Workload traversals are written as generators that yield once per
    logical step; after each step the ops buffered in *program* are
    flushed.  This keeps peak memory bounded for long traces.
    """
    for _ in steps:
        for op in program.drain():
            yield op
    for op in program.drain():
        yield op
