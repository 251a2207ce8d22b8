"""The profiling compiler pass (paper Section 3, "Profiling Implementation").

We implement the paper's first sketch: the compiler profiles the program by
simulating the cache hierarchy and the content-directed prefetcher of the
target machine — *functionally*, with no timing — and measures, for every
pointer group PG(L, X), what fraction of the prefetches it triggers
(including recursive ones) are demanded before eviction.

The result is a :class:`PointerGroupProfile`, from which
:class:`~repro.compiler.hints.HintTable` derives the per-load hint bit
vectors the hardware consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from repro.cache.set_assoc import _cache_geometry
from repro.compiler.pointer_group import PGKey, PointerGroupProfile
from repro.core.instruction import MemOp
from repro.memory.address import ADDRESS_BITS, NULL_REGION_END, WORD_SIZE
from repro.memory.backing import SimulatedMemory


@dataclass(frozen=True)
class ProfilerConfig:
    """Shape of the target machine's last-level cache and CDP."""

    l2_size: int
    l2_ways: int
    block_size: int
    compare_bits: int = 8
    max_recursion_depth: int = 4
    #: cap on prefetches per demand miss, mirroring the hardware's
    #: per-core prefetch request queue (Table 5: 128 entries).  Keeps the
    #: functional simulation from exploding on pointer-dense blocks.
    chain_budget: int = 128


class FunctionalCdpSimulator:
    """Timing-free L2 + CDP simulation that attributes prefetch usefulness.

    Every CDP prefetch — direct or recursive — is attributed to the *root*
    pointer group that started its chain, matching the paper's definition
    of "a PG's prefetches".  An optional ``hint_filter`` lets the same
    engine measure post-ECDP PG usefulness (paper Figure 10, bottom).

    The L2 holds no per-block objects: each set is a dict whose insertion
    order is the LRU order (least recent first; a touch re-inserts at the
    end), as in the fast engine's ``FlatSetAssociativeCache``.  A block's
    value is the root PG of a prefetch not yet demanded, else None, so
    evicting the block drops its attribution with it.
    """

    def __init__(
        self,
        memory: SimulatedMemory,
        config: ProfilerConfig,
        hint_filter: Optional[Callable[[int, int], bool]] = None,
    ) -> None:
        self.memory = memory
        self.config = config
        self.hint_filter = hint_filter
        n_sets = _cache_geometry(config.l2_size, config.l2_ways, config.block_size)
        self._sets: List[dict] = [{} for _ in range(n_sets)]
        self._set_mask = n_sets - 1
        self._block_shift = config.block_size.bit_length() - 1
        self._block_mask = ~(config.block_size - 1)
        #: values agree in their top compare bits iff equal after this
        #: shift; None when every value matches (compare_bits <= 0)
        self._compare_shift = (
            ADDRESS_BITS - config.compare_bits if config.compare_bits > 0
            else None
        )
        self.profile = PointerGroupProfile()
        self.demand_misses = 0
        self.demand_accesses = 0

    def _scan_and_prefetch(
        self,
        block_addr: int,
        root: Optional[PGKey],
        depth: int,
        demand_pc: Optional[int],
        accessed_offset: int,
        budget: int,
    ) -> int:
        """Scan one fetched block; issue (and recursively chase) prefetches.

        ``root`` is None for demand fills — each candidate then roots its
        own PG chain.  For prefetch fills, candidates inherit ``root``.
        ``budget`` is the remaining per-demand-miss prefetch allowance;
        the allowance left after this block's chain is returned.
        """
        if depth > self.config.max_recursion_depth:
            return budget
        sets = self._sets
        set_mask = self._set_mask
        block_shift = self._block_shift
        block_mask = self._block_mask
        ways = self.config.l2_ways
        record_issue = self.profile.record_issue
        compare_shift = self._compare_shift
        if compare_shift is not None:
            block_high = block_addr >> compare_shift
        hint_filter = self.hint_filter if demand_pc is not None else None
        pending: List[Tuple[int, PGKey]] = []
        key = root
        offset = -accessed_offset - WORD_SIZE
        for value in self.memory.read_block_words(
            block_addr, self.config.block_size
        ):
            offset += WORD_SIZE
            if budget <= 0:
                break
            if value < NULL_REGION_END:
                continue
            if compare_shift is not None and value >> compare_shift != block_high:
                continue
            if root is None:
                key = (demand_pc or 0, offset)
                if hint_filter is not None and not hint_filter(demand_pc, offset):
                    continue
            target = value & block_mask
            if target == block_addr:
                continue
            cache_set = sets[(target >> block_shift) & set_mask]
            if target in cache_set:
                # Dropped at the L2 probe (paper Section 2.2): costs no
                # bandwidth, so it must not dilute the PG's usefulness.
                continue
            budget -= 1
            record_issue(key)
            if len(cache_set) >= ways:
                del cache_set[next(iter(cache_set))]  # LRU victim
            cache_set[target] = key
            pending.append((target, key))
        depth += 1
        if depth <= self.config.max_recursion_depth:
            for target, key in pending:
                budget = self._scan_and_prefetch(
                    target, key, depth, None, 0, budget
                )
        return budget

    def access(self, op: MemOp) -> None:
        """Feed one demand memory operation through the functional model."""
        self.demand_accesses += 1
        block_addr = op.addr & self._block_mask
        cache_set = self._sets[(block_addr >> self._block_shift) & self._set_mask]
        if block_addr in cache_set:
            root = cache_set.pop(block_addr)
            cache_set[block_addr] = None  # touched: now most recent, used
            if root is not None:
                self.profile.record_use(root)
            return
        self.demand_misses += 1
        if len(cache_set) >= self.config.l2_ways:
            del cache_set[next(iter(cache_set))]  # LRU victim
        cache_set[block_addr] = None
        if op.is_load:
            self._scan_and_prefetch(
                block_addr,
                root=None,
                depth=1,
                demand_pc=op.pc,
                accessed_offset=op.addr - block_addr,
                budget=self.config.chain_budget,
            )

    def run(self, trace: Iterable[MemOp]) -> PointerGroupProfile:
        access = self.access
        for op in trace:
            access(op)
        return self.profile


def profile_trace(
    memory: SimulatedMemory,
    trace: Iterable[MemOp],
    config: ProfilerConfig,
    hint_filter: Optional[Callable[[int, int], bool]] = None,
) -> PointerGroupProfile:
    """Convenience wrapper: run a full profiling pass over *trace*."""
    simulator = FunctionalCdpSimulator(memory, config, hint_filter)
    return simulator.run(trace)
