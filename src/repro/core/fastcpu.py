"""Fast-path simulation kernel: the ``engine="fast"`` core model.

:class:`FastCore` executes exactly the algorithm of
:class:`~repro.core.cpu.Core` — same event ordering, same arithmetic,
same feedback/throttling hooks — but restructured for speed:

* caches are :class:`~repro.cache.set_assoc.FlatSetAssociativeCache`
  instances (tag->slot dicts plus flat metadata arrays) instead of
  per-block :class:`~repro.cache.block.CacheBlock` objects;
* the per-op hot path (``step``) is one inlined function: no
  ``lookup``/``insert``/``_l2_hit_load`` call chain, no dataclass
  construction, no repeated ``block_address`` calls;
* per-op prefetcher observation dispatch is precomputed once
  (``_train_dispatch``) instead of re-resolving attribute chains per
  access;
* demand misses use :meth:`DramController.demand_access_fast`, the
  flattened form of the controller/bank/bus composition;
* prefetch issue (``_issue_block``) inlines the L2 presence check, the
  prefetch-queue admit and :meth:`DramController.prefetch_access_fast`,
  and CDP scans (``_cdp_scan``) read a filled block straight from the
  memory's word dict and issue each pointer as it is found, with no
  word list, candidate list or request objects in between.

The two engines must stay *bit-identical* on every CoreResult /
PrefetcherResult statistic, throttle trajectory, and cache/DRAM counter;
``tests/differential/`` enforces this over a (workload x mechanism x
throttling) matrix.  Any optimization that changes a number is a bug
here, never a tolerable drift.  The remaining cold paths (value hooks,
result assembly) are inherited from ``Core`` unchanged.

Telemetry contract: ``run`` binds ``feedback.record_use`` /
``record_demand_miss`` / ``record_eviction`` as locals once at entry, so
a :class:`~repro.telemetry.tracer.TracingFeedbackCollector` (chosen at
construction time when event tracing is on) binds transparently — and
``self.cycle`` / ``self.retired`` are flushed from the loop-local copies
before every ``record_*`` call site, so event timestamps are
bit-identical to the reference engine.  With telemetry disabled this hot
loop is byte-for-byte the pre-telemetry path.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Tuple

from repro.cache.set_assoc import FlatSetAssociativeCache
from repro.core.cpu import Core
from repro.core.instruction import MemOp
from repro.core.stats import CoreResult
from repro.memory.address import ADDRESS_BITS, NULL_REGION_END, WORD_SIZE
from repro.prefetch.base import PrefetchRequest
from repro.prefetch.cdp import CDP_LEVELS


class FastCore(Core):
    """Behavior-identical, flat-state reimplementation of ``Core``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cfg = self.config
        # hot-loop constants, hoisted out of the per-op path
        self._tag_mask = ~(cfg.block_size - 1)
        self._offset_mask = cfg.block_size - 1
        self._block_shift = cfg.block_size.bit_length() - 1
        self._l1_set_mask = self.l1.n_sets - 1
        self._l2_set_mask = self.l2.n_sets - 1
        self._l1_ways = cfg.l1_ways
        self._l2_ways = cfg.l2_ways
        self._l1_latency = cfg.l1_latency
        self._l2_latency = cfg.l2_latency
        self._l2_mshrs = cfg.l2_mshrs
        self._rob_size = cfg.rob_size
        self._train_on_stores = cfg.train_on_stores
        #: constant: the reference path recomputes this per late merge
        self._unloaded_latency = self.dram.unloaded_latency()
        #: precomputed per-op observation dispatch (paper's trained set)
        self._train_dispatch = tuple(
            (p.name, p.on_demand_access) for p in self._trained_prefetchers
        )
        #: skip the training call entirely when nothing is trained
        self._has_train = bool(self._train_dispatch)
        self._has_value_hooks = self.dbp is not None or bool(
            self.value_observers
        )
        self._cdp_name = self.cdp.name if self.cdp is not None else None
        if self.cdp is not None:
            #: CDP scans read the backing store's word dict directly
            self._words = self.memory.words
            self._word_offsets = tuple(range(0, cfg.block_size, WORD_SIZE))
            #: compare-bits predictor: a word is a pointer candidate when
            #: ``value >> shift == block_addr >> shift`` (a shift of the
            #: full address width matches everything, as compare_bits 0)
            self._compare_shift = ADDRESS_BITS - self.cdp.compare_bits
            self._cdp_target_mask = ~(self.cdp.block_size - 1)

    def _make_cache(self, size_bytes: int, ways: int, name: str):
        return FlatSetAssociativeCache(
            size_bytes, ways, self.config.block_size, name
        )

    # -- public driving interface -------------------------------------------

    def run(self, trace: Iterable[MemOp]) -> CoreResult:
        """Drive the whole trace through one localized loop.

        Per-op algorithm identical to :meth:`step`, but hot mutable
        state (cycle, retired instructions, load sequence, the
        completion map, cache hit/miss counters) lives in locals across
        ops and is flushed to ``self`` around every cold-path call, so
        the common case runs with no attribute traffic.  ``step``
        remains the one-op-at-a-time path (``MultiCoreSystem``
        interleaves cores through it).
        """
        # loop-invariant bindings
        l1 = self.l1
        l2 = self.l2
        l1_sets = l1._sets
        l2_sets = l2._sets
        l1_free = l1._free
        l1_dirty = l1.dirty
        l1_fill = l1.fill_time
        l1_owner = l1.owner
        l1_demand_pc = l1.demand_pc
        l1_ways = self._l1_ways
        l2_dirty = l2.dirty
        l2_owner = l2.owner
        l2_fill = l2.fill_time
        dram_writeback = self.dram.writeback
        dispatch_cost = self._dispatch_cost
        rob_size = self._rob_size
        tag_mask = self._tag_mask
        offset_mask = self._offset_mask
        shift = self._block_shift
        l1_set_mask = self._l1_set_mask
        l2_set_mask = self._l2_set_mask
        l1_latency = self._l1_latency
        l2_latency = self._l2_latency
        unloaded = self._unloaded_latency
        mshrs = self._l2_mshrs
        prune_at = self._completion_prune_at
        prune_keep = prune_at // 2
        train_on_stores = self._train_on_stores
        has_train = self._has_train
        has_value_hooks = self._has_value_hooks
        cdp = self.cdp
        cdp_name = self._cdp_name
        gendler = self.gendler
        pg_observer = self.pg_observer
        hw_filter = self.hw_filter
        oracle_pcs = self.oracle_pcs
        deferred = self._deferred
        outstanding = self._outstanding
        feedback = self.feedback
        record_use = feedback.record_use
        record_demand_miss = feedback.record_demand_miss
        demand_access = self.dram.demand_access_fast
        drain_deferred = self._drain_deferred
        fill_l2 = self._fill_l2
        fast_train = self._fast_train
        mshr_bound = self._mshr_bound
        cdp_scan = self._cdp_scan
        value_hooks = self._value_hooks

        # hot mutable state, flushed around cold calls and at the end
        cycle = self.cycle
        retired = self.retired
        seq = self._load_seq
        completions = self._completions
        l1_hits = l1.hits
        l1_misses = l1.misses
        l1_evictions = l1.evictions
        l2_hits = l2.hits
        l2_misses = l2.misses

        for op in trace:
            if deferred and deferred[0][0] <= cycle:
                self.cycle = cycle
                self.retired = retired
                drain_deferred()
            work = op.work + 1
            cycle += work * dispatch_cost
            retired += work
            if outstanding:
                # == Core._enforce_rob_span
                horizon = retired - rob_size
                while outstanding and outstanding[0][1] <= horizon:
                    completion = outstanding.popleft()[0]
                    if completion > cycle:
                        cycle = completion

            addr = op.addr
            tag = addr & tag_mask
            l1_set_index = (tag >> shift) & l1_set_mask
            l1_set = l1_sets[l1_set_index]

            if not op.is_load:
                # ---- store path (== Core._store) ------------------------
                slot = l1_set.get(tag)
                if slot is not None:
                    l1_hits += 1
                    l1_set[tag] = l1_set.pop(tag)  # LRU touch
                    l1_dirty[slot] = 1
                    continue
                l1_misses += 1
                l2_set = l2_sets[(tag >> shift) & l2_set_mask]
                slot = l2_set.get(tag)
                self.cycle = cycle
                self.retired = retired
                if slot is not None:
                    l2_hits += 1
                    l2_set[tag] = l2_set.pop(tag)
                    owner = l2_owner[slot]
                    if owner is not None:  # == CacheBlock.mark_used
                        l2_owner[slot] = None
                        record_use(owner, late=l2_fill[slot] > cycle)
                        if gendler is not None:
                            gendler.record_use(owner)
                        if owner == cdp_name and pg_observer is not None:
                            pg_observer.on_use(tag)
                    # == FastCore._fast_fill_l1 (dirty store fill)
                    if len(l1_set) >= l1_ways:
                        victim_tag = next(iter(l1_set))  # LRU victim
                        slot = l1_set.pop(victim_tag)
                        l1_evictions += 1
                        if l1_dirty[slot]:
                            victim_slot = l2_sets[
                                (victim_tag >> shift) & l2_set_mask
                            ].get(victim_tag)
                            if victim_slot is not None:
                                l2_dirty[victim_slot] = 1
                            else:
                                dram_writeback(cycle, victim_tag)
                                self.bus_transfers += 1
                    else:
                        slot = l1_free[l1_set_index].pop()
                    l1_fill[slot] = cycle
                    l1_owner[slot] = None
                    l1_dirty[slot] = 1
                    l1_demand_pc[slot] = 0
                    l1_set[tag] = slot
                    if train_on_stores and has_train:
                        fast_train(addr, op.pc, True)
                    continue
                l2_misses += 1
                record_demand_miss(tag)
                demand_access(cycle, tag)
                self.bus_transfers += 1
                fill_l2(tag, fill_time=cycle, demand_pc=op.pc)
                # == FastCore._fast_fill_l1 (dirty store fill)
                if len(l1_set) >= l1_ways:
                    victim_tag = next(iter(l1_set))  # LRU victim
                    slot = l1_set.pop(victim_tag)
                    l1_evictions += 1
                    if l1_dirty[slot]:
                        victim_slot = l2_sets[
                            (victim_tag >> shift) & l2_set_mask
                        ].get(victim_tag)
                        if victim_slot is not None:
                            l2_dirty[victim_slot] = 1
                        else:
                            dram_writeback(cycle, victim_tag)
                            self.bus_transfers += 1
                else:
                    slot = l1_free[l1_set_index].pop()
                l1_fill[slot] = cycle
                l1_owner[slot] = None
                l1_dirty[slot] = 1
                l1_demand_pc[slot] = 0
                l1_set[tag] = slot
                if train_on_stores and has_train:
                    fast_train(addr, op.pc, False)
                continue

            # ---- load path (== Core._load) ------------------------------
            load_seq = seq
            seq += 1
            dep = op.dep
            if dep < 0:
                ready = cycle
            else:  # == Core._ready_time
                ready = completions.get(dep, 0.0)
                if ready < cycle:
                    ready = cycle

            slot = l1_set.get(tag)
            if slot is not None:
                l1_hits += 1
                l1_set[tag] = l1_set.pop(tag)
                completion = ready + l1_latency
                completions[load_seq] = completion
                if len(completions) >= prune_at:
                    horizon = load_seq - prune_keep
                    completions = {
                        s: c for s, c in completions.items() if s > horizon
                    }
                    self._completions = completions
                if completion > cycle:
                    # == Core._push_outstanding
                    while outstanding and outstanding[0][0] <= cycle:
                        outstanding.popleft()
                    outstanding.append((completion, retired))
                    if len(outstanding) > mshrs:
                        self.cycle = cycle
                        mshr_bound()
                        cycle = self.cycle
                if has_value_hooks:
                    self.cycle = cycle
                    self.retired = retired
                    value_hooks(op, completion)
                continue

            l1_misses += 1
            l2_set = l2_sets[(tag >> shift) & l2_set_mask]
            slot = l2_set.get(tag)
            self.cycle = cycle
            self.retired = retired
            if slot is not None:
                # ---- L2 hit (== Core._l2_hit_load) ----------------------
                l2_hits += 1
                l2_set[tag] = l2_set.pop(tag)
                fill_time = l2_fill[slot]
                late = fill_time > ready
                if late:
                    data_ready = ready + unloaded
                    if fill_time < data_ready:
                        data_ready = fill_time
                    l2_fill[slot] = data_ready
                else:
                    data_ready = ready
                completion = data_ready + l2_latency
                owner = l2_owner[slot]
                if owner is not None:  # == CacheBlock.mark_used
                    l2_owner[slot] = None
                    record_use(owner, late=late)
                    if gendler is not None:
                        gendler.record_use(owner)
                    if owner == cdp_name:
                        if hw_filter is not None:
                            hw_filter.on_prefetch_used(tag)
                        if pg_observer is not None:
                            pg_observer.on_use(tag)
                # == FastCore._fast_fill_l1 (clean load fill)
                if len(l1_set) >= l1_ways:
                    victim_tag = next(iter(l1_set))  # LRU victim
                    slot = l1_set.pop(victim_tag)
                    l1_evictions += 1
                    if l1_dirty[slot]:
                        victim_slot = l2_sets[
                            (victim_tag >> shift) & l2_set_mask
                        ].get(victim_tag)
                        if victim_slot is not None:
                            l2_dirty[victim_slot] = 1
                        else:
                            dram_writeback(cycle, victim_tag)
                            self.bus_transfers += 1
                else:
                    slot = l1_free[l1_set_index].pop()
                l1_fill[slot] = cycle
                l1_owner[slot] = None
                l1_dirty[slot] = 0
                l1_demand_pc[slot] = 0
                l1_set[tag] = slot
                while outstanding and outstanding[0][0] <= cycle:
                    outstanding.popleft()
                outstanding.append((completion, retired))
                if len(outstanding) > mshrs:
                    mshr_bound()
                    cycle = self.cycle
                if has_train:
                    fast_train(addr, op.pc, True)
            else:
                # ---- L2 miss (== Core._l2_miss_load) --------------------
                l2_misses += 1
                record_demand_miss(tag)
                if op.pc in oracle_pcs:
                    completion = ready + l2_latency
                    fill_l2(tag, fill_time=ready, demand_pc=op.pc)
                else:
                    arrival = demand_access(ready, tag)
                    self.bus_transfers += 1
                    completion = arrival + l2_latency
                    fill_l2(tag, fill_time=arrival, demand_pc=op.pc)
                    if cdp is not None and (
                        gendler is None or gendler.is_enabled(cdp_name)
                    ):
                        cdp_scan(tag, 1, op.pc, addr & offset_mask, ready)
                # == FastCore._fast_fill_l1 (clean load fill)
                if len(l1_set) >= l1_ways:
                    victim_tag = next(iter(l1_set))  # LRU victim
                    slot = l1_set.pop(victim_tag)
                    l1_evictions += 1
                    if l1_dirty[slot]:
                        victim_slot = l2_sets[
                            (victim_tag >> shift) & l2_set_mask
                        ].get(victim_tag)
                        if victim_slot is not None:
                            l2_dirty[victim_slot] = 1
                        else:
                            dram_writeback(cycle, victim_tag)
                            self.bus_transfers += 1
                else:
                    slot = l1_free[l1_set_index].pop()
                l1_fill[slot] = cycle
                l1_owner[slot] = None
                l1_dirty[slot] = 0
                l1_demand_pc[slot] = 0
                l1_set[tag] = slot
                while outstanding and outstanding[0][0] <= cycle:
                    outstanding.popleft()
                outstanding.append((completion, retired))
                if len(outstanding) > mshrs:
                    mshr_bound()
                    cycle = self.cycle
                if has_train:
                    fast_train(addr, op.pc, False)

            completions[load_seq] = completion
            if len(completions) >= prune_at:
                horizon = load_seq - prune_keep
                completions = {
                    s: c for s, c in completions.items() if s > horizon
                }
                self._completions = completions
            if has_value_hooks:
                value_hooks(op, completion)

        self.cycle = cycle
        self.retired = retired
        self._load_seq = seq
        self._completions = completions
        l1.hits = l1_hits
        l1.misses = l1_misses
        l1.evictions = l1_evictions
        l2.hits = l2_hits
        l2.misses = l2_misses
        return self.finish()

    def step(self, op: MemOp) -> None:  # noqa: C901 - deliberately inlined
        """One memory op; semantically identical to ``Core.step``."""
        deferred = self._deferred
        if deferred and deferred[0][0] <= self.cycle:
            self._drain_deferred()
        work = op.work + 1
        cycle = self.cycle + work * self._dispatch_cost
        retired = self.retired + work
        self.retired = retired
        outstanding = self._outstanding
        if outstanding:
            # == Core._enforce_rob_span
            horizon = retired - self._rob_size
            while outstanding and outstanding[0][1] <= horizon:
                completion = outstanding.popleft()[0]
                if completion > cycle:
                    cycle = completion
        self.cycle = cycle

        addr = op.addr
        tag = addr & self._tag_mask
        shift = self._block_shift
        l1 = self.l1
        l1_set_index = (tag >> shift) & self._l1_set_mask
        l1_set = l1._sets[l1_set_index]

        if not op.is_load:
            # ---- store path (== Core._store) ----------------------------
            slot = l1_set.get(tag)
            if slot is not None:
                l1.hits += 1
                l1_set[tag] = l1_set.pop(tag)  # LRU touch
                l1.dirty[slot] = 1
                return
            l1.misses += 1
            l2 = self.l2
            l2_set = l2._sets[(tag >> shift) & self._l2_set_mask]
            slot = l2_set.get(tag)
            if slot is not None:
                l2.hits += 1
                l2_set[tag] = l2_set.pop(tag)
                owner_arr = l2.owner
                owner = owner_arr[slot]
                if owner is not None:  # == CacheBlock.mark_used
                    owner_arr[slot] = None
                    self.feedback.record_use(
                        owner, late=l2.fill_time[slot] > cycle
                    )
                    gendler = self.gendler
                    if gendler is not None:
                        gendler.record_use(owner)
                    if owner == self._cdp_name and self.pg_observer is not None:
                        self.pg_observer.on_use(tag)
                self._fast_fill_l1(tag, l1_set_index, 1)
                if self._train_on_stores and self._has_train:
                    self._fast_train(addr, op.pc, True)
                return
            l2.misses += 1
            self.feedback.record_demand_miss(tag)
            self.dram.demand_access_fast(cycle, tag)
            self.bus_transfers += 1
            self._fill_l2(tag, fill_time=cycle, demand_pc=op.pc)
            self._fast_fill_l1(tag, l1_set_index, 1)
            if self._train_on_stores and self._has_train:
                self._fast_train(addr, op.pc, False)
            return

        # ---- load path (== Core._load) ----------------------------------
        seq = self._load_seq
        self._load_seq = seq + 1
        dep = op.dep
        if dep < 0:
            ready = cycle
        else:  # == Core._ready_time: max(cycle, completion of producer)
            ready = self._completions.get(dep, 0.0)
            if ready < cycle:
                ready = cycle

        slot = l1_set.get(tag)
        if slot is not None:
            l1.hits += 1
            l1_set[tag] = l1_set.pop(tag)
            completion = ready + self._l1_latency
            completions = self._completions
            completions[seq] = completion
            if len(completions) >= self._completion_prune_at:
                horizon = seq - self._completion_prune_at // 2
                self._completions = {
                    s: c for s, c in completions.items() if s > horizon
                }
            if completion > cycle:
                # == Core._push_outstanding (MSHR overflow out of line)
                while outstanding and outstanding[0][0] <= cycle:
                    outstanding.popleft()
                outstanding.append((completion, retired))
                if len(outstanding) > self._l2_mshrs:
                    self._mshr_bound()
            if self._has_value_hooks:
                self._value_hooks(op, completion)
            return

        l1.misses += 1
        l2 = self.l2
        l2_set = l2._sets[(tag >> shift) & self._l2_set_mask]
        slot = l2_set.get(tag)
        if slot is not None:
            # ---- L2 hit (== Core._l2_hit_load) --------------------------
            l2.hits += 1
            l2_set[tag] = l2_set.pop(tag)
            fill_arr = l2.fill_time
            fill_time = fill_arr[slot]
            late = fill_time > ready
            if late:
                # demand merge with the in-flight fill, promoted to
                # demand priority (bounded by a fresh demand fetch)
                data_ready = ready + self._unloaded_latency
                if fill_time < data_ready:
                    data_ready = fill_time
                fill_arr[slot] = data_ready
            else:
                data_ready = ready
            completion = data_ready + self._l2_latency
            owner_arr = l2.owner
            owner = owner_arr[slot]
            if owner is not None:  # == CacheBlock.mark_used
                owner_arr[slot] = None
                self.feedback.record_use(owner, late=late)
                gendler = self.gendler
                if gendler is not None:
                    gendler.record_use(owner)
                if owner == self._cdp_name:
                    if self.hw_filter is not None:
                        self.hw_filter.on_prefetch_used(tag)
                    if self.pg_observer is not None:
                        self.pg_observer.on_use(tag)
            self._fast_fill_l1(tag, l1_set_index, 0)
            while outstanding and outstanding[0][0] <= cycle:
                outstanding.popleft()
            outstanding.append((completion, retired))
            if len(outstanding) > self._l2_mshrs:
                self._mshr_bound()
            if self._has_train:
                self._fast_train(addr, op.pc, True)
        else:
            # ---- L2 miss (== Core._l2_miss_load) ------------------------
            l2.misses += 1
            self.feedback.record_demand_miss(tag)
            if op.pc in self.oracle_pcs:
                # ideal-LDS oracle: the miss becomes a hit
                completion = ready + self._l2_latency
                self._fill_l2(tag, fill_time=ready, demand_pc=op.pc)
            else:
                arrival = self.dram.demand_access_fast(ready, tag)
                self.bus_transfers += 1
                completion = arrival + self._l2_latency
                self._fill_l2(tag, fill_time=arrival, demand_pc=op.pc)
                if self.cdp is not None and self._prefetcher_enabled(
                    self._cdp_name
                ):
                    self._cdp_scan(
                        tag, 1, op.pc, addr & self._offset_mask, ready
                    )
            self._fast_fill_l1(tag, l1_set_index, 0)
            while outstanding and outstanding[0][0] <= cycle:
                outstanding.popleft()
            outstanding.append((completion, retired))
            if len(outstanding) > self._l2_mshrs:
                self._mshr_bound()
            if self._has_train:
                self._fast_train(addr, op.pc, False)

        completions = self._completions
        completions[seq] = completion
        if len(completions) >= self._completion_prune_at:
            horizon = seq - self._completion_prune_at // 2
            self._completions = {
                s: c for s, c in completions.items() if s > horizon
            }
        if self._has_value_hooks:
            self._value_hooks(op, completion)

    # -- fills (flat-state forms of Core._fill_l1 / Core._fill_l2) ----------

    def _fast_fill_l1(self, tag: int, set_index: int, dirty: int) -> None:
        l1 = self.l1
        l1_set = l1._sets[set_index]
        if len(l1_set) >= self._l1_ways:
            victim_tag = next(iter(l1_set))  # LRU victim
            slot = l1_set.pop(victim_tag)
            l1.evictions += 1
            if l1.dirty[slot]:
                # write-back to L2: update the L2 copy if still resident;
                # otherwise the dirty data goes all the way to memory
                l2 = self.l2
                victim_slot = l2._sets[
                    (victim_tag >> self._block_shift) & self._l2_set_mask
                ].get(victim_tag)
                if victim_slot is not None:
                    l2.dirty[victim_slot] = 1
                else:
                    self.dram.writeback(self.cycle, victim_tag)
                    self.bus_transfers += 1
        else:
            slot = l1._free[set_index].pop()
        l1.fill_time[slot] = self.cycle
        l1.owner[slot] = None
        l1.dirty[slot] = dirty
        l1.demand_pc[slot] = 0
        l1_set[tag] = slot

    def _fill_l2(
        self,
        block_addr: int,
        fill_time: float,
        prefetch_owner=None,
        demand_pc: int = 0,
    ) -> None:
        l2 = self.l2
        set_index = (block_addr >> self._block_shift) & self._l2_set_mask
        cache_set = l2._sets[set_index]
        slot = cache_set.get(block_addr)
        if slot is not None:
            # a fill racing a fill refreshes in place, evicts nothing
            cache_set[block_addr] = cache_set.pop(block_addr)
            return
        if len(cache_set) >= self._l2_ways:
            victim_tag = next(iter(cache_set))  # LRU victim
            slot = cache_set.pop(victim_tag)
            l2.evictions += 1
            victim_owner = l2.owner[slot]
            victim_dirty = l2.dirty[slot]
            self.feedback.record_eviction(
                victim_tag,
                by_prefetch=prefetch_owner is not None,
                victim_was_demand=victim_owner is None,
            )
            if victim_owner is not None and victim_owner == self._cdp_name:
                if self.hw_filter is not None:
                    self.hw_filter.on_prefetch_evicted_unused(victim_tag)
                if self.pg_observer is not None:
                    self.pg_observer.on_evict(victim_tag)
            if victim_dirty:
                self.dram.writeback(self.cycle, victim_tag)
                self.bus_transfers += 1
        else:
            slot = l2._free[set_index].pop()
        l2.fill_time[slot] = fill_time
        l2.owner[slot] = prefetch_owner
        l2.dirty[slot] = 0
        l2.demand_pc[slot] = demand_pc
        if prefetch_owner is not None:
            l2.prefetch_fills += 1
        cache_set[block_addr] = slot

    # -- prefetcher training (== Core._train_prefetchers) -------------------

    def _fast_train(self, addr: int, pc: int, l2_hit: bool) -> None:
        cycle = self.cycle
        gendler = self.gendler
        issue = self._issue_prefetch
        for name, observe in self._train_dispatch:
            requests = observe(cycle, addr, pc, l2_hit)
            if requests and (gendler is None or gendler.is_enabled(name)):
                for request in requests:
                    issue(request, cycle)

    # -- prefetch issue and CDP scans (== Core._issue_prefetch et al.) -----

    def _issue_prefetch(
        self,
        request: PrefetchRequest,
        now: float,
        parent_addr: Optional[int] = None,
    ) -> None:
        """Issue a prefetcher's request (trained and value-hook
        prefetchers build ``PrefetchRequest`` objects)."""
        self._issue_block(
            request.block_addr,
            request.owner,
            now,
            request.depth,
            request.root,
            parent_addr,
        )

    def _issue_block(
        self,
        block_addr: int,
        owner: str,
        now: float,
        depth: int = 1,
        root: Optional[Tuple[int, int]] = None,
        parent_addr: Optional[int] = None,
    ) -> None:
        """Issue one prefetch: ``Core._issue_prefetch`` without the
        ``PrefetchRequest``, with the L2 probe, the prefetch-queue admit
        and the DRAM access inlined."""
        is_cdp = owner == self._cdp_name
        if is_cdp:
            hw_filter = self.hw_filter
            if hw_filter is not None and not hw_filter.allows(block_addr):
                return
        # == l2.contains: an L2 hit needs no memory request
        tag = block_addr & self._tag_mask
        if tag in self.l2._sets[(tag >> self._block_shift) & self._l2_set_mask]:
            return
        # == PrefetchQueue.try_admit
        pf_queue = self.pf_queue
        pf_heap = pf_queue._in_flight
        while pf_heap and pf_heap[0] <= now:
            heapq.heappop(pf_heap)
        if len(pf_heap) >= pf_queue.capacity:
            pf_queue.dropped += 1
            return
        completion = self.dram.prefetch_access_fast(now, block_addr)
        if completion is None:
            return  # dropped: memory request buffer full
        heapq.heappush(pf_heap, completion)  # == PrefetchQueue.commit
        self.bus_transfers += 1
        self.feedback.record_issue(owner)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(now, "prefetch", owner, block_addr, completion - now)
        gendler = self.gendler
        if gendler is not None:
            gendler.record_issue(owner)
        if is_cdp and self.pg_observer is not None:
            self.pg_observer.on_issue(block_addr, root, parent_addr)
        self._fill_l2(block_addr, fill_time=completion, prefetch_owner=owner)
        if is_cdp and depth < CDP_LEVELS[-1]:
            self._seq += 1
            heapq.heappush(
                self._deferred, (completion, self._seq, block_addr, depth)
            )

    def _cdp_scan(
        self,
        block_addr: int,
        depth: int,
        demand_pc: Optional[int],
        accessed_offset: int,
        now: float,
        parent_addr: Optional[int] = None,
    ) -> None:
        """``ContentDirectedPrefetcher.scan_fill`` fused with the loop that
        issues its requests.

        Each pointer is issued as soon as it is found instead of after
        the whole block is scanned.  That is the same sequence of issues:
        which words are pointers, and which the hint filter keeps, depend
        only on memory contents and the static hint filter, and the
        recursion-depth check reads the level once, before any issue.
        The prefetcher's scan counters advance exactly as in
        ``scan_fill``.
        """
        cdp = self.cdp
        if depth > cdp.max_recursion_depth:
            return
        cdp.scanned_blocks += 1
        words = self._words
        shift = self._compare_shift
        high = block_addr >> shift
        target_mask = self._cdp_target_mask
        hint_filter = cdp.hint_filter if demand_pc is not None else None
        owner = self._cdp_name
        issue = self._issue_block
        seen_targets = set()
        for offset in self._word_offsets:
            value = words.get(block_addr + offset, 0)
            if value < NULL_REGION_END or value >> shift != high:
                continue  # NULL page, or fails the compare-bits predictor
            cdp.candidates_seen += 1
            byte_delta = offset - accessed_offset
            if hint_filter is not None and not hint_filter(
                demand_pc, byte_delta
            ):
                cdp.candidates_filtered += 1
                continue
            target = value & target_mask
            if target == block_addr or target in seen_targets:
                continue  # self-links and duplicate targets add nothing
            seen_targets.add(target)
            issue(
                target,
                owner,
                now,
                depth,
                (demand_pc, byte_delta) if demand_pc is not None else None,
                parent_addr,
            )

    def _drain_deferred(self) -> None:
        """Scan CDP-prefetched blocks whose fills have now arrived."""
        deferred = self._deferred
        cdp_name = self._cdp_name
        while deferred and deferred[0][0] <= self.cycle:
            when, __, block_addr, depth = heapq.heappop(deferred)
            if cdp_name is None or not self._prefetcher_enabled(cdp_name):
                continue
            self._cdp_scan(block_addr, depth + 1, None, 0, when, block_addr)

    def _mshr_bound(self) -> None:
        # rare: enforce the L2 MSHR cap (tail of Core._push_outstanding)
        outstanding = self._outstanding
        cycle = self.cycle
        mshrs = self._l2_mshrs
        while len(outstanding) > mshrs:
            head_completion = outstanding.popleft()[0]
            if head_completion > cycle:
                cycle = head_completion
                while outstanding and outstanding[0][0] <= cycle:
                    outstanding.popleft()
        self.cycle = cycle
