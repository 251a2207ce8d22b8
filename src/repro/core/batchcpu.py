"""Vectorized batch engine: the ``engine="batch"`` core model.

:class:`BatchCore` executes exactly the algorithm of
:class:`~repro.core.cpu.Core` — same event ordering, same arithmetic,
same feedback/throttling hooks — but consumes the trace as columns
(:class:`~repro.core.tracefile.TraceArrays`) instead of one
:class:`~repro.core.instruction.MemOp` object at a time:

* the whole trace is decoded into flat numpy arrays up front (or
  arrives pre-decoded from :func:`~repro.core.tracefile.
  load_trace_arrays`);
* per-op derived values — block tag, L1 set index, dispatch-cycle cost —
  are computed *vectorized* per chunk (``chunk_ops`` ops at a time) and
  handed to the scalar loop as plain Python lists via a lazy ``zip``,
  so the hot loop never touches an object attribute or a numpy scalar;
* consecutive ops touching the same block (``tag == prev_tag``) skip
  the L1 dict probe entirely: the previous op left that block resident
  at MRU, so a hit is guaranteed and the LRU touch is the identity;
* for the raw-kernel configuration (no prefetchers, no tracer) the
  loop runs a *specialized kernel* with the DRAM controller, bus,
  writeback, cache-fill and feedback-counter paths fully inlined over
  loop-local state; simulation drops back to object-level code only at
  the scalar-fallback points: feedback-interval boundaries (where the
  Table 3 controller and the telemetry recorder fire against fully
  flushed state) and end of run.

Bit-identity invariants the kernel relies on (each enforced or gated):

* same-tag-as-previous implies a guaranteed L1 hit at MRU — no dict
  operations are observable;
* the load-completion map can be a flat ``array('d')`` instead of the
  pruned dict **iff** ``rob_size <= 4096`` (half the prune threshold):
  any dependence older than that has been forced below ``cycle`` by
  ROB-span enforcement, so the pruned dict's 0.0 default and the
  array's true value produce the same ``max(cycle, ...)``.  Larger ROBs
  fall back to the general loop;
* with no prefetchers the pollution filter can never have a bit set
  (only prefetch-caused evictions set bits), so the demand-miss filter
  probe is dropped;
* numpy float64 arithmetic on the precomputed dispatch costs is
  IEEE-identical to the Python-float arithmetic of the other engines.

Everything not specialized (mechanisms with prefetchers, event tracing,
oracle LDS, huge ROBs) runs the *general* loop — a mechanical port of
:meth:`FastCore.run` over the same column zip, preserving every
telemetry flush point — so ``engine="batch"`` accepts every
configuration the other engines do.  ``tests/differential/`` enforces
bit-identical results across all three engines; any drift is a bug,
never a tolerable difference.  ``step()`` is inherited from
:class:`FastCore`, so ``MultiCoreSystem`` interleaving works unchanged.
"""

from __future__ import annotations

from array import array
from collections import deque
from heapq import heappop, heappush
from typing import Iterable, Union

import numpy as np

from repro.core.fastcpu import FastCore
from repro.core.instruction import MemOp
from repro.core.stats import CoreResult
from repro.core.tracefile import TraceArrays
from repro.throttle.feedback import FeedbackCollector


class BatchCore(FastCore):
    """Columnar-trace, behavior-identical reimplementation of ``Core``."""

    #: ops decoded (numpy -> Python lists) per segment; results are
    #: invariant to this value (hypothesis-tested), it only bounds the
    #: peak size of the per-chunk column lists
    DEFAULT_CHUNK_OPS = 1 << 16

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.chunk_ops = self.DEFAULT_CHUNK_OPS

    # -- public driving interface -------------------------------------------

    def run(self, trace: Union[TraceArrays, Iterable[MemOp]]) -> CoreResult:
        """Decode the whole trace to columns, then simulate it.

        Accepts a pre-decoded :class:`TraceArrays` (the zero-decode path
        the kernel benchmark times) or any MemOp iterable (decoded here).
        """
        arrays = (
            trace
            if isinstance(trace, TraceArrays)
            else TraceArrays.from_ops(trace)
        )
        if len(arrays):
            if self._kernel_eligible():
                # all-load traces with a fresh machine take the even
                # leaner loads-only loop; its cached ROB-trigger
                # sentinel is stale for one op after a push into an
                # empty MSHR queue, which is harmless iff no single op
                # can retire a whole ROB span (max(work)+1 < rob_size)
                if (
                    bool(arrays.is_load.all())
                    and not self.dram._in_flight
                    and not self._outstanding
                    and int(arrays.work.max()) + 1 < self._rob_size
                ):
                    self._run_kernel_loads(arrays)
                else:
                    self._run_kernel(arrays)
            else:
                self._run_general(arrays)
        return self.finish()

    def _kernel_eligible(self) -> bool:
        """Can the fully inlined kernel loop run this configuration?

        Requires the raw-kernel machine (no trained prefetchers, no CDP,
        no value hooks, no selector/filter/profiling observers, no
        oracle) with the *plain* feedback collector (event tracing swaps
        in a subclass and must see every record call), a ROB small
        enough for the flat completion array to be equivalent to the
        pruned dict, and a fresh core (no prior stepped state).
        """
        return (
            type(self.feedback) is FeedbackCollector
            and not self._has_train
            and self.cdp is None
            and not self._has_value_hooks
            and self.gendler is None
            and self.hw_filter is None
            and self.pg_observer is None
            and not self.oracle_pcs
            and self._rob_size <= self._completion_prune_at // 2
            and self._load_seq == 0
            and not self._completions
        )

    # -- the specialized kernel loop ----------------------------------------

    def _run_kernel(self, arrays: TraceArrays) -> None:  # noqa: C901
        """Raw-kernel hot loop: everything inlined, locals everywhere.

        All mutable machine state (cycle, counters, DRAM/bus cursors,
        feedback tallies) lives in locals; it is flushed back to the
        objects only at feedback-interval boundaries — right before the
        real ``record_eviction`` fires the controller/telemetry hooks —
        and at end of run.  Between those scalar-fallback points the
        loop performs no attribute stores at all.
        """
        n = len(arrays)
        # -- loop-invariant bindings
        l1 = self.l1
        l2 = self.l2
        l1_sets = l1._sets
        l2_sets = l2._sets
        l1_free = l1._free
        l2_free = l2._free
        l1_dirty = l1.dirty
        l2_dirty = l2.dirty
        l1_fill = l1.fill_time
        l2_fill = l2.fill_time
        l1_owner = l1.owner
        l2_owner = l2.owner
        l1_demand_pc = l1.demand_pc
        l2_demand_pc = l2.demand_pc
        l1_ways = self._l1_ways
        l2_ways = self._l2_ways
        rob_size = self._rob_size
        shift = self._block_shift
        l2_set_mask = self._l2_set_mask
        l1_latency = self._l1_latency
        l2_latency = self._l2_latency
        unloaded = self._unloaded_latency
        mshrs = self._l2_mshrs
        outstanding = self._outstanding
        feedback = self.feedback
        record_eviction = feedback.record_eviction
        interval_evictions = feedback.interval_evictions
        total_misses = feedback.total_misses
        dram = self.dram
        dstats = dram.stats
        heap = dram._in_flight
        buffer_size = dram.request_buffer_size
        ctrl_overhead = dram.controller_overhead
        banks = dram.banks
        busy_until = banks._busy_until
        n_banks = banks.n_banks
        bank_occ = banks.occupancy_cycles
        bus = dram.bus
        xfer = dram._block_transfer_cycles

        # -- flat completion map (valid because rob_size <= prune_at/2)
        completions = array("d", bytes(8 * n))

        # -- hot mutable state, flushed at interval boundaries + the end
        cycle = self.cycle
        retired = self.retired
        seq = self._load_seq
        l1_hits = l1.hits
        l1_misses = l1.misses
        l1_evictions = l1.evictions
        l2_hits = l2.hits
        l2_misses = l2.misses
        l2_evictions = l2.evictions
        bus_transfers = self.bus_transfers
        misses_during = total_misses.during
        lifetime_misses = feedback.lifetime_misses
        ev_count = feedback._evictions_this_interval
        demand_requests = dstats.demand_requests
        total_demand_latency = dstats.total_demand_latency
        buffer_stalls = dstats.buffer_full_stalls
        wb_count = dstats.writebacks
        conflicts = banks.conflicts
        demand_busy = bus._demand_busy_until
        any_busy = bus._any_busy_until
        bus_xfers = bus.transfers
        prev_tag = -1
        prev_slot = -1

        # -- columnar input (int64/float64; see module docstring)
        addr_col = arrays.addr
        work_col = arrays.work
        tag_mask = self._tag_mask
        l1_set_mask = self._l1_set_mask
        dispatch_cost = self._dispatch_cost
        # forward/out-of-range deps read 0.0 from the zero-initialized
        # array, exactly the pruned dict's .get default — clamp only
        # indices past the array
        dep_col = np.where(arrays.dep >= n, np.int64(-1), arrays.dep)
        chunk = max(1, int(self.chunk_ops))

        for begin in range(0, n, chunk):
            stop = begin + chunk
            tag_np = addr_col[begin:stop] & tag_mask
            w1_np = work_col[begin:stop] + 1
            for tag, si1, pc, w1, wc, is_load, d in zip(
                tag_np.tolist(),
                ((tag_np >> shift) & l1_set_mask).tolist(),
                arrays.pc[begin:stop].tolist(),
                w1_np.tolist(),
                (w1_np * dispatch_cost).tolist(),
                arrays.is_load[begin:stop].tolist(),
                dep_col[begin:stop].tolist(),
            ):
                cycle += wc
                retired += w1
                if outstanding:
                    # == Core._enforce_rob_span
                    horizon = retired - rob_size
                    while outstanding and outstanding[0][1] <= horizon:
                        completion = outstanding.popleft()[0]
                        if completion > cycle:
                            cycle = completion

                if is_load:
                    # ---- load path (== Core._load) ----------------------
                    load_seq = seq
                    seq += 1
                    if d < 0:
                        ready = cycle
                    else:  # == Core._ready_time
                        ready = completions[d]
                        if ready < cycle:
                            ready = cycle

                    if tag == prev_tag:
                        # previous op left this block resident at MRU:
                        # guaranteed hit, LRU touch is the identity
                        l1_hits += 1
                        completion = ready + l1_latency
                        completions[load_seq] = completion
                        if completion > cycle:
                            # == Core._push_outstanding
                            while outstanding and outstanding[0][0] <= cycle:
                                outstanding.popleft()
                            outstanding.append((completion, retired))
                            if len(outstanding) > mshrs:
                                # == FastCore._mshr_bound
                                while len(outstanding) > mshrs:
                                    head = outstanding.popleft()[0]
                                    if head > cycle:
                                        cycle = head
                                        while (
                                            outstanding
                                            and outstanding[0][0] <= cycle
                                        ):
                                            outstanding.popleft()
                        continue

                    l1_set = l1_sets[si1]
                    slot = l1_set.get(tag)
                    if slot is not None:
                        l1_hits += 1
                        l1_set[tag] = l1_set.pop(tag)  # LRU touch
                        prev_tag = tag
                        prev_slot = slot
                        completion = ready + l1_latency
                        completions[load_seq] = completion
                        if completion > cycle:
                            while outstanding and outstanding[0][0] <= cycle:
                                outstanding.popleft()
                            outstanding.append((completion, retired))
                            if len(outstanding) > mshrs:
                                while len(outstanding) > mshrs:
                                    head = outstanding.popleft()[0]
                                    if head > cycle:
                                        cycle = head
                                        while (
                                            outstanding
                                            and outstanding[0][0] <= cycle
                                        ):
                                            outstanding.popleft()
                        continue

                    l1_misses += 1
                    si2 = (tag >> shift) & l2_set_mask
                    l2_set = l2_sets[si2]
                    slot = l2_set.get(tag)
                    if slot is not None:
                        # ---- L2 hit (== Core._l2_hit_load) --------------
                        l2_hits += 1
                        l2_set[tag] = l2_set.pop(tag)
                        fill_time = l2_fill[slot]
                        if fill_time > ready:
                            # late merge, promoted to demand priority
                            data_ready = ready + unloaded
                            if fill_time < data_ready:
                                data_ready = fill_time
                            l2_fill[slot] = data_ready
                        else:
                            data_ready = ready
                        completion = data_ready + l2_latency
                        # owner is always None here: no prefetchers
                    else:
                        # ---- L2 miss (== Core._l2_miss_load) ------------
                        l2_misses += 1
                        # record_demand_miss: the pollution filter can
                        # have no bits set without prefetchers
                        misses_during += 1
                        lifetime_misses += 1
                        # demand_access_fast inlined
                        start = ready
                        while True:
                            while heap and heap[0] <= start:
                                heappop(heap)
                            if len(heap) < buffer_size:
                                break
                            buffer_stalls += 1
                            start = heap[0]
                        bank_ready = start + ctrl_overhead
                        bank = (tag >> shift) % n_banks
                        bank_start = busy_until[bank]
                        if bank_start > bank_ready:
                            conflicts += 1
                        else:
                            bank_start = bank_ready
                        bank_done = bank_start + bank_occ
                        busy_until[bank] = bank_done
                        if demand_busy < bank_done:
                            arrival = bank_done + xfer
                        else:
                            arrival = demand_busy + xfer
                        demand_busy = arrival
                        if any_busy < arrival:
                            any_busy = arrival
                        bus_xfers += 1
                        heappush(heap, arrival)
                        demand_requests += 1
                        total_demand_latency += arrival - ready
                        bus_transfers += 1
                        completion = arrival + l2_latency
                        # _fill_l2 inlined (tag just missed: no refresh)
                        if len(l2_set) >= l2_ways:
                            victim_tag = next(iter(l2_set))  # LRU victim
                            vslot = l2_set.pop(victim_tag)
                            l2_evictions += 1
                            vdirty = l2_dirty[vslot]
                            ev_count += 1
                            if ev_count >= interval_evictions:
                                # interval boundary: sync everything,
                                # let the real collector roll and fire
                                # the controller/telemetry hooks
                                self.cycle = cycle
                                self.retired = retired
                                self._load_seq = seq
                                l1.hits = l1_hits
                                l1.misses = l1_misses
                                l1.evictions = l1_evictions
                                l2.hits = l2_hits
                                l2.misses = l2_misses
                                l2.evictions = l2_evictions
                                self.bus_transfers = bus_transfers
                                total_misses.during = misses_during
                                feedback.lifetime_misses = lifetime_misses
                                feedback._evictions_this_interval = (
                                    ev_count - 1
                                )
                                dstats.demand_requests = demand_requests
                                dstats.total_demand_latency = (
                                    total_demand_latency
                                )
                                dstats.buffer_full_stalls = buffer_stalls
                                dstats.writebacks = wb_count
                                banks.conflicts = conflicts
                                bus._demand_busy_until = demand_busy
                                bus._any_busy_until = any_busy
                                bus.transfers = bus_xfers
                                record_eviction(
                                    victim_tag,
                                    False,
                                    l2_owner[vslot] is None,
                                )
                                misses_during = total_misses.during
                                lifetime_misses = feedback.lifetime_misses
                                ev_count = (
                                    feedback._evictions_this_interval
                                )
                            if vdirty:
                                # dram.writeback inlined (non-demand bus)
                                wb_count += 1
                                if any_busy > cycle:
                                    any_busy += xfer
                                else:
                                    any_busy = cycle + xfer
                                bus_xfers += 1
                                bus_transfers += 1
                            slot = vslot
                        else:
                            slot = l2_free[si2].pop()
                        l2_fill[slot] = arrival
                        l2_owner[slot] = None
                        l2_dirty[slot] = 0
                        l2_demand_pc[slot] = pc
                        l2_set[tag] = slot

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
                                wb_count += 1
                                if any_busy > cycle:
                                    any_busy += xfer
                                else:
                                    any_busy = cycle + xfer
                                bus_xfers += 1
                                bus_transfers += 1
                    else:
                        slot = l1_free[si1].pop()
                    l1_fill[slot] = cycle
                    l1_owner[slot] = None
                    l1_dirty[slot] = 0
                    l1_demand_pc[slot] = 0
                    l1_set[tag] = slot
                    prev_tag = tag
                    prev_slot = slot
                    while outstanding and outstanding[0][0] <= cycle:
                        outstanding.popleft()
                    outstanding.append((completion, retired))
                    if len(outstanding) > mshrs:
                        while len(outstanding) > mshrs:
                            head = outstanding.popleft()[0]
                            if head > cycle:
                                cycle = head
                                while (
                                    outstanding
                                    and outstanding[0][0] <= cycle
                                ):
                                    outstanding.popleft()
                    completions[load_seq] = completion
                    continue

                # ---- store path (== Core._store) ------------------------
                if tag == prev_tag:
                    l1_hits += 1
                    l1_dirty[prev_slot] = 1
                    continue
                l1_set = l1_sets[si1]
                slot = l1_set.get(tag)
                if slot is not None:
                    l1_hits += 1
                    l1_set[tag] = l1_set.pop(tag)  # LRU touch
                    l1_dirty[slot] = 1
                    prev_tag = tag
                    prev_slot = slot
                    continue
                l1_misses += 1
                si2 = (tag >> shift) & l2_set_mask
                l2_set = l2_sets[si2]
                slot = l2_set.get(tag)
                if slot is not None:
                    l2_hits += 1
                    l2_set[tag] = l2_set.pop(tag)
                    # owner is always None here: no prefetchers
                else:
                    l2_misses += 1
                    misses_during += 1
                    lifetime_misses += 1
                    # demand_access_fast inlined (stores issue at cycle)
                    start = cycle
                    while True:
                        while heap and heap[0] <= start:
                            heappop(heap)
                        if len(heap) < buffer_size:
                            break
                        buffer_stalls += 1
                        start = heap[0]
                    bank_ready = start + ctrl_overhead
                    bank = (tag >> shift) % n_banks
                    bank_start = busy_until[bank]
                    if bank_start > bank_ready:
                        conflicts += 1
                    else:
                        bank_start = bank_ready
                    bank_done = bank_start + bank_occ
                    busy_until[bank] = bank_done
                    if demand_busy < bank_done:
                        arrival = bank_done + xfer
                    else:
                        arrival = demand_busy + xfer
                    demand_busy = arrival
                    if any_busy < arrival:
                        any_busy = arrival
                    bus_xfers += 1
                    heappush(heap, arrival)
                    demand_requests += 1
                    total_demand_latency += arrival - cycle
                    bus_transfers += 1
                    # _fill_l2 inlined (store fill stamps cycle)
                    if len(l2_set) >= l2_ways:
                        victim_tag = next(iter(l2_set))  # LRU victim
                        vslot = l2_set.pop(victim_tag)
                        l2_evictions += 1
                        vdirty = l2_dirty[vslot]
                        ev_count += 1
                        if ev_count >= interval_evictions:
                            self.cycle = cycle
                            self.retired = retired
                            self._load_seq = seq
                            l1.hits = l1_hits
                            l1.misses = l1_misses
                            l1.evictions = l1_evictions
                            l2.hits = l2_hits
                            l2.misses = l2_misses
                            l2.evictions = l2_evictions
                            self.bus_transfers = bus_transfers
                            total_misses.during = misses_during
                            feedback.lifetime_misses = lifetime_misses
                            feedback._evictions_this_interval = ev_count - 1
                            dstats.demand_requests = demand_requests
                            dstats.total_demand_latency = (
                                total_demand_latency
                            )
                            dstats.buffer_full_stalls = buffer_stalls
                            dstats.writebacks = wb_count
                            banks.conflicts = conflicts
                            bus._demand_busy_until = demand_busy
                            bus._any_busy_until = any_busy
                            bus.transfers = bus_xfers
                            record_eviction(
                                victim_tag, False, l2_owner[vslot] is None
                            )
                            misses_during = total_misses.during
                            lifetime_misses = feedback.lifetime_misses
                            ev_count = feedback._evictions_this_interval
                        if vdirty:
                            wb_count += 1
                            if any_busy > cycle:
                                any_busy += xfer
                            else:
                                any_busy = cycle + xfer
                            bus_xfers += 1
                            bus_transfers += 1
                        slot = vslot
                    else:
                        slot = l2_free[si2].pop()
                    l2_fill[slot] = cycle
                    l2_owner[slot] = None
                    l2_dirty[slot] = 0
                    l2_demand_pc[slot] = pc
                    l2_set[tag] = slot
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
                            wb_count += 1
                            if any_busy > cycle:
                                any_busy += xfer
                            else:
                                any_busy = cycle + xfer
                            bus_xfers += 1
                            bus_transfers += 1
                else:
                    slot = l1_free[si1].pop()
                l1_fill[slot] = cycle
                l1_owner[slot] = None
                l1_dirty[slot] = 1
                l1_demand_pc[slot] = 0
                l1_set[tag] = slot
                prev_tag = tag
                prev_slot = slot

        # -- final flush
        self.cycle = cycle
        self.retired = retired
        self._load_seq = seq
        l1.hits = l1_hits
        l1.misses = l1_misses
        l1.evictions = l1_evictions
        l2.hits = l2_hits
        l2.misses = l2_misses
        l2.evictions = l2_evictions
        self.bus_transfers = bus_transfers
        total_misses.during = misses_during
        feedback.lifetime_misses = lifetime_misses
        feedback._evictions_this_interval = ev_count
        dstats.demand_requests = demand_requests
        dstats.total_demand_latency = total_demand_latency
        dstats.buffer_full_stalls = buffer_stalls
        dstats.writebacks = wb_count
        banks.conflicts = conflicts
        bus._demand_busy_until = demand_busy
        bus._any_busy_until = any_busy
        bus.transfers = bus_xfers

    # -- the loads-only kernel loop ------------------------------------------

    def _run_kernel_loads(self, arrays: TraceArrays) -> None:  # noqa: C901
        """Raw-kernel hot loop specialized for all-load traces.

        The pointer-chase kernels the paper targets are pure load
        streams; with no stores (and no prefetchers) several machine
        facts become loop invariants that let this variant shed nearly
        all remaining per-op bookkeeping while staying observably
        bit-identical to the other engines:

        * no block is ever dirty, so every dirty probe, dirty store and
          writeback branch is dead and L1 eviction is a bare dict pop;
        * ``owner``/``demand_pc``/L1 ``fill_time`` metadata is written
          but never read anywhere (no prefetch attribution, no
          profiling observers), so those stores are skipped — the
          arrays keep their initial values;
        * most counters are linear in one another: every op probes the
          L1, every L1 miss probes the L2, and every L2 miss is exactly
          one demand request and one bus transfer.  So ``l1.hits``,
          ``l1.misses``, ``misses_during``, ``lifetime_misses``,
          ``demand_requests`` and both bus-transfer counters are
          *derived* from the op index and the two L2 counters at sync
          points instead of incremented per op;
        * ``retired`` is a pure prefix sum of per-op instruction counts
          (stalls never change it), so it is a precomputed cumsum
          column rather than a per-op addition, and the load sequence
          number is the zip index;
        * the in-order MSHR list is *implicit*: every load pushes
          exactly one entry (see the always-pending bullet below), so
          the k-th entry ever pushed belongs to op k — its completion
          is ``completions[k]`` and its retired stamp is the
          precomputed ``retired_col[k]``.  The whole queue reduces to
          a single ``head`` cursor (the tail is the current op index)
          and a push costs nothing beyond the completion store the
          dependency map needs anyway;
        * the load-completion map is a plain Python list (``dep`` is
          pre-clamped so "no/unknown producer" indexes a slot that
          provably still holds 0.0, matching ``dict.get(d, 0.0)``);
        * DRAM demand completions are pushed in strictly increasing
          order (each new bus arrival exceeds ``_demand_busy_until``,
          i.e. the previous push), so the controller's in-flight heap
          degenerates to a FIFO — a deque with O(1) ends replaces
          every heappush/heappop;
        * a load's completion is always ``>= ready + latency > cycle``,
          so the reference engines' "only track still-pending loads"
          guard is always taken and every load pushes one MSHR entry.

        The shared ``_outstanding`` deque and ``dram._in_flight`` heap
        are rebuilt from the implicit queue/FIFO at every interval
        boundary and at the end of the run, so telemetry samples (MSHR
        occupancy, DRAM occupancy) and ``finish()`` observe exactly the
        state the other engines would expose.  A sorted list is a valid min-heap,
        so handing the FIFO's contents back to ``_in_flight`` preserves
        the heap invariant.
        """
        n = len(arrays)
        # -- loop-invariant bindings
        l1 = self.l1
        l2 = self.l2
        l1_sets = l1._sets
        l2_sets = l2._sets
        l1_free = l1._free
        l2_free = l2._free
        l2_fill = l2.fill_time
        l1_ways = self._l1_ways
        l2_ways = self._l2_ways
        rob_size = self._rob_size
        shift = self._block_shift
        l2_set_mask = self._l2_set_mask
        l1_latency = self._l1_latency
        l2_latency = self._l2_latency
        unloaded = self._unloaded_latency
        mshrs = self._l2_mshrs
        outstanding = self._outstanding
        feedback = self.feedback
        record_eviction = feedback.record_eviction
        interval_evictions = feedback.interval_evictions
        total_misses = feedback.total_misses
        dram = self.dram
        dstats = dram.stats
        heap = dram._in_flight
        buffer_size = dram.request_buffer_size
        ctrl_overhead = dram.controller_overhead
        banks = dram.banks
        busy_until = banks._busy_until
        n_banks = banks.n_banks
        bank_occ = banks.occupancy_cycles
        bus = dram.bus
        xfer = dram._block_transfer_cycles

        # -- flat completion map; a list so stores keep the float object
        completions = [0.0] * n
        # -- implicit MSHR queue: op indexes [head, load_seq) are the
        # outstanding entries, oldest first (the current op joins the
        # queue the moment its completion slot is written)
        head = 0
        # cached views of the queue head: ``head_c`` is its completion
        # (-inf = empty/just-pushed, forcing the next pre-drain to look)
        # and ``rob_trigger`` the retired count at which it must pop.
        # Refreshed only inside pop branches; exact except for the one
        # op after a push into an empty queue, which the dispatch gate
        # (max(work)+1 < rob_size) makes unobservable.
        NEG_INF = float("-inf")
        BIG = 1 << 62
        head_c = NEG_INF
        rob_trigger = BIG
        mshr_limit = head + mshrs
        # -- DRAM in-flight FIFO (monotone completions; see docstring)
        inflight = deque()

        # -- hot mutable state, flushed at interval boundaries + the end
        cycle = self.cycle
        retired = self.retired
        l2_hits = l2.hits
        l2_misses = l2.misses
        l2_evictions = l2.evictions
        l1_evictions = l1.evictions
        total_demand_latency = dstats.total_demand_latency
        buffer_stalls = dstats.buffer_full_stalls
        conflicts = banks.conflicts
        demand_busy = bus._demand_busy_until
        any_busy = bus._any_busy_until
        prev_tag = -1

        # -- sync-point bases for the derived counters (see docstring)
        sync_seq = self._load_seq  # == 0, by the dispatch gate
        l1_hits_base = l1.hits
        l1_misses_base = l1.misses
        l2h_sync = l2_hits
        l2m_sync = l2_misses
        misses_during_base = total_misses.during
        lifetime_base = feedback.lifetime_misses
        demand_req_base = dstats.demand_requests
        bus_xfers_base = bus.transfers
        core_bus_base = self.bus_transfers
        # the L2-eviction count at which the interval boundary fires
        ev_trigger = l2_evictions + (
            interval_evictions - feedback._evictions_this_interval
        )

        # -- columnar input
        addr_col = arrays.addr
        tag_mask = self._tag_mask
        l1_set_mask = self._l1_set_mask
        w1_col = arrays.work + 1
        # absolute retired-instruction count *after* each op; the flat
        # list doubles as the implicit queue's retired-stamp column
        retired_col = w1_col.cumsum() + retired
        retired_all = retired_col.tolist()
        wc_col = w1_col * self._dispatch_cost
        # clamp every no-producer/out-of-range dep to -1: slot n-1 is
        # written only by the final load, after every possible read of
        # it, so ``completions[-1]`` reads the 0.0 the dict would give
        deps = arrays.dep
        dep_col = np.where((deps < 0) | (deps >= n), np.int64(-1), deps)
        chunk = max(1, int(self.chunk_ops))

        for begin in range(0, n, chunk):
            stop = begin + chunk
            tag_np = addr_col[begin:stop] & tag_mask
            for load_seq, tag, retired, wc, d in zip(
                range(begin, n),
                tag_np.tolist(),
                retired_all[begin:stop],
                wc_col[begin:stop].tolist(),
                dep_col[begin:stop].tolist(),
            ):
                cycle += wc
                if retired >= rob_trigger:
                    # == Core._enforce_rob_span
                    horizon = retired - rob_size
                    while head != load_seq and retired_all[head] <= horizon:
                        completion = completions[head]
                        head += 1
                        if completion > cycle:
                            cycle = completion
                    if head != load_seq:
                        head_c = completions[head]
                        rob_trigger = retired_all[head] + rob_size
                    else:
                        head_c = NEG_INF
                        rob_trigger = BIG
                    mshr_limit = head + mshrs

                ready = completions[d]  # == Core._ready_time
                if ready < cycle:
                    ready = cycle

                if tag == prev_tag:
                    # guaranteed L1 hit at MRU; LRU touch is the identity
                    # (the store below *is* the MSHR push — see docstring)
                    completions[load_seq] = ready + l1_latency
                    # == Core._push_outstanding
                    if head_c <= cycle:
                        while head != load_seq and completions[head] <= cycle:
                            head += 1
                        if head != load_seq:
                            head_c = completions[head]
                            rob_trigger = retired_all[head] + rob_size
                        else:
                            head_c = NEG_INF
                            rob_trigger = BIG
                        mshr_limit = head + mshrs
                    if load_seq >= mshr_limit:
                        # == FastCore._mshr_bound
                        while load_seq - head >= mshrs:
                            hc = completions[head]
                            head += 1
                            if hc > cycle:
                                cycle = hc
                                while (
                                    head != load_seq
                                    and completions[head] <= cycle
                                ):
                                    head += 1
                        head_c = completions[head]
                        rob_trigger = retired_all[head] + rob_size
                        mshr_limit = head + mshrs
                    continue

                si1 = (tag >> shift) & l1_set_mask
                l1_set = l1_sets[si1]
                slot = l1_set.get(tag)
                if slot is not None:
                    l1_set[tag] = l1_set.pop(tag)  # LRU touch
                    prev_tag = tag
                    completions[load_seq] = ready + l1_latency
                    if head_c <= cycle:
                        while head != load_seq and completions[head] <= cycle:
                            head += 1
                        if head != load_seq:
                            head_c = completions[head]
                            rob_trigger = retired_all[head] + rob_size
                        else:
                            head_c = NEG_INF
                            rob_trigger = BIG
                        mshr_limit = head + mshrs
                    if load_seq >= mshr_limit:
                        while load_seq - head >= mshrs:
                            hc = completions[head]
                            head += 1
                            if hc > cycle:
                                cycle = hc
                                while (
                                    head != load_seq
                                    and completions[head] <= cycle
                                ):
                                    head += 1
                        head_c = completions[head]
                        rob_trigger = retired_all[head] + rob_size
                        mshr_limit = head + mshrs
                    continue

                blk = tag >> shift
                l2_set = l2_sets[blk & l2_set_mask]
                slot = l2_set.get(tag)
                if slot is not None:
                    # ---- L2 hit (== Core._l2_hit_load) --------------
                    l2_hits += 1
                    l2_set[tag] = l2_set.pop(tag)
                    fill_time = l2_fill[slot]
                    if fill_time > ready:
                        # late merge, promoted to demand priority
                        data_ready = ready + unloaded
                        if fill_time < data_ready:
                            data_ready = fill_time
                        l2_fill[slot] = data_ready
                    else:
                        data_ready = ready
                    completion = data_ready + l2_latency
                else:
                    # ---- L2 miss (== Core._l2_miss_load) ------------
                    l2_misses += 1
                    # request buffer over the monotone in-flight FIFO
                    start = ready
                    while inflight and inflight[0] <= start:
                        inflight.popleft()
                    if len(inflight) >= buffer_size:
                        while True:
                            buffer_stalls += 1
                            start = inflight[0]
                            while inflight and inflight[0] <= start:
                                inflight.popleft()
                            if len(inflight) < buffer_size:
                                break
                    bank_ready = start + ctrl_overhead
                    bank = blk % n_banks
                    bank_start = busy_until[bank]
                    if bank_start > bank_ready:
                        conflicts += 1
                    else:
                        bank_start = bank_ready
                    bank_done = bank_start + bank_occ
                    busy_until[bank] = bank_done
                    if demand_busy < bank_done:
                        arrival = bank_done + xfer
                    else:
                        arrival = demand_busy + xfer
                    demand_busy = arrival
                    if any_busy < arrival:
                        any_busy = arrival
                    inflight.append(arrival)
                    total_demand_latency += arrival - ready
                    completion = arrival + l2_latency
                    # _fill_l2 inlined; victims are never dirty here
                    if len(l2_set) >= l2_ways:
                        victim_tag = next(iter(l2_set))  # LRU victim
                        slot = l2_set.pop(victim_tag)  # reuse victim slot
                        l2_evictions += 1
                        if l2_evictions >= ev_trigger:
                            # interval boundary: sync everything
                            # (including the shared deque/heap views
                            # of the ring/FIFO and the derived
                            # counters), then let the real collector
                            # roll and fire the hooks
                            ops_d = load_seq + 1 - sync_seq
                            l2m_d = l2_misses - l2m_sync
                            lmiss_d = l2_hits - l2h_sync + l2m_d
                            self.cycle = cycle
                            self.retired = retired
                            self._load_seq = load_seq + 1
                            l1.hits = l1_hits_base + ops_d - lmiss_d
                            l1.misses = l1_misses_base + lmiss_d
                            l1.evictions = l1_evictions
                            l2.hits = l2_hits
                            l2.misses = l2_misses
                            l2.evictions = l2_evictions
                            self.bus_transfers = core_bus_base + l2m_d
                            total_misses.during = (
                                misses_during_base + l2m_d
                            )
                            feedback.lifetime_misses = (
                                lifetime_base + l2m_d
                            )
                            feedback._evictions_this_interval = (
                                interval_evictions - 1
                            )
                            dstats.demand_requests = (
                                demand_req_base + l2m_d
                            )
                            dstats.total_demand_latency = (
                                total_demand_latency
                            )
                            dstats.buffer_full_stalls = buffer_stalls
                            banks.conflicts = conflicts
                            bus._demand_busy_until = demand_busy
                            bus._any_busy_until = any_busy
                            bus.transfers = bus_xfers_base + l2m_d
                            outstanding.clear()
                            for index in range(head, load_seq):
                                outstanding.append(
                                    (completions[index], retired_all[index])
                                )
                            heap[:] = inflight
                            record_eviction(victim_tag, False, True)
                            sync_seq = load_seq + 1
                            l1_hits_base = l1.hits
                            l1_misses_base = l1.misses
                            l2h_sync = l2_hits
                            l2m_sync = l2_misses
                            misses_during_base = total_misses.during
                            lifetime_base = feedback.lifetime_misses
                            demand_req_base = dstats.demand_requests
                            bus_xfers_base = bus.transfers
                            core_bus_base = self.bus_transfers
                            ev_trigger = l2_evictions + (
                                interval_evictions
                                - feedback._evictions_this_interval
                            )
                    else:
                        slot = l2_free[blk & l2_set_mask].pop()
                    l2_fill[slot] = arrival
                    l2_set[tag] = slot

                # == FastCore._fast_fill_l1, clean-loads-only form
                if len(l1_set) >= l1_ways:
                    victim_tag = next(iter(l1_set))  # LRU victim
                    l1_set.pop(victim_tag)
                    l1_evictions += 1
                else:
                    l1_free[si1].pop()
                l1_set[tag] = True
                prev_tag = tag
                completions[load_seq] = completion
                if head_c <= cycle:
                    while head != load_seq and completions[head] <= cycle:
                        head += 1
                    if head != load_seq:
                        head_c = completions[head]
                        rob_trigger = retired_all[head] + rob_size
                    else:
                        head_c = NEG_INF
                        rob_trigger = BIG
                    mshr_limit = head + mshrs
                if load_seq >= mshr_limit:
                    while load_seq - head >= mshrs:
                        hc = completions[head]
                        head += 1
                        if hc > cycle:
                            cycle = hc
                            while head != load_seq and completions[head] <= cycle:
                                head += 1
                    head_c = completions[head]
                    rob_trigger = retired_all[head] + rob_size
                    mshr_limit = head + mshrs

        # -- final flush (rebuild the shared deque/heap for finish())
        ops_d = n - sync_seq
        l2m_d = l2_misses - l2m_sync
        lmiss_d = l2_hits - l2h_sync + l2m_d
        self.cycle = cycle
        self.retired = retired
        self._load_seq = n
        l1.hits = l1_hits_base + ops_d - lmiss_d
        l1.misses = l1_misses_base + lmiss_d
        l1.evictions = l1_evictions
        l2.hits = l2_hits
        l2.misses = l2_misses
        l2.evictions = l2_evictions
        self.bus_transfers = core_bus_base + l2m_d
        total_misses.during = misses_during_base + l2m_d
        feedback.lifetime_misses = lifetime_base + l2m_d
        feedback._evictions_this_interval = (
            interval_evictions - ev_trigger + l2_evictions
        )
        dstats.demand_requests = demand_req_base + l2m_d
        dstats.total_demand_latency = total_demand_latency
        dstats.buffer_full_stalls = buffer_stalls
        banks.conflicts = conflicts
        bus._demand_busy_until = demand_busy
        bus._any_busy_until = any_busy
        bus.transfers = bus_xfers_base + l2m_d
        outstanding.clear()
        for index in range(head, n):
            outstanding.append((completions[index], retired_all[index]))
        heap[:] = inflight

    # -- the general loop ----------------------------------------------------

    def _run_general(self, arrays: TraceArrays) -> None:  # noqa: C901
        """Mechanical port of :meth:`FastCore.run` over column zips.

        Identical statement-for-statement to the fast engine's loop —
        including every ``self.cycle``/``self.retired`` flush before a
        ``record_*`` or cold call, so tracing collectors see identical
        timestamps — with the MemOp attribute reads replaced by tuple
        unpacking from the decoded columns.
        """
        # loop-invariant bindings (== FastCore.run)
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
        rob_size = self._rob_size
        offset_mask = self._offset_mask
        shift = self._block_shift
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

        n = len(arrays)
        addr_col = arrays.addr
        work_col = arrays.work
        tag_mask = self._tag_mask
        l1_set_mask = self._l1_set_mask
        dispatch_cost = self._dispatch_cost
        chunk = max(1, int(self.chunk_ops))

        for begin in range(0, n, chunk):
            stop = begin + chunk
            a_np = addr_col[begin:stop]
            tag_np = a_np & tag_mask
            w1_np = work_col[begin:stop] + 1
            for pc, addr, tag, si1, w1, wc, is_load, dep in zip(
                arrays.pc[begin:stop].tolist(),
                a_np.tolist(),
                tag_np.tolist(),
                ((tag_np >> shift) & l1_set_mask).tolist(),
                w1_np.tolist(),
                (w1_np * dispatch_cost).tolist(),
                arrays.is_load[begin:stop].tolist(),
                arrays.dep[begin:stop].tolist(),
            ):
                if deferred and deferred[0][0] <= cycle:
                    self.cycle = cycle
                    self.retired = retired
                    drain_deferred()
                cycle += wc
                retired += w1
                if outstanding:
                    # == Core._enforce_rob_span
                    horizon = retired - rob_size
                    while outstanding and outstanding[0][1] <= horizon:
                        completion = outstanding.popleft()[0]
                        if completion > cycle:
                            cycle = completion

                l1_set = l1_sets[si1]

                if not is_load:
                    # ---- store path (== Core._store) --------------------
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
                            slot = l1_free[si1].pop()
                        l1_fill[slot] = cycle
                        l1_owner[slot] = None
                        l1_dirty[slot] = 1
                        l1_demand_pc[slot] = 0
                        l1_set[tag] = slot
                        if train_on_stores and has_train:
                            fast_train(addr, pc, True)
                        continue
                    l2_misses += 1
                    record_demand_miss(tag)
                    demand_access(cycle, tag)
                    self.bus_transfers += 1
                    fill_l2(tag, fill_time=cycle, demand_pc=pc)
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
                        slot = l1_free[si1].pop()
                    l1_fill[slot] = cycle
                    l1_owner[slot] = None
                    l1_dirty[slot] = 1
                    l1_demand_pc[slot] = 0
                    l1_set[tag] = slot
                    if train_on_stores and has_train:
                        fast_train(addr, pc, False)
                    continue

                # ---- load path (== Core._load) --------------------------
                load_seq = seq
                seq += 1
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
                        value_hooks(
                            MemOp(pc, addr, True, w1 - 1, dep), completion
                        )
                    continue

                l1_misses += 1
                l2_set = l2_sets[(tag >> shift) & l2_set_mask]
                slot = l2_set.get(tag)
                self.cycle = cycle
                self.retired = retired
                if slot is not None:
                    # ---- L2 hit (== Core._l2_hit_load) ------------------
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
                        slot = l1_free[si1].pop()
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
                        fast_train(addr, pc, True)
                else:
                    # ---- L2 miss (== Core._l2_miss_load) ----------------
                    l2_misses += 1
                    record_demand_miss(tag)
                    if pc in oracle_pcs:
                        completion = ready + l2_latency
                        fill_l2(tag, fill_time=ready, demand_pc=pc)
                    else:
                        arrival = demand_access(ready, tag)
                        self.bus_transfers += 1
                        completion = arrival + l2_latency
                        fill_l2(tag, fill_time=arrival, demand_pc=pc)
                        if cdp is not None and (
                            gendler is None or gendler.is_enabled(cdp_name)
                        ):
                            cdp_scan(tag, 1, pc, addr & offset_mask, ready)
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
                        slot = l1_free[si1].pop()
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
                        fast_train(addr, pc, False)

                completions[load_seq] = completion
                if len(completions) >= prune_at:
                    horizon = load_seq - prune_keep
                    completions = {
                        s: c for s, c in completions.items() if s > horizon
                    }
                    self._completions = completions
                if has_value_hooks:
                    value_hooks(MemOp(pc, addr, True, w1 - 1, dep), completion)

        self.cycle = cycle
        self.retired = retired
        self._load_seq = seq
        self._completions = completions
        l1.hits = l1_hits
        l1.misses = l1_misses
        l1.evictions = l1_evictions
        l2.hits = l2_hits
        l2.misses = l2_misses
