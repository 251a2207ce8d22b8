"""DRAM controller: request buffer, banks, bus, and latency composition.

One controller serves all cores (paper Table 5: on-chip controller, memory
request buffer of ``32 x core-count`` entries).  Timing of one access:

    arrival -> [wait for request-buffer slot] -> controller overhead
            -> [wait for bank]   (bank occupancy)
            -> [wait for bus]    (block transfer)
            -> completion

The unloaded sum of the three stages is the configured minimum memory
latency (450 cycles at paper scale).  Demand requests that find the buffer
full stall until a slot frees; prefetch requests are simply dropped, which
is how real prefetchers behave under backpressure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

from repro.dram.bank import BankArray
from repro.dram.bus import MemoryBus


@dataclass
class DramStats:
    demand_requests: int = 0
    prefetch_requests: int = 0
    writebacks: int = 0
    dropped_prefetches: int = 0
    buffer_full_stalls: int = 0
    total_demand_latency: float = 0.0

    @property
    def total_requests(self) -> int:
        return self.demand_requests + self.prefetch_requests + self.writebacks

    @property
    def mean_demand_latency(self) -> float:
        if self.demand_requests == 0:
            return 0.0
        return self.total_demand_latency / self.demand_requests


class DramController:
    """Banked DRAM behind a shared bus and a bounded request buffer."""

    def __init__(
        self,
        n_banks: int,
        bank_occupancy: int,
        controller_overhead: int,
        bus: MemoryBus,
        block_size: int,
        request_buffer_size: int,
    ) -> None:
        self.banks = BankArray(n_banks, bank_occupancy)
        self.bus = bus
        self.controller_overhead = controller_overhead
        self.block_size = block_size
        self.request_buffer_size = request_buffer_size
        self._in_flight: List[float] = []  # min-heap of completion times
        self.stats = DramStats()
        #: bus occupancy of one block transfer (constant per configuration)
        self._block_transfer_cycles = bus.transfer_cycles(block_size)

    # -- request buffer ----------------------------------------------------

    def _occupancy(self, now: float) -> int:
        heap = self._in_flight
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        return len(heap)

    def buffer_has_room(self, now: float) -> bool:
        return self._occupancy(now) < self.request_buffer_size

    def _wait_for_slot(self, now: float) -> float:
        """Earliest cycle at which a buffer slot is free (demand path)."""
        while not self.buffer_has_room(now):
            self.stats.buffer_full_stalls += 1
            now = self._in_flight[0]  # wait for the earliest completion
        return now

    # -- accesses ------------------------------------------------------------

    def unloaded_latency(self) -> float:
        """Minimum (contention-free) latency of one block read."""
        return (
            self.controller_overhead
            + self.banks.occupancy_cycles
            + self.bus.transfer_cycles(self.block_size)
        )

    def access(self, now: float, block_addr: int, is_demand: bool) -> Optional[float]:
        """Schedule a block read arriving at *now*; return completion cycle.

        Returns None when a prefetch is dropped for lack of buffer space.
        """
        if is_demand:
            start = self._wait_for_slot(now)
        else:
            if not self.buffer_has_room(now):
                self.stats.dropped_prefetches += 1
                return None
            start = now
        ready = start + self.controller_overhead
        bank = self.banks.bank_of(block_addr, self.block_size)
        bank_done = self.banks.service(bank, ready)
        completion = self.bus.transfer(bank_done, self.block_size, is_demand)
        heapq.heappush(self._in_flight, completion)
        if is_demand:
            self.stats.demand_requests += 1
            self.stats.total_demand_latency += completion - now
        else:
            self.stats.prefetch_requests += 1
        return completion

    def demand_access_fast(self, now: float, block_addr: int) -> float:
        """Flattened ``access(now, block_addr, is_demand=True)``.

        Exactly the same request-buffer wait, bank service, and
        demand-priority bus transfer as the composed path — one call and
        no intermediate objects, for the fast engine's miss path.  Any
        behavioral divergence from :meth:`access` is a bug caught by
        tests/differential/.
        """
        stats = self.stats
        heap = self._in_flight
        buffer_size = self.request_buffer_size
        # request buffer (== _wait_for_slot)
        start = now
        while True:
            while heap and heap[0] <= start:
                heapq.heappop(heap)
            if len(heap) < buffer_size:
                break
            stats.buffer_full_stalls += 1
            start = heap[0]
        ready = start + self.controller_overhead
        # bank service (== BankArray.service)
        banks = self.banks
        busy_until = banks._busy_until
        bank = (block_addr // self.block_size) % banks.n_banks
        bank_start = busy_until[bank]
        if bank_start > ready:
            banks.conflicts += 1
        else:
            bank_start = ready
        bank_done = bank_start + banks.occupancy_cycles
        busy_until[bank] = bank_done
        # demand-priority bus transfer (== MemoryBus.transfer)
        bus = self.bus
        transfer_start = bus._demand_busy_until
        if transfer_start < bank_done:
            transfer_start = bank_done
        completion = transfer_start + self._block_transfer_cycles
        bus._demand_busy_until = completion
        if bus._any_busy_until < completion:
            bus._any_busy_until = completion
        bus.transfers += 1
        heapq.heappush(heap, completion)
        stats.demand_requests += 1
        stats.total_demand_latency += completion - now
        return completion

    def prefetch_access_fast(
        self, now: float, block_addr: int
    ) -> Optional[float]:
        """Flattened ``access(now, block_addr, is_demand=False)``.

        The sibling of :meth:`demand_access_fast` for the fast engine's
        prefetch issue: drop on a full request buffer, otherwise the same
        bank service and a bus transfer queued behind all traffic.
        """
        heap = self._in_flight
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        if len(heap) >= self.request_buffer_size:
            self.stats.dropped_prefetches += 1
            return None
        ready = now + self.controller_overhead
        # bank service (== BankArray.service)
        banks = self.banks
        busy_until = banks._busy_until
        bank = (block_addr // self.block_size) % banks.n_banks
        bank_start = busy_until[bank]
        if bank_start > ready:
            banks.conflicts += 1
        else:
            bank_start = ready
        bank_done = bank_start + banks.occupancy_cycles
        busy_until[bank] = bank_done
        # prefetch bus transfer (== MemoryBus.transfer, is_demand=False)
        bus = self.bus
        transfer_start = bus._any_busy_until
        if transfer_start < bank_done:
            transfer_start = bank_done
        completion = transfer_start + self._block_transfer_cycles
        if bus._any_busy_until < completion:
            bus._any_busy_until = completion
        bus.transfers += 1
        heapq.heappush(heap, completion)
        self.stats.prefetch_requests += 1
        return completion

    def writeback(self, now: float, block_addr: int) -> float:
        """A dirty-block writeback: one bus transfer, no read latency."""
        self.stats.writebacks += 1
        return self.bus.transfer(now, self.block_size, is_demand=False)
