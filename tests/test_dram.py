"""Unit tests for banks, the demand-priority bus, and the DRAM controller."""

import pytest

from repro.dram.bank import BankArray
from repro.dram.bus import MemoryBus
from repro.dram.controller import DramController


def make_controller(n_banks=4, bank_occ=100, overhead=10, block=64, buffer_size=8):
    bus = MemoryBus(8, 5)
    return DramController(n_banks, bank_occ, overhead, bus, block, buffer_size)


class TestBanks:
    def test_block_interleaving(self):
        banks = BankArray(4, 100)
        assert banks.bank_of(0, 64) == 0
        assert banks.bank_of(64, 64) == 1
        assert banks.bank_of(256, 64) == 0

    def test_busy_bank_delays(self):
        banks = BankArray(2, 100)
        first = banks.service(0, 0.0)
        assert first == 100.0
        second = banks.service(0, 10.0)  # arrives while busy
        assert second == 200.0
        assert banks.conflicts == 1

    def test_idle_bank_immediate(self):
        banks = BankArray(2, 100)
        banks.service(0, 0.0)
        other = banks.service(1, 10.0)  # different bank, no wait
        assert other == 110.0
        assert banks.conflicts == 0


class TestBus:
    def test_transfer_cycles(self):
        bus = MemoryBus(8, 5)
        assert bus.transfer_cycles(64) == 40  # 8 bus cycles x ratio 5

    def test_serialization(self):
        bus = MemoryBus(8, 5)
        first = bus.transfer(0.0, 64)
        second = bus.transfer(0.0, 64)
        assert first == 40.0
        assert second == 80.0
        assert bus.transfers == 2

    def test_demand_priority_over_prefetch(self):
        """A demand never waits behind prefetch transfers."""
        bus = MemoryBus(8, 5)
        bus.transfer(0.0, 64, is_demand=False)  # prefetch occupies [0,40]
        demand = bus.transfer(0.0, 64, is_demand=True)
        assert demand == 40.0  # only its own transfer time

    def test_prefetch_waits_for_everything(self):
        bus = MemoryBus(8, 5)
        bus.transfer(0.0, 64, is_demand=True)  # demand until 40
        prefetch = bus.transfer(0.0, 64, is_demand=False)
        assert prefetch == 80.0

    def test_demands_serialize_among_themselves(self):
        bus = MemoryBus(8, 5)
        bus.transfer(0.0, 64, is_demand=True)
        second = bus.transfer(0.0, 64, is_demand=True)
        assert second == 80.0


class TestController:
    def test_unloaded_latency_composition(self):
        dram = make_controller()
        # overhead 10 + bank 100 + transfer 40
        assert dram.unloaded_latency() == 150

    def test_demand_access_unloaded(self):
        dram = make_controller()
        completion = dram.access(0.0, 0x1000, is_demand=True)
        assert completion == 150.0
        assert dram.stats.demand_requests == 1

    def test_prefetch_dropped_when_buffer_full(self):
        dram = make_controller(buffer_size=2)
        dram.access(0.0, 0x1000, True)
        dram.access(0.0, 0x2000, True)
        dropped = dram.access(0.0, 0x3000, is_demand=False)
        assert dropped is None
        assert dram.stats.dropped_prefetches == 1

    def test_demand_waits_for_buffer_slot(self):
        dram = make_controller(buffer_size=1)
        first = dram.access(0.0, 0x1000, True)
        second = dram.access(0.0, 0x2040, True)  # different bank, buffer full
        assert second > first  # had to wait for the slot to free
        assert dram.stats.buffer_full_stalls >= 1

    def test_bank_conflict_adds_latency(self):
        dram = make_controller(n_banks=2)
        same_bank = 2 * 64  # blocks 0 and 2 share bank 0
        first = dram.access(0.0, 0, True)
        second = dram.access(0.0, same_bank, True)
        assert second > first + 40  # waited on the busy bank

    def test_writeback_counts_one_transfer(self):
        dram = make_controller()
        dram.writeback(0.0, 0x1000)
        assert dram.stats.writebacks == 1
        assert dram.bus.transfers == 1

    def test_mean_demand_latency(self):
        dram = make_controller()
        dram.access(0.0, 0x1000, True)
        assert dram.stats.mean_demand_latency == pytest.approx(150.0)


class TestFlattenedAccess:
    """The fast engine's flattened accesses against the composed path."""

    @staticmethod
    def _state(dram):
        return (
            sorted(dram._in_flight),
            dram.stats,
            list(dram.banks._busy_until),
            dram.banks.conflicts,
            dram.bus._demand_busy_until,
            dram.bus._any_busy_until,
            dram.bus.transfers,
        )

    def test_flattened_accesses_match_access(self):
        import random

        rng = random.Random(7)
        composed = make_controller(buffer_size=4)
        flat = make_controller(buffer_size=4)
        now = 0.0
        for __ in range(2000):
            now += rng.choice((0, 0, 1, 5, 40))
            block = rng.randrange(64) * 64
            if rng.random() < 0.5:
                want = composed.access(now, block, is_demand=True)
                got = flat.demand_access_fast(now, block)
            else:
                want = composed.access(now, block, is_demand=False)
                got = flat.prefetch_access_fast(now, block)
            assert got == want
            assert self._state(flat) == self._state(composed)
        # the sequence must exercise drops, stalls and bank conflicts
        assert composed.stats.dropped_prefetches > 0
        assert composed.stats.buffer_full_stalls > 0
        assert composed.banks.conflicts > 0
