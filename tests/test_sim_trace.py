"""Tests for the trace-driven software cache simulator."""

import pytest

from repro.bus.trace import BusTrace
from repro.bus.transaction import BusCommand, BusTransaction, SnoopResponse
from repro.common.errors import ConfigurationError
from repro.memories.config import CacheNodeConfig
from repro.sim.trace_sim import TraceSimResult, TraceSimulator

CFG = CacheNodeConfig(size=16 * 1024, assoc=4, line_size=128)


def trace_of(*txns):
    return BusTrace.from_transactions(
        [BusTransaction(cpu, cmd, addr) for cpu, cmd, addr in txns]
    )


class TestSemantics:
    def test_cold_miss_then_hit(self):
        result = TraceSimulator(CFG).simulate(
            trace_of((0, BusCommand.READ, 0x1000), (1, BusCommand.READ, 0x1000))
        )
        assert result.read_misses == 1
        assert result.read_hits == 1
        assert result.miss_ratio == pytest.approx(0.5)

    def test_lru_eviction_exact(self):
        config = CacheNodeConfig(size=2 * 128, assoc=2, line_size=128)
        result = TraceSimulator(config).simulate(
            trace_of(
                (0, BusCommand.READ, 0x0000),
                (0, BusCommand.READ, 0x8000),
                (0, BusCommand.READ, 0x0000),   # refresh
                (0, BusCommand.READ, 0x10000),  # evicts 0x8000
                (0, BusCommand.READ, 0x0000),   # still resident
                (0, BusCommand.READ, 0x8000),   # must miss again
            )
        )
        assert result.read_hits == 2
        assert result.read_misses == 4

    def test_dirty_eviction_counted(self):
        config = CacheNodeConfig(size=2 * 128, assoc=2, line_size=128)
        result = TraceSimulator(config).simulate(
            trace_of(
                (0, BusCommand.RWITM, 0x0000),
                (0, BusCommand.READ, 0x8000),
                (0, BusCommand.READ, 0x10000),
            )
        )
        assert result.dirty_evictions == 1
        assert result.clean_evictions == 0

    def test_castout_separately_counted(self):
        result = TraceSimulator(CFG).simulate(
            trace_of((0, BusCommand.CASTOUT, 0x1000))
        )
        assert result.castouts == 1
        assert result.castout_misses == 1
        assert result.references == 0  # castouts are not data references

    def test_io_and_retry_filtered(self):
        txns = [
            BusTransaction(0, BusCommand.IO_READ, 0x1000),
            BusTransaction(0, BusCommand.READ, 0x1000, snoop_response=SnoopResponse.RETRY),
        ]
        result = TraceSimulator(CFG).simulate(BusTrace.from_transactions(txns))
        assert result.filtered == 2
        assert result.references == 0

    def test_rejects_non_lru(self):
        config = CacheNodeConfig(size=16 * 1024, assoc=4, replacement="fifo")
        with pytest.raises(ConfigurationError):
            TraceSimulator(config)

    def test_fresh_resets_state_by_default(self):
        sim = TraceSimulator(CFG)
        trace = trace_of((0, BusCommand.READ, 0x1000))
        sim.simulate(trace)
        result = sim.simulate(trace)
        assert result.read_misses == 1  # cold again

    def test_incremental_simulation_keeps_state(self):
        sim = TraceSimulator(CFG)
        trace = trace_of((0, BusCommand.READ, 0x1000))
        sim.simulate(trace)
        result = sim.simulate(trace, fresh=False)
        assert result.read_hits == 1

    def test_foreign_master_read_demotes_dirty(self):
        sim = TraceSimulator(CFG, local_cpus=frozenset({0}))
        result = sim.simulate(
            trace_of(
                (0, BusCommand.RWITM, 0x1000),
                (16, BusCommand.READ, 0x1000),   # DMA read demotes
                (0, BusCommand.READ, 0x2000),    # force an eviction path later
            )
        )
        assert result.references == 2  # the DMA read is not a local reference

    def test_foreign_master_write_invalidates(self):
        sim = TraceSimulator(CFG, local_cpus=frozenset({0}))
        result = sim.simulate(
            trace_of(
                (0, BusCommand.READ, 0x1000),
                (16, BusCommand.CASTOUT, 0x1000),  # DMA write (bus ID > 15)
                (0, BusCommand.READ, 0x1000),
            )
        )
        assert result.read_misses == 2

    def test_foreign_processor_castout_ignored(self):
        sim = TraceSimulator(CFG, local_cpus=frozenset({0}))
        result = sim.simulate(
            trace_of(
                (0, BusCommand.READ, 0x1000),
                (7, BusCommand.CASTOUT, 0x1000),  # unmapped processor
                (0, BusCommand.READ, 0x1000),
            )
        )
        assert result.read_hits == 1


class TestReporting:
    def test_elapsed_time_measured(self, random_trace):
        result = TraceSimulator(CFG).simulate(random_trace)
        assert result.elapsed_seconds > 0

    def test_throughput(self, random_trace):
        sim = TraceSimulator(CFG)
        result = sim.simulate(random_trace)
        assert sim.throughput_refs_per_second(result) > 0

    def test_counter_view_keys_match_node_controller(self):
        view = TraceSimResult().counter_view()
        expected = {
            "local.read", "local.write", "local.castout",
            "hit.read", "hit.write", "hit.castout",
            "miss.read", "miss.write", "miss.castout",
            "evict.dirty", "evict.clean",
        }
        assert set(view) == expected
