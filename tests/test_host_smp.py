"""Tests for repro.host.smp: machine assembly, memory controller, I/O."""

import numpy as np
import pytest

from repro.bus.transaction import BusCommand, BusTransaction, SnoopResponse
from repro.common.errors import ConfigurationError
from repro.host.memory import MemoryController
from repro.host.processor import Processor
from repro.host.smp import HostConfig, S7A_HOST


class TestHostConfig:
    def test_s7a_defaults(self):
        assert S7A_HOST.n_cpus == 8
        assert S7A_HOST.l2_size == 8 * 1024 * 1024
        assert S7A_HOST.l2_assoc == 4
        assert S7A_HOST.bus_hz == 100_000_000

    def test_rejects_too_many_cpus(self):
        with pytest.raises(ConfigurationError):
            HostConfig(n_cpus=17)

    def test_rejects_zero_cpus(self):
        with pytest.raises(ConfigurationError):
            HostConfig(n_cpus=0)


class TestHostSMP:
    def test_processor_wiring(self, small_host):
        assert len(small_host.processors) == 4
        assert [p.cpu_id for p in small_host.processors] == [0, 1, 2, 3]

    def test_run_chunk_drives_caches(self, small_host):
        cpu_ids = np.array([0, 1, 2, 3])
        addresses = np.array([0x1000, 0x2000, 0x3000, 0x4000])
        writes = np.array([False, True, False, True])
        small_host.run_chunk(cpu_ids, addresses, writes)
        assert small_host.total_references() == 4
        assert small_host.total_l2_misses() == 4  # all cold

    def test_run_chunk_rejects_unknown_cpu(self, small_host):
        with pytest.raises(ConfigurationError):
            small_host.run_chunk(
                np.array([9]), np.array([0x1000]), np.array([False])
            )

    def test_run_respects_max_references(self, small_host):
        def chunks():
            for _ in range(10):
                yield (
                    np.zeros(100, dtype=np.int64),
                    np.arange(100, dtype=np.int64) * 128,
                    np.zeros(100, dtype=bool),
                )

        executed = small_host.run(chunks(), max_references=250)
        assert executed == 250
        assert small_host.total_references() == 250

    def test_aggregate_miss_ratio(self, small_host):
        small_host.run_chunk(
            np.array([0, 0]), np.array([0x1000, 0x1000]), np.array([False, False])
        )
        assert small_host.aggregate_miss_ratio() == pytest.approx(0.5)

    def test_plug_and_unplug_monitor(self, small_host):
        seen = []

        class Probe:
            def observe(self, txn):
                seen.append(txn)
                return SnoopResponse.NULL

        probe = Probe()
        small_host.plug_in(probe)
        small_host.run_chunk(np.array([0]), np.array([0x1000]), np.array([False]))
        assert len(seen) == 1
        small_host.unplug(probe)
        small_host.run_chunk(np.array([0]), np.array([0x8000]), np.array([False]))
        assert len(seen) == 1


class TestMemoryController:
    def test_counts_memory_sourced_reads(self):
        memory = MemoryController()
        memory.observe(
            BusTransaction(0, BusCommand.READ, 0, snoop_response=SnoopResponse.NULL)
        )
        memory.observe(
            BusTransaction(0, BusCommand.READ, 0, snoop_response=SnoopResponse.SHARED)
        )
        assert memory.reads_from_memory == 2

    def test_intervention_read_not_counted(self):
        memory = MemoryController()
        memory.observe(
            BusTransaction(0, BusCommand.READ, 0, snoop_response=SnoopResponse.MODIFIED)
        )
        assert memory.reads_from_memory == 0

    def test_castouts_counted(self):
        memory = MemoryController()
        memory.observe(BusTransaction(0, BusCommand.CASTOUT, 0))
        assert memory.writes_to_memory == 1

    def test_host_memory_balance(self, small_host):
        rng = np.random.default_rng(1)
        n = 2000
        small_host.run_chunk(
            rng.integers(0, 4, n),
            (rng.integers(0, 1 << 14, n)) * 128,
            rng.random(n) < 0.3,
        )
        stats = small_host.bus.stats
        # Memory sources every read/rwitm that was not an intervention.
        interventions = sum(
            p.l2.stats.interventions_supplied for p in small_host.processors
        )
        assert small_host.memory.reads_from_memory == (
            stats.reads + stats.rwitms - interventions
        )


class TestIoBridge:
    def test_register_ops_reach_bus_as_io(self, small_host):
        small_host.io_bridge.register_access(0xF000, is_write=False)
        small_host.io_bridge.register_access(0xF000, is_write=True)
        assert small_host.bus.stats.io_ops == 2

    def test_dma_write_invalidates_cached_line(self, small_host):
        cpu = small_host.processors[0]
        cpu.reference(0x1000, is_write=False)
        small_host.io_bridge.dma_write(0x1000)
        from repro.host.cache import MESIState

        assert cpu.l2.lookup_state(0x1000) is MESIState.INVALID

    def test_dma_read_demotes_modified(self, small_host):
        cpu = small_host.processors[0]
        cpu.reference(0x1000, is_write=True)
        small_host.io_bridge.dma_read(0x1000)
        from repro.host.cache import MESIState

        assert cpu.l2.lookup_state(0x1000) is MESIState.SHARED


class TestProcessor:
    def test_instruction_model(self):
        from repro.bus.bus import SystemBus
        from repro.host.cache import SnoopingCache

        bus = SystemBus()
        l2 = SnoopingCache(0, bus, size=4096, assoc=2)
        bus.attach_snooper(l2)
        processor = Processor(cpu_id=0, l2=l2, refs_per_kilo_instruction=100.0)
        for i in range(10):
            processor.reference(i * 128, False)
        assert processor.instructions_executed == pytest.approx(100.0)
        assert processor.misses_per_kilo_instruction() == pytest.approx(
            l2.stats.misses * 10.0
        )

    def test_zero_refs_per_kilo_instruction(self):
        from repro.bus.bus import SystemBus
        from repro.host.cache import SnoopingCache

        bus = SystemBus()
        l2 = SnoopingCache(0, bus, size=4096, assoc=2)
        processor = Processor(cpu_id=0, l2=l2, refs_per_kilo_instruction=0.0)
        assert processor.instructions_executed == 0.0
        assert processor.misses_per_kilo_instruction() == 0.0
