"""Tests for repro.memories.node_controller: the cache-emulation firmware."""

import pytest

from repro.bus.transaction import BusCommand, SnoopResponse
from repro.memories.config import CacheNodeConfig
from repro.memories.node_controller import NodeController
from repro.memories.protocol_table import LineState
from repro.memories.tx_buffer import TransactionBuffer


def make_node(size=16 * 1024, assoc=4, protocol="mesi", cpus=(0, 1, 2, 3), index=0):
    config = CacheNodeConfig(size=size, assoc=assoc, line_size=128, protocol=protocol)
    return NodeController(index=index, config=config, cpus=cpus)


def local(node, command, address, response=SnoopResponse.NULL, peers=(), now=0.0):
    return node.process_local(command, address, response, now, peers)


class TestLocalOperations:
    def test_read_miss_then_hit(self):
        node = make_node()
        local(node, BusCommand.READ, 0x1000)
        local(node, BusCommand.READ, 0x1000)
        counters = node.counters
        assert counters.read("miss.read") == 1
        assert counters.read("hit.read") == 1
        assert node.miss_ratio() == pytest.approx(0.5)

    def test_read_alone_fills_exclusive_under_mesi(self):
        node = make_node()
        local(node, BusCommand.READ, 0x1000)
        assert node.directory.lookup_state(0x1000) == int(LineState.EXCLUSIVE)
        assert node.counters.read("fill.EXCLUSIVE") == 1

    def test_rwitm_fills_modified(self):
        node = make_node()
        local(node, BusCommand.RWITM, 0x1000)
        assert node.directory.lookup_state(0x1000) == int(LineState.MODIFIED)

    def test_dclaim_counts_as_write_and_upgrade(self):
        node = make_node()
        local(node, BusCommand.DCLAIM, 0x1000)
        assert node.counters.read("local.write") == 1
        assert node.counters.read("local.upgrade") == 1

    def test_castout_hit_dirties_line(self):
        node = make_node()
        local(node, BusCommand.READ, 0x1000)
        local(node, BusCommand.CASTOUT, 0x1000)
        assert node.directory.lookup_state(0x1000) == int(LineState.MODIFIED)
        assert node.counters.read("hit.castout") == 1

    def test_castout_miss_allocates_dirty(self):
        """Section 3.4: non-inclusive caches see castouts for absent lines."""
        node = make_node()
        local(node, BusCommand.CASTOUT, 0x1000)
        assert node.counters.read("miss.castout") == 1
        assert node.counters.read("inclusion.castout_miss") == 1
        assert node.directory.lookup_state(0x1000) == int(LineState.MODIFIED)

    def test_dirty_eviction_counted(self):
        node = make_node(size=2 * 128, assoc=2)
        local(node, BusCommand.RWITM, 0x0000)
        local(node, BusCommand.READ, 0x8000)
        local(node, BusCommand.READ, 0x10000)
        assert node.counters.read("evict.dirty") == 1

    def test_non_memory_command_is_a_model_error(self):
        from repro.common.errors import EmulationError

        node = make_node()
        with pytest.raises(EmulationError):
            local(node, BusCommand.IO_READ, 0x1000)

    def test_castouts_excluded_from_references(self):
        node = make_node()
        local(node, BusCommand.READ, 0x1000)
        local(node, BusCommand.CASTOUT, 0x2000)
        assert node.references() == 1


class TestSatisfiedAttribution:
    def test_modified_intervention(self):
        node = make_node()
        local(node, BusCommand.READ, 0x1000, response=SnoopResponse.MODIFIED)
        assert node.counters.read("satisfied.mod_int") == 1

    def test_shared_intervention(self):
        node = make_node()
        local(node, BusCommand.READ, 0x1000, response=SnoopResponse.SHARED)
        assert node.counters.read("satisfied.shr_int") == 1

    def test_l3_hit(self):
        node = make_node()
        local(node, BusCommand.READ, 0x1000)
        local(node, BusCommand.READ, 0x1000)
        assert node.counters.read("satisfied.l3") == 1

    def test_memory(self):
        node = make_node()
        local(node, BusCommand.READ, 0x1000)
        assert node.counters.read("satisfied.memory") == 1

    def test_dclaim_fetches_no_data(self):
        node = make_node()
        local(node, BusCommand.DCLAIM, 0x1000)
        breakdown = node.satisfied_breakdown()
        assert all(v == 0.0 for v in breakdown.values())

    def test_breakdown_sums_to_one(self):
        node = make_node()
        local(node, BusCommand.READ, 0x1000)
        local(node, BusCommand.READ, 0x1000)
        local(node, BusCommand.READ, 0x2000, response=SnoopResponse.MODIFIED)
        assert sum(node.satisfied_breakdown().values()) == pytest.approx(1.0)


class TestPeerCoherence:
    def setup_method(self):
        self.a = make_node(cpus=(0, 1), index=0)
        self.b = make_node(cpus=(2, 3), index=1)

    def test_read_miss_with_peer_copy_fills_shared(self):
        local(self.b, BusCommand.READ, 0x1000)
        local(self.a, BusCommand.READ, 0x1000, peers=[self.b])
        assert self.a.directory.lookup_state(0x1000) == int(LineState.SHARED)
        assert self.b.directory.lookup_state(0x1000) == int(LineState.SHARED)

    def test_read_miss_with_dirty_peer_counts_intervention(self):
        local(self.b, BusCommand.RWITM, 0x1000)
        local(self.a, BusCommand.READ, 0x1000, peers=[self.b])
        assert self.a.counters.read("intervention.from_peer") == 1
        assert self.b.counters.read("remote.supplied_dirty") == 1

    def test_write_miss_invalidates_peer(self):
        local(self.b, BusCommand.READ, 0x1000)
        local(self.a, BusCommand.RWITM, 0x1000, peers=[self.b])
        assert self.b.directory.lookup_state(0x1000) == int(LineState.INVALID)
        assert self.b.counters.read("remote.invalidated") == 1

    def test_write_hit_on_shared_invalidates_peer(self):
        local(self.b, BusCommand.READ, 0x1000)
        local(self.a, BusCommand.READ, 0x1000, peers=[self.b])  # both shared
        local(self.a, BusCommand.DCLAIM, 0x1000, peers=[self.b])
        assert self.a.directory.lookup_state(0x1000) == int(LineState.MODIFIED)
        assert self.b.directory.lookup_state(0x1000) == int(LineState.INVALID)

    def test_local_read_hit_is_invisible_to_peers(self):
        local(self.b, BusCommand.READ, 0x2000)
        local(self.a, BusCommand.READ, 0x1000, peers=[self.b])
        remote_reads_before = self.b.counters.read("remote.read")
        local(self.a, BusCommand.READ, 0x1000, peers=[self.b])  # hit
        assert self.b.counters.read("remote.read") == remote_reads_before

    def test_emulated_swmr(self):
        local(self.a, BusCommand.RWITM, 0x1000, peers=[self.b])
        local(self.b, BusCommand.RWITM, 0x1000, peers=[self.a])
        states = [
            node.directory.lookup_state(0x1000) for node in (self.a, self.b)
        ]
        assert states.count(int(LineState.MODIFIED)) == 1
        assert states.count(int(LineState.INVALID)) == 1


class TestBufferBackpressure:
    def test_full_buffer_forces_retry(self):
        node = make_node()
        node.buffer = TransactionBuffer(capacity=1, service_cycles=1e9)
        assert local(node, BusCommand.READ, 0x1000, now=1.0)
        assert not local(node, BusCommand.READ, 0x2000, now=2.0)

    def test_rejected_op_does_not_touch_directory(self):
        node = make_node()
        node.buffer = TransactionBuffer(capacity=1, service_cycles=1e9)
        local(node, BusCommand.READ, 0x1000, now=1.0)
        local(node, BusCommand.READ, 0x2000, now=2.0)
        assert node.directory.lookup_state(0x2000) == int(LineState.INVALID)


class TestReset:
    def test_reset_clears_everything(self):
        node = make_node()
        local(node, BusCommand.READ, 0x1000)
        node.reset()
        assert node.references() == 0
        assert node.directory.resident_lines() == 0
        assert node.miss_ratio() == 0.0
