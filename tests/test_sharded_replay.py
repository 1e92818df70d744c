"""Set-interleaved sharded replay: bit-identity and refusal conditions.

Sharded runs partition the trace by set-index address bits across
private boards and merge the counter banks wrap-aware; the merged
statistics must equal a serial replay's exactly.  Configurations whose
state couples cache sets through global order (random replacement, SDRAM
timing, over-long buffer service, shard fields spilling out of the
set-index field) must be refused up front, not silently mis-merged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.pipeline import (
    replay_machine,
    sharded_replay,
    validate_sharding,
)
from repro.memories.board import board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.memories.counters import COUNTER_MASK
from repro.target.configs import (
    multi_config_machine,
    single_node_machine,
)

from tests.test_batched_replay import full_mix_words, machine_for

from repro.bus.trace import BusTrace


def full_mix_trace(n: int, seed: int = 0) -> BusTrace:
    return BusTrace(words=full_mix_words(n, seed=seed))


class TestShardedBitIdentity:
    @pytest.mark.parametrize("kind", ["single", "split", "multi"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_merged_equals_serial(self, kind, shards):
        trace = full_mix_trace(4000, seed=41)
        machine = machine_for(kind)
        serial = replay_machine(trace, machine, seed=5)
        merged = sharded_replay(
            trace, machine, shards, seed=5, processes=False
        )
        assert merged.statistics() == serial.statistics()
        assert merged.now_cycle == serial.now_cycle

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru"])
    def test_policies(self, replacement):
        trace = full_mix_trace(2500, seed=43)
        machine = machine_for("split", replacement)
        serial = replay_machine(trace, machine, seed=1)
        merged = sharded_replay(trace, machine, 4, seed=1, processes=False)
        assert merged.statistics() == serial.statistics()

    def test_worker_processes(self):
        trace = full_mix_trace(2000, seed=47)
        machine = machine_for("split")
        serial = replay_machine(trace, machine, seed=2)
        merged = sharded_replay(trace, machine, 2, seed=2, processes=True)
        assert merged.statistics() == serial.statistics()

    def test_empty_trace(self):
        trace = BusTrace(words=np.zeros(0, dtype=np.uint64))
        machine = machine_for("single")
        merged = sharded_replay(trace, machine, 2, processes=False)
        assert merged.statistics() == replay_machine(trace, machine).statistics()

    def test_wrap_aware_merge(self):
        """Raw sums crossing the 40-bit boundary alias like a serial bank."""
        from repro.supervisor.worker import merge_shard_payloads, shard_payload

        machine = machine_for("single")
        board_a = board_for_machine(machine)
        board_a.global_counter.counters.increment("bus.tenures", COUNTER_MASK)
        board_b = board_for_machine(machine)
        board_b.global_counter.counters.increment("bus.tenures", 5)
        merged = board_for_machine(machine)
        merge_shard_payloads(
            merged, [shard_payload(board_a), shard_payload(board_b)]
        )
        # COUNTER_MASK + 5 wraps to 4 on a 40-bit readout.
        assert merged.global_counter.counters.read("bus.tenures") == 4
        assert merged.global_counter.counters.wrapped("bus.tenures")


class TestShardingValidation:
    def test_shard_count_must_be_power_of_two(self):
        machine = machine_for("single")
        with pytest.raises(ConfigurationError, match="power of two"):
            validate_sharding(machine, 3)

    def test_random_replacement_refused(self):
        machine = machine_for("split", "random")
        with pytest.raises(ConfigurationError, match="random"):
            validate_sharding(machine, 2)

    def test_sdram_refused(self):
        from repro.memories.sdram import SdramModel

        machine = machine_for("single")
        board = board_for_machine(machine)
        board.firmware.nodes[0].sdram = SdramModel()
        with pytest.raises(ConfigurationError, match="SDRAM"):
            validate_sharding(machine, 2, board)

    def test_fast_bus_refused(self):
        """Tenures arriving faster than the buffer drains couple the shards."""
        machine = machine_for("single")
        board = board_for_machine(machine, assumed_utilization=0.9)
        with pytest.raises(ConfigurationError, match="service"):
            validate_sharding(machine, 2, board)

    def test_shard_field_must_fit_every_index_field(self):
        # 2 sets per node: a one-bit index field cannot hold 4 shard bits.
        tiny = CacheNodeConfig(size=1024, assoc=4, line_size=128)
        machine = single_node_machine(tiny, 4)
        with pytest.raises(ConfigurationError, match="set-index"):
            validate_sharding(machine, 16)

    def test_mixed_line_sizes_use_widest_offset(self):
        coarse = CacheNodeConfig(size=128 * 1024, assoc=4, line_size=256)
        fine = CacheNodeConfig(size=64 * 1024, assoc=4, line_size=64)
        machine = multi_config_machine([coarse, fine], 4)
        shift = validate_sharding(machine, 2)
        # The shard field must clear the *largest* line offset so one
        # coarse line never spans shards.
        assert shift == 8

    def test_shards_one_always_valid(self):
        machine = machine_for("split", "random")
        trace = full_mix_trace(300, seed=53)
        merged = sharded_replay(trace, machine, 1, processes=False)
        serial = replay_machine(trace, machine)
        assert merged.statistics() == serial.statistics()
