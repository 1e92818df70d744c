"""Bit-identity of the batched and compiled replay engines against scalar.

The fast engines (:mod:`repro.memories.batch`,
:mod:`repro.memories.compiled`) are only allowed to be fast — never
different.  These tests replay identical traces through each path and
require the full board checkpoint (directories, buffers, counters,
clock, sampler cursor) to come out equal, across firmware shapes,
replacement policies, telemetry cadences and degraded starting states;
a property-based sweep drives randomized mixes through the same
comparison, and a saturated-buffer sweep pins the rejected-tenure
accounting parity of the cache-protocol runner's admission mode.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.trace import BusTrace, encode_arrays
from repro.engines import ENGINES
from repro.memories.batch import replay_words_batched
from repro.memories.board import MemoriesBoard, board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.memories.counters import COUNTER_MASK
from repro.memories.tx_buffer import TransactionBuffer
from repro.target.configs import (
    multi_config_machine,
    single_node_machine,
    split_smp_machine,
)
from repro.telemetry import CounterSampler, MemorySink

N_CPUS = 8


def full_mix_words(
    n: int,
    seed: int = 0,
    n_cpus: int = N_CPUS,
    max_cpu: int = N_CPUS,
    address_space: int = 1 << 24,
) -> np.ndarray:
    """Records covering every command and response, ~1/3 filtered.

    ``max_cpu`` above the machine's CPU count exercises the unmapped-master
    paths (remote probes from uninstantiated nodes, I/O bridge DMA).
    """
    rng = np.random.default_rng(seed)
    cpu_ids = rng.integers(0, max_cpu, n).astype(np.uint64)
    commands = rng.choice(
        np.arange(8, dtype=np.uint64),
        size=n,
        p=[0.40, 0.12, 0.06, 0.10, 0.08, 0.08, 0.08, 0.08],
    )
    responses = rng.choice(
        np.arange(4, dtype=np.uint64), size=n, p=[0.55, 0.20, 0.10, 0.15]
    )
    addresses = (
        rng.integers(0, address_space // 64, n).astype(np.uint64)
    ) * np.uint64(64)
    return encode_arrays(cpu_ids, commands, addresses, responses)


def machine_for(kind: str, replacement: str = "lru"):
    config = CacheNodeConfig(
        size=128 * 1024, assoc=4, line_size=128, replacement=replacement
    )
    if kind == "single":
        return single_node_machine(config, N_CPUS)
    if kind == "split":
        return split_smp_machine(config, N_CPUS, 2)
    other = CacheNodeConfig(
        size=64 * 1024, assoc=2, line_size=64, replacement=replacement
    )
    return multi_config_machine([config, other], N_CPUS)


def assert_paths_identical(make_board, words, chunks=None, engine=None):
    """Replay scalar and a fast engine; require identical checkpoints.

    ``engine`` names a registered engine to drive explicitly; None uses
    the board's own routing (``select_board_engine``), which picks the
    highest-rank eligible engine.
    """
    scalar = make_board()
    scalar.batched_replay = False
    other = make_board()
    assert other.batched_replay
    replay = (
        other.replay_words
        if engine is None
        else (lambda part: ENGINES[engine].replay(other, part))
    )
    parts = np.array_split(words, chunks) if chunks else [words]
    for part in parts:
        scalar.replay_words(part)
        replay(part)
    assert scalar.statistics() == other.statistics()
    assert scalar.now_cycle == other.now_cycle
    assert scalar.retries_posted == other.retries_posted
    assert scalar.checkpoint() == other.checkpoint()
    return scalar, other


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("kind", ["single", "split", "multi"])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random", "plru"])
    def test_every_machine_and_policy(self, kind, replacement):
        words = full_mix_words(4000, seed=7)
        machine = machine_for(kind, replacement)
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), words,
            engine="batched",
        )

    def test_chunked_replay_matches(self):
        words = full_mix_words(3000, seed=11)
        machine = machine_for("split")
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=1), words, chunks=7,
            engine="batched",
        )

    def test_empty_and_all_filtered_traces(self):
        machine = machine_for("single")
        empty = np.zeros(0, dtype=np.uint64)
        assert_paths_identical(lambda: board_for_machine(machine), empty)
        rng = np.random.default_rng(5)
        n = 500
        filtered = encode_arrays(
            rng.integers(0, N_CPUS, n).astype(np.uint64),
            rng.integers(4, 8, n).astype(np.uint64),  # IO/interrupt/sync only
            rng.integers(0, 1 << 20, n).astype(np.uint64),
        )
        assert_paths_identical(lambda: board_for_machine(machine), filtered)

    def test_resumes_from_degraded_state(self):
        """The engine must be exact from any starting state, not just reset."""
        words = full_mix_words(2500, seed=13)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=9)
            board.batched_replay = False
            board.replay_words(full_mix_words(800, seed=21))
            board.firmware.offline_node(1)
            board.note_snoop_loss(0x1000)
            board.batched_replay = True
            return board

        assert_paths_identical(make_board, words)


    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru", "random"])
    def test_duplicate_tags_map_to_first_occurrence(self, engine, replacement):
        """Tag flips can leave two resident lines with one tag; installs
        must keep the scalar way map (first occurrence wins)."""
        words = full_mix_words(2500, seed=5, address_space=1 << 20)
        machine = machine_for("split", replacement)

        def make_board():
            board = board_for_machine(machine, seed=9)
            board.batched_replay = False
            board.replay_words(full_mix_words(3000, seed=21, address_space=1 << 20))
            for node in board.firmware.nodes:
                directory = node.directory
                for set_index, tags in enumerate(directory._tags):
                    if len(tags) < 2:
                        continue
                    diff = tags[0] ^ tags[1]
                    for bit in range(diff.bit_length()):
                        if diff >> bit & 1:
                            directory.inject_bit_flip(set_index, 1, bit)
            board.batched_replay = True
            return board

        assert_paths_identical(make_board, words, engine=engine)


class TestCompiledBitIdentity:
    """The compiled engine (closed-form buffer settlement) vs scalar."""

    @pytest.mark.parametrize("kind", ["single", "split", "multi"])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru", "random"])
    def test_every_machine_and_policy(self, kind, replacement):
        words = full_mix_words(4000, seed=7)
        machine = machine_for(kind, replacement)
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), words,
            engine="compiled",
        )

    def test_random_policy_falls_back_identically(self):
        # Random victims fall back to the policy object's own install,
        # so the board-wide RNG is drawn in the scalar order and random
        # boards route to compiled like every other stock policy.
        from repro.engines import select_board_engine

        machine = machine_for("split", "random")
        assert select_board_engine(board_for_machine(machine)).name == (
            "compiled"
        )
        words = full_mix_words(1500, seed=43)
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), words
        )

    def test_injected_burst_falls_back_identically(self):
        # A fault injector's burst leaves finish times queued beyond the
        # next tenure, which the closed-form buffer settlement cannot
        # express; the occupancy guard must hand the call to batched.
        from repro.memories.compiled import _buffers_decoupled

        words = full_mix_words(2000, seed=45)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=3)
            board.batched_replay = False
            board.replay_words(full_mix_words(500, seed=21))
            board.batched_replay = True
            injected = board.firmware.nodes[1].buffer.inject_occupancy(
                board.now_cycle, 40
            )
            assert injected == 40
            assert not _buffers_decoupled(board)
            return board

        _scalar, fast = assert_paths_identical(
            make_board, words, engine="compiled"
        )
        assert fast.statistics()["node1.buffer.high_water"] > 1
        # Once the backlog has drained the closed form applies again.
        assert _buffers_decoupled(fast)

    def test_default_routing_selects_compiled(self):
        from repro.engines import select_board_engine

        board = board_for_machine(machine_for("split"))
        assert select_board_engine(board).name == "compiled"
        words = full_mix_words(2000, seed=47)
        assert_paths_identical(
            lambda: board_for_machine(machine_for("split"), seed=3), words
        )


class TestOrderCouplingBoundary:
    """Soundness witness for ``no_global_order_coupling``.

    The compiled engine settles buffers in closed form (depth at most
    one), which is exact whenever no service time exceeds the bus tenure.
    At the boundary the capability is granted and compiled stays
    bit-identical; one ulp past it the capability is denied, and scalar
    replay really does queue two operations, which the closed form
    could never report.

    Rounding can absorb that ulp (at the default 10-cycle tenure every
    ``t + service`` rounds back onto the next tenure), so the witness
    runs at 30% utilization, a 20/3-cycle tenure, where the first two
    tenures already overlap.
    """

    UTILIZATION = 0.3

    def retime(self, board, service):
        for node in board.firmware.nodes:
            stats = node.buffer.stats
            node.buffer = TransactionBuffer(service_cycles=service)
            node.buffer.stats = stats
        return board

    def back_to_back(self):
        # Two admitted reads from cpu 0: one node, one tenure apart.
        return encode_arrays(
            np.zeros(2, dtype=np.uint64),
            np.zeros(2, dtype=np.uint64),
            np.array([0, 1 << 12], dtype=np.uint64),
        )

    def test_service_equal_to_tenure_is_granted(self):
        from repro.engines import select_board_engine
        from repro.engines.capabilities import Capability, prove_capabilities

        machine = machine_for("split")

        def make_board():
            board = board_for_machine(
                machine, seed=3, assumed_utilization=self.UTILIZATION
            )
            return self.retime(board, board.cycles_per_tenure)

        board = make_board()
        assert prove_capabilities(board).grants(
            Capability.NO_GLOBAL_ORDER_COUPLING
        )
        assert select_board_engine(board).name == "compiled"
        words = np.concatenate(
            [self.back_to_back(), full_mix_words(2000, seed=79)]
        )
        scalar, _fast = assert_paths_identical(
            make_board, words, engine="compiled"
        )
        assert scalar.statistics()["node0.buffer.high_water"] == 1

    def test_one_ulp_slower_is_denied_and_diverges(self):
        from repro.engines import decide, select_board_engine
        from repro.engines.capabilities import Capability
        from repro.memories.batch import replay_with_runner
        from repro.memories.compiled import _protocol_runner

        machine = machine_for("split")

        def make_board():
            board = board_for_machine(
                machine, seed=3, assumed_utilization=self.UTILIZATION
            )
            service = math.nextafter(board.cycles_per_tenure, math.inf)
            return self.retime(board, service)

        board = make_board()
        decision = decide("compiled", board=board)
        assert decision.missing == {Capability.NO_GLOBAL_ORDER_COUPLING}
        assert "exceeds the bus tenure" in decision.reason()
        assert select_board_engine(board).name == "batched"

        words = self.back_to_back()
        scalar, _fast = assert_paths_identical(make_board, words)
        assert scalar.firmware.nodes[0].buffer.stats.high_water == 2
        # The divergence is real: the closed form, forced past the
        # guard, reports depth one.
        forced = make_board()
        replay_with_runner(
            forced, words, _protocol_runner(forced.firmware, closed_form=True)
        )
        assert forced.firmware.nodes[0].buffer.stats.high_water == 1
        assert forced.checkpoint() != scalar.checkpoint()


class TestTelemetryChunking:
    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    @pytest.mark.parametrize(
        ("cadence", "kind", "max_cpu"),
        [
            (1, "split", N_CPUS),
            (7, "split", N_CPUS),
            (64, "split", N_CPUS),
            (1024, "split", N_CPUS),
            # CPU ids past the machine's: unmapped processors (8..15)
            # snoop every controller and I/O bridges (16..19) DMA, so the
            # compiled engine settles unmapped-master tallies per chunk.
            (37, "split", 20),
            (37, "multi", 20),
        ],
        ids=["1", "7", "64", "1024", "37-split-unmapped", "37-multi-unmapped"],
    )
    def test_transaction_cadence_identical(self, cadence, kind, max_cpu, engine):
        words = full_mix_words(2000, seed=17, max_cpu=max_cpu)
        machine = machine_for(kind)

        def make_board(sink):
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(
                CounterSampler(sink, every_transactions=cadence)
            )
            return board

        scalar_sink, fast_sink = MemorySink(), MemorySink()
        scalar = make_board(scalar_sink)
        scalar.batched_replay = False
        fast = make_board(fast_sink)
        scalar.replay_words(words)
        ENGINES[engine].replay(fast, words)
        scalar.telemetry.finish(scalar)
        fast.telemetry.finish(fast)
        assert scalar_sink.records == fast_sink.records
        assert len(fast_sink.records) > 0
        assert scalar.statistics() == fast.statistics()
        assert scalar.checkpoint() == fast.checkpoint()

    def test_cycle_cadence_identical(self):
        words = full_mix_words(1500, seed=19)
        machine = machine_for("single")
        sinks = []

        def make_board():
            sink = MemorySink()
            sinks.append(sink)
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(CounterSampler(sink, every_cycles=730.0))
            return board

        assert_paths_identical(make_board, words, chunks=3)
        scalar_sink, batched_sink = sinks
        assert scalar_sink.records == batched_sink.records
        assert len(batched_sink.records) > 0


class TestEngineSelection:
    def test_flag_forces_scalar(self, monkeypatch):
        words = full_mix_words(200, seed=23)
        board = board_for_machine(machine_for("single"))
        board.batched_replay = False
        calls = []
        monkeypatch.setattr(
            "repro.memories.batch.replay_words_batched",
            lambda *a: calls.append(a) or None,
        )
        board.replay_words(words)
        assert not calls

    def test_ecc_scrubber_declines_batching(self):
        from repro.engines import Capability, decide, select_board_engine

        words = full_mix_words(600, seed=29)
        machine = machine_for("single")
        board = board_for_machine(machine, ecc=True, scrub_interval=500.0)
        # The capability prover denies INERT_BACKGROUND_TICK (the patrol
        # scrubber must tick between tenures), so the registry rejects the
        # batched engine and routes the board to the scalar path.
        decision = decide("batched", board=board)
        assert not decision.eligible
        assert Capability.INERT_BACKGROUND_TICK in decision.missing
        assert "scrubber" in decision.reason()
        assert select_board_engine(board).name == "scalar"
        # replay_words still works (scalar selection) and matches a forced
        # scalar run exactly.
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=4, ecc=True,
                                      scrub_interval=500.0),
            words,
        )

    def test_sdram_node_uses_generic_runner(self):
        """SDRAM-priced buffers exclude the protocol runner, not batching."""
        from repro.memories.sdram import SdramModel

        words = full_mix_words(1200, seed=31)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=6)
            board.firmware.nodes[0].sdram = SdramModel()
            return board

        assert_paths_identical(make_board, words)

    def test_stock_cache_firmware_bypasses_process(self, monkeypatch):
        """Stock cache firmware replays on the protocol runner's admission
        mode, never through ``firmware.process`` per tenure."""
        machine = machine_for("split")
        words = full_mix_words(1500, seed=83)
        scalar = board_for_machine(machine, seed=2)
        scalar.batched_replay = False
        scalar.replay_words(words)
        fast = board_for_machine(machine, seed=2)

        def refuse(*_args):
            raise AssertionError("firmware.process ran per tenure")

        monkeypatch.setattr(fast.firmware, "process", refuse)
        assert replay_words_batched(fast, words) == len(words)
        assert fast.checkpoint() == scalar.checkpoint()

    def test_tracer_firmware_generic_runner(self):
        from repro.memories.firmware.tracer import TraceCollectorFirmware

        words = full_mix_words(800, seed=37)

        def make_board():
            return MemoriesBoard(
                TraceCollectorFirmware(capacity=2000), name="t"
            )

        scalar, batched = assert_paths_identical(make_board, words)
        assert np.array_equal(
            scalar.firmware.to_trace().words, batched.firmware.to_trace().words
        )


class TestZeroCountdownRegression:
    """A sampler countdown at (or below) zero on entry must not produce
    an empty chunk (this used to crash ``_run_chunk`` on ``steps[0]``)."""

    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    @pytest.mark.parametrize("countdown", [0, -3])
    def test_zero_countdown_entry_matches_scalar(self, engine, countdown):
        words = full_mix_words(300, seed=53)
        machine = machine_for("split")

        def make_board(sink):
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(
                CounterSampler(sink, every_transactions=50)
            )
            # Force the degenerate entry state a detach/reattach landing
            # exactly on a cadence boundary produces.
            board.telemetry._countdown = countdown
            return board

        scalar_sink, fast_sink = MemorySink(), MemorySink()
        scalar = make_board(scalar_sink)
        scalar.batched_replay = False
        fast = make_board(fast_sink)
        scalar.replay_words(words)
        ENGINES[engine].replay(fast, words)
        assert scalar_sink.records == fast_sink.records
        assert scalar.statistics() == fast.statistics()
        assert scalar.checkpoint() == fast.checkpoint()

    def test_zero_countdown_no_longer_crashes(self):
        board = board_for_machine(machine_for("single"))
        board.attach_telemetry(
            CounterSampler(MemorySink(), every_transactions=10)
        )
        board.telemetry._countdown = 0
        assert replay_words_batched(board, full_mix_words(25, seed=1)) == 25


class TestRejectedParity:
    """Rejected-tenure accounting parity under saturated buffers.

    The runner's admission pre-check drains every group's local queue and
    increments ``rejected`` only on the full ones; scalar
    ``CacheEmulationFirmware.process`` must account identically, proven
    here with deliberately tiny capacities and service times far above
    the tenure spacing so refusals actually occur.
    """

    def saturate(self, board, capacity, service):
        for node in board.firmware.nodes:
            stats = node.buffer.stats
            node.buffer = TransactionBuffer(
                capacity=capacity, service_cycles=service
            )
            node.buffer.stats = stats
        return board

    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    @pytest.mark.parametrize("kind", ["split", "multi"])
    def test_saturated_buffers_identical(self, engine, kind):
        words = full_mix_words(2000, seed=59)
        machine = machine_for(kind)

        def make_board():
            return self.saturate(
                board_for_machine(machine, seed=2), capacity=1, service=5e4
            )

        scalar, fast = assert_paths_identical(
            make_board, words, engine=engine
        )
        stats = scalar.statistics()
        rejected = sum(
            value for key, value in stats.items()
            if key.endswith("buffer.rejected")
        )
        assert rejected > 0, "saturation did not produce refusals"
        assert scalar.retries_posted > 0

    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    def test_refused_snoop_skips_probe(self, engine):
        """A snoop that its target's full buffer refuses is dropped
        before the probe: the target's copy of the line stays as it was."""
        machine = machine_for("split")
        words = full_mix_words(2000, seed=97, address_space=1 << 16)

        def make_board():
            board = board_for_machine(machine, seed=2)
            board.batched_replay = False
            board.replay_words(
                full_mix_words(2000, seed=101, address_space=1 << 16)
            )
            board.batched_replay = True
            slow = board.firmware.nodes[1]
            stats = slow.buffer.stats
            slow.buffer = TransactionBuffer(capacity=1, service_cycles=5e4)
            slow.buffer.stats = stats
            return board

        scalar, _fast = assert_paths_identical(make_board, words, engine=engine)
        assert scalar.statistics()["node1.buffer.rejected"] > 0

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        capacity=st.integers(1, 3),
        service=st.sampled_from([100.0, 3e3, 5e4]),
        engine=st.sampled_from(["batched", "compiled"]),
        replacement=st.sampled_from(["lru", "fifo", "plru", "random"]),
    )
    def test_rejected_accounting_property(
        self, seed, capacity, service, engine, replacement
    ):
        words = full_mix_words(700, seed=seed)
        machine = machine_for("multi", replacement)

        def make_board():
            return self.saturate(
                board_for_machine(machine, seed=seed % 13),
                capacity=capacity,
                service=service,
            )

        assert_paths_identical(make_board, words, engine=engine)

class TestEdgeChunks:
    """Chunk-shape edges: all-filtered chunks, chunk size 1, boundaries
    landing exactly on the countdown, wrap-adjacent 40-bit counters."""

    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    def test_all_filtered_chunks_with_telemetry(self, engine):
        # Every record is filtered (IO/interrupt/sync): chunks contain
        # zero admitted tenures but must still advance clock, filter
        # stats and the sampler cursor exactly.
        rng = np.random.default_rng(5)
        n = 200
        words = encode_arrays(
            rng.integers(0, N_CPUS, n).astype(np.uint64),
            rng.integers(4, 8, n).astype(np.uint64),
            rng.integers(0, 1 << 20, n).astype(np.uint64),
        )
        machine = machine_for("single")

        def make_board():
            board = board_for_machine(machine)
            board.attach_telemetry(
                CounterSampler(MemorySink(), every_transactions=3)
            )
            return board

        assert_paths_identical(make_board, words, engine=engine)

    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    def test_single_record_chunks(self, engine):
        # Cadence 1 makes every chunk exactly one record long.
        words = full_mix_words(120, seed=67)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(
                CounterSampler(MemorySink(), every_transactions=1)
            )
            return board

        assert_paths_identical(make_board, words, engine=engine)

    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    def test_boundary_exactly_on_countdown(self, engine):
        # Trace length an exact multiple of the cadence: the final chunk
        # ends on the countdown and on_countdown fires at the last record.
        cadence = 64
        words = full_mix_words(cadence * 5, seed=71)
        machine = machine_for("split")
        sinks = []

        def make_board():
            sink = MemorySink()
            sinks.append(sink)
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(
                CounterSampler(sink, every_transactions=cadence)
            )
            return board

        assert_paths_identical(make_board, words, engine=engine)
        scalar_sink, fast_sink = sinks
        assert scalar_sink.records == fast_sink.records
        assert len(fast_sink.records) == 5

    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    def test_wrap_adjacent_global_counters(self, engine):
        # Seed the global bank just below the 40-bit mask so
        # record_batch wraps mid-replay; masked readouts and the
        # wrapped-counter report must match scalar exactly.
        words = full_mix_words(1500, seed=73)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=2)
            bank = board.global_counter.counters
            bank.increment("bus.cycles", COUNTER_MASK - 500)
            bank.increment("bus.tenures", COUNTER_MASK - 3)
            return board

        scalar, fast = assert_paths_identical(make_board, words, engine=engine)
        bank = fast.global_counter.counters
        assert bank.wrapped("bus.cycles") and bank.wrapped("bus.tenures")
        assert bank.read("bus.tenures") == bank.read_raw("bus.tenures") & COUNTER_MASK


class TestBatchedProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 600),
        kind=st.sampled_from(["single", "split", "multi"]),
        replacement=st.sampled_from(["lru", "fifo", "random", "plru"]),
        cadence=st.sampled_from([None, 1, 13, 256]),
        engine=st.sampled_from([None, "batched", "compiled"]),
    )
    def test_randomized_mix_identical(
        self, seed, n, kind, replacement, cadence, engine
    ):
        words = full_mix_words(n, seed=seed)
        machine = machine_for(kind, replacement)

        def make_board():
            board = board_for_machine(machine, seed=seed % 17)
            if cadence is not None:
                board.attach_telemetry(
                    CounterSampler(MemorySink(), every_transactions=cadence)
                )
            return board

        assert_paths_identical(
            make_board, words, chunks=min(3, n), engine=engine
        )
