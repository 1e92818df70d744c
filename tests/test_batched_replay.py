"""Bit-identity of the compiled replay engine against scalar.

The fast engine (:mod:`repro.memories.batch`,
:mod:`repro.memories.compiled`) is only allowed to be fast — never
different.  These tests replay identical traces through each path and
require the full board checkpoint (directories, buffers, counters,
clock, sampler cursor) to come out equal, across firmware shapes,
replacement policies, telemetry cadences and degraded starting states;
a property-based sweep drives randomized mixes through the same
comparison, and a saturated-buffer sweep pins the rejected-tenure
accounting parity of buffers that refuse work.  Every replay goes
through the compiled engine's own routing, in both buffer regimes it
tells apart (:data:`FAST_REGIMES`): decoupled buffers on the protocol
runner's set lanes, settled in closed form, and coupled or backlogged
buffers on ``firmware.process`` per tenure; the routing itself is
pinned, and so is the routing of boards and calls the lanes refuse.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.trace import ADDRESS_BITS, decode_arrays, encode_arrays
from repro.bus.transaction import MAX_PROCESSOR_ID, BusCommand, SnoopResponse
from repro.engines import ENGINES
from repro.memories.board import (
    DEFAULT_ASSUMED_UTILIZATION,
    CacheEmulationFirmware,
    MemoriesBoard,
    board_for_machine,
)
from repro.memories.batch import _generic_runner, replay_with_runner
from repro.memories.compiled import _buffers_decoupled, _protocol_runner
from repro.memories.config import CacheNodeConfig
from repro.memories.counters import COUNTER_MASK
from repro.memories.tx_buffer import FILTER_BUFFER_ENTRIES, TransactionBuffer
from repro.target.configs import (
    multi_config_machine,
    single_node_machine,
    split_smp_machine,
)
from repro.target.mapping import TargetMachine, TargetNodeSpec
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


def machine_for(kind: str, replacement: str = "lru", protocol: str = "mesi"):
    config = CacheNodeConfig(
        size=128 * 1024, assoc=4, line_size=128, replacement=replacement,
        protocol=protocol,
    )
    if kind == "single":
        return single_node_machine(config, N_CPUS)
    if kind == "split":
        return split_smp_machine(config, N_CPUS, 2)
    if kind == "far-cpu":
        # Two 4-CPU nodes, and a third whose one CPU, 300, a packed
        # record's 8-bit cpu field cannot name: it issues no tenure and
        # snoops the others'.
        near = split_smp_machine(config, N_CPUS, 4)
        far = TargetNodeSpec(config=replace(config, procs_per_node=1),
                             cpus=(300,), group=0)
        return TargetMachine(nodes=near.nodes + (far,))
    if kind == "multi":
        other = CacheNodeConfig(
            size=64 * 1024, assoc=2, line_size=64, replacement=replacement,
            protocol=protocol,
        )
        return multi_config_machine([config, other], N_CPUS)
    if kind == "groups4":
        # sweep4's shape: 2-way (``replacement``, LRU in sweep4), 4-way
        # PLRU, 8-way FIFO and 4-way LRU, each group its own set count.
        shapes = ((64 << 10, 2, 128, replacement), (128 << 10, 4, 64, "plru"),
                  (512 << 10, 8, 64, "fifo"), (1 << 20, 4, 128, "lru"))
    else:
        # "dm2", Figure 10's shape: a direct-mapped node beside an 8-way.
        shapes = ((32 << 10, 1, 128, "lru"), (512 << 10, 8, 128, replacement))
    return multi_config_machine([
        CacheNodeConfig(size=size, assoc=assoc, line_size=line,
                        replacement=policy, protocol=protocol)
        for size, assoc, line, policy in shapes
    ], N_CPUS)


#: The utilization of a coupled board: at 90% the bus tenure is shorter
#: than a node buffer's service time, so queues build up.
COUPLED_UTILIZATION = 0.9

#: The two buffer regimes the compiled engine tells apart, as boards.
#: ``compiled``: the stock board, whose buffers keep up with the bus, so
#: the engine settles them in closed form.  ``coupled``: the same board
#: at :data:`COUPLED_UTILIZATION`, so the engine replays
#: ``firmware.process`` per tenure.  The coupled regime's test id,
#: ``batched``, predates its name.
FAST_REGIMES = [pytest.param("coupled", id="batched"), "compiled"]


def regimes_on(kind):
    """:data:`FAST_REGIMES` on a single-group machine ``kind``, under
    their plain ids, and on ``groups4``, sweep4's four coherence groups,
    as ``(regime, kind)`` parameters."""
    return [
        pytest.param(regime, machine, id=name + suffix)
        for machine, suffix in ((kind, ""), ("groups4", "-groups4"))
        for regime, name in (("coupled", "batched"), ("compiled", "compiled"))
    ]


def regime_board(regime, machine, seed):
    """A board for ``machine`` in one of the :data:`FAST_REGIMES`."""
    coupled = regime == "coupled"
    board = board_for_machine(
        machine, seed=seed,
        assumed_utilization=(
            COUPLED_UTILIZATION if coupled else DEFAULT_ASSUMED_UTILIZATION
        ),
    )
    assert _buffers_decoupled(board) is not coupled
    return board


def assert_paths_identical(make_board, words, chunks=None, engine=None):
    """Replay scalar and a fast path; require identical checkpoints.

    ``engine`` names an engine of ``ENGINES`` to drive explicitly; None
    uses the board's own routing (``select_board_engine``), which picks
    compiled wherever the board grants what it requires.
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
        # Coupled buffers: the engine replays firmware.process per tenure.
        words = full_mix_words(4000, seed=7)
        machine = machine_for(kind, replacement)
        assert_paths_identical(
            lambda: regime_board("coupled", machine, seed=3), words,
            engine="compiled",
        )

    def test_chunked_replay_matches(self):
        # Coupled buffers carry their queues from call to call.
        words = full_mix_words(3000, seed=11)
        machine = machine_for("split")
        assert_paths_identical(
            lambda: regime_board("coupled", machine, seed=1), words,
            chunks=7, engine="compiled",
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


    @pytest.mark.parametrize("regime", FAST_REGIMES)
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru", "random"])
    def test_duplicate_tags_map_to_first_occurrence(self, regime, replacement):
        """Tag flips can leave two resident lines with one tag; installs
        must keep the scalar way map (first occurrence wins)."""
        words = full_mix_words(2500, seed=5, address_space=1 << 20)
        machine = machine_for("split", replacement)

        def make_board():
            board = regime_board(regime, machine, seed=9)
            board.batched_replay = False
            board.replay_words(full_mix_words(3000, seed=21, address_space=1 << 20))
            for node in board.firmware.nodes:
                directory = node.directory
                for set_index in range(directory.config.num_sets):
                    tags = directory.set_tags(set_index)
                    if len(tags) < 2:
                        continue
                    diff = tags[0] ^ tags[1]
                    for bit in range(diff.bit_length()):
                        if diff >> bit & 1:
                            directory.inject_bit_flip(set_index, 1, bit)
            board.batched_replay = True
            return board

        assert_paths_identical(make_board, words, engine="compiled")


class TestCompiledBitIdentity:
    """The compiled engine (closed-form buffer settlement) vs scalar."""

    @pytest.mark.parametrize("kind", ["single", "split", "multi", "groups4"])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru", "random"])
    def test_every_machine_and_policy(self, kind, replacement):
        words = full_mix_words(4000, seed=7)
        machine = machine_for(kind, replacement)
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), words,
            engine="compiled",
        )

    def test_random_policy_falls_back_identically(self):
        # Random boards route to compiled like every other stock policy
        # and replay on the generic runner, so the board-wide RNG is
        # drawn by the policy object itself, in the scalar order.
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
        # express; the occupancy guard must pick the generic runner.
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
    """Soundness witness for the service bound of ``_buffers_decoupled``.

    The compiled engine settles buffers in closed form (depth at most
    one), which is exact whenever no service time exceeds the bus tenure.
    At the boundary the protocol runner takes the board and stays
    bit-identical; one ulp past it the engine refuses the closed form,
    and scalar replay really does queue two operations, which the closed
    form could never report.

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

        machine = machine_for("split")

        def make_board():
            board = board_for_machine(
                machine, seed=3, assumed_utilization=self.UTILIZATION
            )
            return self.retime(board, board.cycles_per_tenure)

        board = make_board()
        assert _buffers_decoupled(board)
        assert select_board_engine(board).name == "compiled"
        words = np.concatenate(
            [self.back_to_back(), full_mix_words(2000, seed=79)]
        )
        scalar, _fast = assert_paths_identical(
            make_board, words, engine="compiled"
        )
        assert scalar.statistics()["node0.buffer.high_water"] == 1

    def test_one_ulp_slower_is_denied_and_diverges(self):
        from repro.engines import select_board_engine

        machine = machine_for("split")

        def make_board():
            board = board_for_machine(
                machine, seed=3, assumed_utilization=self.UTILIZATION
            )
            service = math.nextafter(board.cycles_per_tenure, math.inf)
            return self.retime(board, service)

        board = make_board()
        assert not _buffers_decoupled(board)
        # The compiled engine still replays the board, bit-identically,
        # on the generic runner.
        assert select_board_engine(board).name == "compiled"

        words = self.back_to_back()
        scalar, _fast = assert_paths_identical(make_board, words)
        assert scalar.firmware.nodes[0].buffer.stats.high_water == 2
        # The divergence is real: the closed form, forced past the
        # guard, reports depth one.
        forced = make_board()
        replay_forced_lanes(forced, words)
        assert forced.firmware.nodes[0].buffer.stats.high_water == 1
        assert forced.checkpoint() != scalar.checkpoint()

    def test_slow_filter_buffer_keeps_the_closed_form(self, monkeypatch):
        """The address filter's buffer is outside the regime: neither
        runner touches it and ``offer_batch`` replays it exactly at any
        spacing, so a filter slower than the tenure leaves the protocol
        runner in charge and the replay exact."""
        from repro.memories import compiled

        def refuse(*_args):
            raise AssertionError("the generic runner was built")

        monkeypatch.setattr(compiled, "_generic_runner", refuse)
        machine = TestLockstepChooser.split4()

        def make_board():
            board = board_for_machine(machine, seed=3)
            board.address_filter.buffer = TransactionBuffer(
                capacity=FILTER_BUFFER_ENTRIES,
                service_cycles=3 * board.cycles_per_tenure,
            )
            return board

        assert _buffers_decoupled(make_board())
        words = full_mix_words(20_000, seed=89, address_space=4 << 20)
        scalar, _fast = assert_paths_identical(
            make_board, words, engine="compiled"
        )
        assert scalar.address_filter.buffer.stats.high_water > 1


class UnhintedTickFirmware(CacheEmulationFirmware):
    """Stock cache emulation with a tick that counts itself into the
    checkpoint, and no ``tick_active()`` hint to prove it idle."""

    tick_active = None

    def __init__(self, machine, seed: int = 0) -> None:
        super().__init__(machine, seed=seed)
        self.ticks = 0

    def tick(self, now_cycle: float) -> None:
        super().tick(now_cycle)
        self.ticks += 1

    def state_dict(self) -> dict:
        return dict(super().state_dict(), ticks=self.ticks)


class TestInertTickBoundary:
    """Soundness witness for ``inert_background_tick``, the one
    capability the compiled engine requires.

    An active ECC patrol scrubber ticks between tenures on the scalar
    loop.  The compiled engine's chunk loop never ticks, so forced onto
    such a board it reproduces every statistic yet leaves the scrubber
    where it started: the checkpoints differ, and the denial that routes
    the board to scalar is real.  The same holds for a firmware tick
    hook with no ``tick_active()`` hint, the prover's other denial.
    """

    def test_active_scrubber_is_denied_and_diverges(self):
        from repro.engines import select_board_engine
        from repro.engines.capabilities import Capability, prove_capabilities
        from repro.experiments.replay_bench import bench_machine, bench_trace

        machine = bench_machine()

        def make_board():
            return board_for_machine(
                machine, seed=1, ecc=True, scrub_interval=500.0
            )

        board = make_board()
        assert not prove_capabilities(board).grants(
            Capability.INERT_BACKGROUND_TICK
        )
        assert select_board_engine(board).name == "scalar"

        words = bench_trace(20_000, seed=5).words
        scalar = make_board()
        scalar.replay_words(words)
        forced = make_board()
        ENGINES["compiled"].replay(forced, words)
        assert forced.statistics() == scalar.statistics()
        assert scalar.firmware.nodes[0].directory.ecc_stats.scrub_passes > 0
        assert forced.firmware.nodes[0].directory.ecc_stats.scrub_passes == 0
        assert forced.checkpoint() != scalar.checkpoint()

    def test_unhinted_tick_is_denied_and_diverges(self):
        # A tick hook without a tick_active() hint cannot be proven idle;
        # this one is not, so forcing compiled past the denial loses it.
        from repro.engines import select_board_engine
        from repro.engines.capabilities import Capability, prove_capabilities

        machine = machine_for("split")

        def make_board():
            return MemoriesBoard(UnhintedTickFirmware(machine, seed=3))

        proof = prove_capabilities(make_board())
        assert not proof.grants(Capability.INERT_BACKGROUND_TICK)
        assert any(
            "no tick_active() hint" in reason
            for reason in proof.reasons(Capability.INERT_BACKGROUND_TICK)
        )
        assert select_board_engine(make_board()).name == "scalar"

        words = full_mix_words(2000, seed=97)
        scalar, routed = assert_paths_identical(make_board, words)
        assert routed.firmware.ticks == scalar.firmware.ticks > 0
        forced = make_board()
        ENGINES["compiled"].replay(forced, words)
        assert forced.statistics() == scalar.statistics()
        assert forced.firmware.ticks == 0
        assert forced.checkpoint() != scalar.checkpoint()


@pytest.fixture
def lockstep_calls(monkeypatch):
    """The number of admitted tenures of every call a group replayed on
    its set lanes, one entry per group and call."""
    from repro.memories import lockstep

    calls = []
    replay = lockstep.SetLanes.replay

    def counted(self, order, addrs):
        calls.append(addrs.shape[0])
        return replay(self, order, addrs)

    monkeypatch.setattr(lockstep.SetLanes, "replay", counted)
    return calls


@pytest.fixture
def process_calls(monkeypatch):
    """The firmware of every ``CacheEmulationFirmware.process`` call, one
    entry per tenure: the scalar loop's and the generic runner's."""
    calls = []
    process = CacheEmulationFirmware.process

    def counted(self, *args):
        calls.append(self)
        return process(self, *args)

    monkeypatch.setattr(CacheEmulationFirmware, "process", counted)
    return calls


def replay_forced_lanes(board, words):
    """The protocol runner on its set lanes, past the engine's guards."""
    return replay_with_runner(board, words, _protocol_runner(board.firmware))


def replay_generic(board, words):
    """The generic runner, ``firmware.process`` per tenure, on any board."""
    return replay_with_runner(board, words, _generic_runner(board.firmware))


def assert_lanes_identical(make_board, words, chunks=3):
    """Scalar against the forced set lanes, call by call; a last part
    replays on the generic runner, whose probes read the rows the lanes
    wrote back."""
    scalar = make_board()
    scalar.batched_replay = False
    lanes = make_board()
    *parts, tail = np.array_split(words, chunks + 1)
    for part in parts:
        scalar.replay_words(part)
        replay_forced_lanes(lanes, part)
    scalar.replay_words(tail)
    replay_generic(lanes, tail)
    assert scalar.statistics() == lanes.statistics()
    assert scalar.now_cycle == lanes.now_cycle
    assert scalar.checkpoint() == lanes.checkpoint()
    return scalar, lanes


class TestSetLockstep:
    """The set-lockstep form of the protocol runner
    (:mod:`repro.memories.lockstep`), forced onto every call, against
    scalar down to the checkpoint."""

    @pytest.mark.parametrize("kind", ["single", "split", "groups4", "dm2",
                                      "far-cpu"])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru"])
    def test_every_machine_and_policy(self, lockstep_calls, kind,
                                      replacement):
        """Multi-group boards (sweep4's four designs, each with its own
        set count, and Figure 10's pair with a direct-mapped node) replay
        every call on the lanes of every group."""
        # CPU ids past the machine's: unmapped processors (8..15) snoop
        # every node and their castouts touch nothing; I/O bridges
        # (16..19) snoop with castouts too.  1 MB of lines: every node
        # hits as well as misses.
        words = full_mix_words(4000, seed=7, max_cpu=20,
                               address_space=1 << 20)
        machine = machine_for(kind, replacement)
        groups = len(machine.groups())
        assert_lanes_identical(
            lambda: board_for_machine(machine, seed=3), words
        )
        # The tail replayed on the generic runner.
        assert len(lockstep_calls) == 3 * groups

    @pytest.mark.parametrize("protocol", ["msi", "mesi", "moesi"])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru"])
    def test_every_protocol(self, lockstep_calls, protocol, replacement):
        """Peer transitions are what protocols differ in (OWNED supplies
        dirty data, a write hit on SHARED or OWNED invalidates the
        peers); the lanes replay each protocol as scalar does, with
        unmapped masters and I/O bridges snooping."""
        # 512 lines, fewer than one node holds: lines are shared and hit
        # in every state, OWNED included.
        words = full_mix_words(4000, seed=7, max_cpu=20, address_space=1 << 16)
        machine = machine_for("split", replacement, protocol)
        assert_lanes_identical(
            lambda: board_for_machine(machine, seed=3), words
        )
        assert len(lockstep_calls) == 3

    def test_one_step_keeps_loses_and_stands_in(self, lockstep_calls):
        """One lockstep step holding every kind of peer snoop: a peer
        that keeps the line (a read snoop on MODIFIED), a peer that
        loses it (a write snoop on EXCLUSIVE), and unmapped masters
        whose snoops hit node 0, the row that stands in for their local
        node (one read, one write)."""
        machine = machine_for("split")
        read, rwitm = 0, 1
        unmapped = 12  # past the machine's 8 CPUs
        line = lambda set_index, tag: tag << 15 | set_index << 7

        def records(*triples):
            cpus, cmds, addrs = zip(*triples)
            return encode_arrays(
                np.array(cpus, dtype=np.uint64),
                np.array(cmds, dtype=np.uint64),
                np.array(addrs, dtype=np.uint64),
            )

        def make_board():
            board = board_for_machine(machine, seed=3)
            board.batched_replay = False
            board.replay_words(records(
                (2, rwitm, line(1, 1)),  # node 1: MODIFIED
                (2, read, line(2, 1)),   # node 1: EXCLUSIVE
                (0, read, line(3, 1)),   # node 0: EXCLUSIVE
                (0, read, line(4, 1)),   # node 0: two lines in set 4
                (0, read, line(4, 2)),
            ))
            board.batched_replay = True
            return board

        # One tenure per set: all of them play in the first step.
        words = records(
            (0, read, line(1, 1)),
            (0, rwitm, line(2, 1)),
            (unmapped, read, line(3, 1)),
            (unmapped, rwitm, line(4, 1)),
        )
        scalar = make_board()
        scalar.batched_replay = False
        scalar.replay_words(words)
        lanes = make_board()
        replay_forced_lanes(lanes, words)
        assert lockstep_calls == [4]
        assert scalar.statistics() == lanes.statistics()
        assert scalar.checkpoint() == lanes.checkpoint()

        node0, node1 = (node.directory for node in lanes.firmware.nodes[:2])
        shared, invalid = 1, 0
        assert node1.lookup_state(line(1, 1)) == shared  # kept
        assert node0.lookup_state(line(1, 1)) == shared
        assert node1.lookup_state(line(2, 1)) == invalid  # lost
        assert node0.lookup_state(line(3, 1)) == shared  # kept, stand-in
        assert node0.lookup_state(line(4, 1)) == invalid  # lost, stand-in
        assert node0.set_tags(4) == [2]
        stats = lanes.statistics()
        assert stats["node1.remote.supplied_dirty"] == 1
        assert stats["node0.intervention.from_peer"] == 1
        assert stats["node1.remote.invalidated"] == 1
        assert stats["node0.remote.invalidated"] == 1

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru"])
    def test_flipped_duplicate_tags(self, lockstep_calls, replacement):
        """Sets holding a duplicated tag replay on the lanes like every
        other set, and match scalar down to the checkpoint."""
        words = full_mix_words(2500, seed=5, address_space=1 << 20)
        machine = machine_for("split", replacement)

        def make_board():
            board = board_for_machine(machine, seed=9)
            board.batched_replay = False
            board.replay_words(
                full_mix_words(3000, seed=21, address_space=1 << 20)
            )
            for node in board.firmware.nodes:
                directory = node.directory
                for set_index in range(directory.config.num_sets):
                    tags = directory.set_tags(set_index)
                    if len(tags) >= 2 and set_index % 3 == 0:
                        diff = tags[0] ^ tags[1]
                        for bit in range(diff.bit_length()):
                            if diff >> bit & 1:
                                directory.inject_bit_flip(set_index, 1, bit)
            board.batched_replay = True
            return board

        _scalar, lanes = assert_lanes_identical(make_board, words)
        assert len(lockstep_calls) == 3
        flipped = lanes.firmware.nodes[0].directory
        assert any(
            len(set(tags)) < len(tags)
            for tags in map(flipped.set_tags, range(flipped.config.num_sets))
        )

    def test_duplicate_tag_follows_the_way_map(self, lockstep_calls):
        """An LRU hit behind two copies of a tag moves both; a probe must
        stay on the first copy, as scalar's does, so a later probe finds
        the same line on every path.  The set replays on the lanes."""
        machine = machine_for("split")
        line = lambda tag: tag << 15  # set 0 of the 256-set nodes

        def records(*pairs):
            n = len(pairs)
            return encode_arrays(
                np.zeros(n, dtype=np.uint64),
                np.array([cmd for cmd, _tag in pairs], dtype=np.uint64),
                np.array([line(tag) for _cmd, tag in pairs], dtype=np.uint64),
            )

        def make_board():
            board = board_for_machine(machine, seed=3)
            board.batched_replay = False
            # Reads fill tags 1..4, a write makes tag 3 dirty and MRU.
            board.replay_words(records((0, 1), (0, 2), (0, 3), (0, 4), (1, 3)))
            directory = board.firmware.nodes[0].directory
            assert directory.set_tags(0) == [3, 4, 2, 1]
            for bit in range(3):  # 4 -> 3: two copies, first one dirty
                directory.inject_bit_flip(0, 1, bit)
            board.batched_replay = True
            return board

        # Read tag 1 (way 3): both copies of 3 move, the map keeps the first.
        _scalar, lanes = assert_lanes_identical(
            make_board, records((0, 1), (1, 3), (0, 3)), chunks=2
        )
        assert len(lockstep_calls) == 2
        assert lanes.statistics()["node0.hit_state.EXCLUSIVE"] >= 1

    def test_unmapped_masters_on_a_degraded_board(self, lockstep_calls):
        words = full_mix_words(3000, seed=13, max_cpu=20)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=9)
            board.batched_replay = False
            board.replay_words(full_mix_words(800, seed=21))
            board.firmware.offline_node(1)
            board.batched_replay = True
            return board

        assert_lanes_identical(make_board, words)
        assert lockstep_calls

    def test_injected_burst_hits_the_occupancy_guard(self, lockstep_calls):
        words = full_mix_words(2000, seed=45)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=3)
            board.firmware.nodes[1].buffer.inject_occupancy(
                board.now_cycle, 40
            )
            return board

        assert_paths_identical(make_board, words, chunks=4, engine="compiled")
        # The first call drains the burst on the generic runner; the
        # lanes take the rest once the closed form applies again.
        assert len(lockstep_calls) == 3

    def test_deep_telemetry_cadence_jsonl_identical(self, lockstep_calls):
        import io

        from repro.telemetry import JsonlSink

        words = full_mix_words(110_000, seed=17, max_cpu=12)
        machine = machine_for("split", "plru")
        streams = []

        def replay(engine):
            stream = io.StringIO()
            streams.append(stream)
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(CounterSampler(
                JsonlSink(stream, deterministic=True),
                every_transactions=50_000,
            ))
            ENGINES[engine].replay(board, words)
            board.telemetry.finish(board)
            return board

        scalar = replay("scalar")
        fast = replay("compiled")
        assert streams[0].getvalue() == streams[1].getvalue()
        assert streams[0].getvalue().count("\n") >= 3
        assert scalar.checkpoint() == fast.checkpoint()
        # One call: the lanes replay it once, its two full windows and
        # the tail commit from the outcomes.
        assert lockstep_calls == [fast.statistics()["filter.forwarded"]]

    def test_sweep4_default_cadence_jsonl_identical(self, lockstep_calls):
        import io

        from repro.telemetry import JsonlSink

        words = full_mix_words(6000, seed=17, max_cpu=12)
        machine = machine_for("groups4")
        streams = []

        def replay(engine):
            stream = io.StringIO()
            streams.append(stream)
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(
                CounterSampler(JsonlSink(stream, deterministic=True))
            )
            assert board.telemetry.every_transactions == 1024
            ENGINES[engine].replay(board, words)
            board.telemetry.finish(board)
            return board

        scalar = replay("scalar")
        fast = replay("compiled")
        assert streams[0].getvalue() == streams[1].getvalue()
        assert streams[0].getvalue().count("\n") >= 6
        assert scalar.checkpoint() == fast.checkpoint()
        # The sampler's one-record first window, five full ones and the
        # tail all commit from one replay on every group's lanes.
        assert len(lockstep_calls) == 4


class TestLockstepChooser:
    """Which calls take the set lanes: every call of a board whose groups
    all have a lockstep form, unless it touches a set some group cannot
    represent.  A call replays wholly on the lanes, once per group, or
    wholly on the generic runner."""

    @staticmethod
    def split4():
        config = CacheNodeConfig(size=1 << 20, assoc=4, line_size=128)
        return split_smp_machine(config, N_CPUS, 2)

    def test_every_call_takes_the_lanes(self, lockstep_calls, process_calls):
        machine = self.split4()
        words = full_mix_words(200_000, seed=3, address_space=4 << 20)
        segment = full_mix_words(5_000, seed=4, address_space=4 << 20)
        short = full_mix_words(40, seed=5, address_space=4 << 20)
        scalar = board_for_machine(machine, seed=1)
        scalar.batched_replay = False
        lanes = board_for_machine(machine, seed=1)
        for calls, part in enumerate((words, segment, short, short[:1]), 1):
            scalar.replay_words(part)
            lanes.replay_words(part)
            assert len(lockstep_calls) == calls
        assert lanes.firmware not in process_calls
        assert lanes.checkpoint() == scalar.checkpoint()

    def test_random_has_no_lanes(self, lockstep_calls, process_calls):
        machine = machine_for("split", "random")
        words = full_mix_words(3000, seed=43)
        _scalar, fast = assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), words,
            engine="compiled",
        )
        assert not lockstep_calls
        assert process_calls.count(fast.firmware) == (
            fast.statistics()["filter.forwarded"]
        )

    def test_deep_multi_group_chunk_takes_every_groups_lanes(
        self, lockstep_calls
    ):
        machine = machine_for("groups4")
        words = full_mix_words(2000, seed=71)
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), words
        )
        assert len(lockstep_calls) == 4

    def test_random_group_holds_the_board_on_the_generic_runner(
        self, lockstep_calls, process_calls
    ):
        machine = machine_for("groups4", "random")
        words = full_mix_words(3000, seed=43)
        _scalar, fast = assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), words, chunks=3,
            engine="compiled",
        )
        assert not lockstep_calls
        assert process_calls.count(fast.firmware) == (
            fast.statistics()["filter.forwarded"]
        )

    def test_mixed_geometry_group_has_no_lanes(
        self, lockstep_calls, process_calls
    ):
        big = CacheNodeConfig(size=128 * 1024, assoc=4, line_size=128,
                              procs_per_node=4)
        small = CacheNodeConfig(size=64 * 1024, assoc=2, line_size=64,
                                procs_per_node=4)
        whole = CacheNodeConfig(size=128 * 1024, assoc=4, line_size=128,
                                procs_per_node=N_CPUS)
        machine = TargetMachine(nodes=(
            TargetNodeSpec(config=big, cpus=(0, 1, 2, 3), group=0),
            TargetNodeSpec(config=small, cpus=(4, 5, 6, 7), group=0),
            TargetNodeSpec(config=whole, cpus=tuple(range(N_CPUS)), group=1),
        ))
        words = full_mix_words(3000, seed=61)
        _scalar, fast = assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), words, chunks=3,
            engine="compiled",
        )
        assert not lockstep_calls
        assert process_calls.count(fast.firmware) == (
            fast.statistics()["filter.forwarded"]
        )

    def test_plru_bits_outside_the_tables_replay_on_the_generic_runner(
        self, lockstep_calls, process_calls
    ):
        """A call that touches a set whose PLRU bits lie outside the
        tables replays wholly on the generic runner; the next call, which
        touches no such set, takes the lanes again."""
        machine = machine_for("split", "plru")
        bad = 5
        cpus, cmds, addrs, resps = decode_arrays(
            full_mix_words(2000, seed=67)
        )
        sets = (addrs >> np.uint64(7)) & np.uint64(255)
        # The first call touches the bad set, the second does not.
        addrs[:1000][sets[:1000] == bad - 1] += np.uint64(128)
        addrs[1000:][sets[1000:] == bad] += np.uint64(128)
        words = encode_arrays(cpus, cmds, addrs, resps)

        def make_board():
            board = board_for_machine(machine, seed=3)
            board.batched_replay = False
            board.replay_words(full_mix_words(1000, seed=21))
            board.firmware.nodes[1].directory._meta[bad] |= 1 << 9
            board.batched_replay = True
            return board

        scalar = make_board()
        scalar.batched_replay = False
        fast = make_board()
        process_calls.clear()
        for part, lanes, generic in ((words[:1000], 0, True),
                                     (words[1000:], 1, False)):
            forwarded = fast.statistics()["filter.forwarded"]
            scalar.replay_words(part)
            ENGINES["compiled"].replay(fast, part)
            forwarded = fast.statistics()["filter.forwarded"] - forwarded
            assert len(lockstep_calls) == lanes
            assert process_calls.count(fast.firmware) == forwarded * generic
            process_calls.clear()
            assert fast.checkpoint() == scalar.checkpoint()


def extreme_field_words(n: int, seed: int) -> np.ndarray:
    """Records at the edges of every packed field.

    Masters: the machine's CPUs, unmapped processors up to
    ``MAX_PROCESSOR_ID`` (their castouts touch nothing) and masters above
    it up to 255 (I/O bridges, whose castouts snoop).  Every
    ``BusCommand`` and every ``SnoopResponse``.  Three quarters of the
    addresses fall in the top 2k lines of the 50-bit field, so tags use
    its top bits and sets hit, fill and evict; the rest lie anywhere.
    """
    rng = np.random.default_rng(seed)
    masters = np.concatenate((
        rng.integers(0, N_CPUS, n // 2),
        rng.integers(N_CPUS, MAX_PROCESSOR_ID + 1, n // 4),
        rng.integers(MAX_PROCESSOR_ID + 1, 256, n - n // 2 - n // 4),
    ))
    rng.shuffle(masters)
    masters[:3] = (MAX_PROCESSOR_ID, MAX_PROCESSOR_ID + 1, 255)
    commands = rng.choice([int(command) for command in BusCommand], n)
    responses = rng.choice([int(response) for response in SnoopResponse], n)
    top_line = ((1 << ADDRESS_BITS) - 1) >> 7
    lines = np.where(
        rng.random(n) < 0.75,
        rng.integers(top_line - (1 << 11), top_line + 1, n),
        rng.integers(0, top_line + 1, n),
    )
    addresses = (lines << 7) | rng.integers(0, 128, n)
    addresses[:2] = (1 << ADDRESS_BITS) - 1
    return encode_arrays(
        masters.astype(np.uint64), commands.astype(np.uint64),
        addresses.astype(np.uint64), responses.astype(np.uint64),
    )


class TestFieldExtremes:
    """The decoder's narrow fields through every path that reads them:
    scalar, the set lanes and the generic runner, equal down to
    ``checkpoint()`` on records at every field's edge."""

    @pytest.mark.parametrize("replacement", ["lru", "plru"])
    def test_every_path_equals_scalar(self, lockstep_calls, replacement):
        words = extreme_field_words(6000, seed=29)
        assert decode_arrays(words)[2].max() == (1 << ADDRESS_BITS) - 1
        machine = machine_for("split", replacement)
        parts = np.array_split(words, 3)

        def replayed(replay, board):
            for part in parts:
                replay(board, part)
            return board

        scalar = board_for_machine(machine, seed=3)
        scalar.batched_replay = False
        replayed(MemoriesBoard.replay_words, scalar)
        lanes = replayed(replay_forced_lanes, board_for_machine(machine, seed=3))
        assert len(lockstep_calls) == 3
        # The generic runner, on the decoupled board and on a coupled one
        # against scalar at the same utilization.
        generic = replayed(replay_generic, board_for_machine(machine, seed=3))
        coupled = replayed(MemoriesBoard.replay_words,
                           regime_board("coupled", machine, seed=3))
        coupled_scalar = regime_board("coupled", machine, seed=3)
        coupled_scalar.batched_replay = False
        replayed(MemoriesBoard.replay_words, coupled_scalar)
        assert len(lockstep_calls) == 3
        for board in (lanes, generic):
            assert board.statistics() == scalar.statistics()
            assert board.checkpoint() == scalar.checkpoint()
        assert coupled.checkpoint() == coupled_scalar.checkpoint()
        stats = scalar.statistics()
        assert stats["filter.forwarded"] > 0
        assert stats["filter.retried"] > 0


#: Sampler cadences with unmapped masters on the multi-group machines.
_MULTI_GROUP_CADENCES = [
    pytest.param(cadence, kind, 20, id=f"{cadence}-{kind}-unmapped")
    for kind in ("groups4", "dm2")
    for cadence in (1, 7, 37, 100, 1024)
]


class TestTelemetryChunking:
    """Sampler records at every cadence, each window committed from one
    replay per call on the lanes of every group."""

    @pytest.mark.parametrize("regime", FAST_REGIMES)
    @pytest.mark.parametrize(
        ("cadence", "kind", "max_cpu"),
        [
            pytest.param(1, "split", N_CPUS, id="1"),
            pytest.param(7, "split", N_CPUS, id="7"),
            pytest.param(64, "split", N_CPUS, id="64"),
            pytest.param(1024, "split", N_CPUS, id="1024"),
            # CPU ids past the machine's: unmapped processors (8..15)
            # snoop every controller and I/O bridges (16..19) DMA, so the
            # compiled engine settles unmapped-master tallies per window.
            pytest.param(37, "split", 20, id="37-split-unmapped"),
            pytest.param(100, "split", 20, id="100-split-unmapped"),
            pytest.param(37, "multi", 20, id="37-multi-unmapped"),
            *_MULTI_GROUP_CADENCES,
        ],
    )
    def test_transaction_cadence_identical(self, cadence, kind, max_cpu,
                                           regime, lockstep_calls):
        words = full_mix_words(2000, seed=17, max_cpu=max_cpu)
        machine = machine_for(kind)

        def make_board(sink):
            board = regime_board(regime, machine, seed=2)
            board.attach_telemetry(
                CounterSampler(sink, every_transactions=cadence)
            )
            return board

        scalar_sink, fast_sink = MemorySink(), MemorySink()
        scalar = make_board(scalar_sink)
        scalar.batched_replay = False
        fast = make_board(fast_sink)
        scalar.replay_words(words)
        ENGINES["compiled"].replay(fast, words)
        scalar.telemetry.finish(scalar)
        fast.telemetry.finish(fast)
        assert scalar_sink.records == fast_sink.records
        assert len(fast_sink.records) > 0
        assert scalar.statistics() == fast.statistics()
        assert scalar.checkpoint() == fast.checkpoint()
        # Whatever the cadence: one replay per group on the lanes, or the
        # generic runner for coupled buffers.
        groups = len(machine.groups())
        assert len(lockstep_calls) == (groups if regime == "compiled" else 0)

    @pytest.mark.parametrize("kind", ["single", "groups4", "dm2"])
    def test_cycle_cadence_identical(self, kind, lockstep_calls):
        words = full_mix_words(1500, seed=19)
        machine = machine_for(kind)
        sinks = []

        def make_board():
            sink = MemorySink()
            sinks.append(sink)
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(CounterSampler(sink, every_cycles=730.0))
            return board

        assert_paths_identical(make_board, words, chunks=3)
        scalar_sink, fast_sink = sinks
        assert scalar_sink.records == fast_sink.records
        assert len(fast_sink.records) > 0
        assert len(lockstep_calls) == 3 * len(machine.groups())


class TestEngineSelection:
    def test_flag_forces_scalar(self, monkeypatch):
        words = full_mix_words(200, seed=23)
        board = board_for_machine(machine_for("single"))
        board.batched_replay = False
        calls = []
        monkeypatch.setattr(
            "repro.memories.compiled.replay_words_compiled",
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
        # compiled engine and routes the board to the scalar path.
        decision = decide("compiled", board=board)
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
        """SDRAM-priced buffers exclude the protocol runner, not the
        compiled engine."""
        from repro.memories.sdram import SdramModel

        words = full_mix_words(1200, seed=31)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=6)
            board.firmware.nodes[0].sdram = SdramModel()
            return board

        assert_paths_identical(make_board, words)

    def test_stock_cache_firmware_bypasses_process(self, monkeypatch):
        """The engine's buffer routing, both ways.  A decoupled board
        replays on the protocol runner and never calls
        ``firmware.process``; a coupled board and a backlogged one each
        replay on the generic runner, ``firmware.process`` per tenure.
        All three match scalar down to the checkpoint and the retries."""
        from repro.memories import compiled

        machine = machine_for("split")
        words = full_mix_words(1500, seed=83)
        built = []
        generic_runner = compiled._generic_runner

        def counted(firmware):
            built.append(firmware)
            return generic_runner(firmware)

        monkeypatch.setattr(compiled, "_generic_runner", counted)

        def refuse(*_args):
            raise AssertionError("firmware.process ran per tenure")

        def decoupled():
            return board_for_machine(machine, seed=2)

        def coupled():
            return regime_board("coupled", machine, seed=2)

        def backlogged():
            board = board_for_machine(machine, seed=2)
            board.firmware.nodes[1].buffer.inject_occupancy(
                board.now_cycle, 40
            )
            return board

        for make_board, generic in (
            (decoupled, False), (coupled, True), (backlogged, True),
        ):
            scalar = make_board()
            scalar.batched_replay = False
            scalar.replay_words(words)
            fast = make_board()
            if not generic:
                monkeypatch.setattr(fast.firmware, "process", refuse)
            built.clear()
            assert ENGINES["compiled"].replay(fast, words) == len(words)
            assert built == ([fast.firmware] if generic else [])
            assert fast.statistics() == scalar.statistics()
            assert fast.retries_posted == scalar.retries_posted
            assert fast.checkpoint() == scalar.checkpoint()

    def test_tracer_firmware_generic_runner(self):
        from repro.memories.firmware.tracer import TraceCollectorFirmware

        words = full_mix_words(800, seed=37)

        def make_board():
            return MemoriesBoard(
                TraceCollectorFirmware(capacity=2000), name="t"
            )

        scalar, fast = assert_paths_identical(make_board, words)
        assert np.array_equal(
            scalar.firmware.to_trace().words, fast.firmware.to_trace().words
        )


class TestZeroCountdownRegression:
    """A sampler countdown at (or below) zero on entry must not produce
    an empty window (this once crashed the chunk loop on ``steps[0]``)."""

    @pytest.mark.parametrize("regime, kind", regimes_on("split"))
    @pytest.mark.parametrize("countdown", [0, -3])
    def test_zero_countdown_entry_matches_scalar(self, regime, kind,
                                                 countdown):
        words = full_mix_words(300, seed=53)
        machine = machine_for(kind)

        def make_board(sink):
            board = regime_board(regime, machine, seed=2)
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
        ENGINES["compiled"].replay(fast, words)
        assert scalar_sink.records == fast_sink.records
        assert scalar.statistics() == fast.statistics()
        assert scalar.checkpoint() == fast.checkpoint()

    def test_zero_countdown_no_longer_crashes(self):
        board = board_for_machine(machine_for("single"))
        board.attach_telemetry(
            CounterSampler(MemorySink(), every_transactions=10)
        )
        board.telemetry._countdown = 0
        assert ENGINES["compiled"].replay(board, full_mix_words(25, seed=1)) == 25


class TestRejectedParity:
    """Rejected-tenure accounting parity under saturated buffers.

    Saturated buffers are coupled, so the compiled engine replays them
    on ``CacheEmulationFirmware.process`` per tenure, whose admission
    pre-check drains every group's local queue and increments
    ``rejected`` only on the full ones.  The chunk loop around it must
    keep that accounting and the retry count exactly as scalar does,
    proven here with deliberately tiny capacities and service times far
    above the tenure spacing so refusals actually occur.
    """

    def saturate(self, board, capacity, service):
        for node in board.firmware.nodes:
            stats = node.buffer.stats
            node.buffer = TransactionBuffer(
                capacity=capacity, service_cycles=service
            )
            node.buffer.stats = stats
        return board

    @pytest.mark.parametrize("engine", ["compiled"])
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

    @pytest.mark.parametrize("engine", ["compiled"])
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
        replacement=st.sampled_from(["lru", "fifo", "plru", "random"]),
    )
    def test_rejected_accounting_property(
        self, seed, capacity, service, replacement
    ):
        words = full_mix_words(700, seed=seed)
        machine = machine_for("multi", replacement)

        def make_board():
            return self.saturate(
                board_for_machine(machine, seed=seed % 13),
                capacity=capacity,
                service=service,
            )

        assert_paths_identical(make_board, words, engine="compiled")

class TestEdgeChunks:
    """Window-shape edges: all-filtered windows, window size 1,
    boundaries landing exactly on the countdown, wrap-adjacent 40-bit
    counters."""

    @pytest.mark.parametrize("regime, kind", regimes_on("single"))
    def test_all_filtered_chunks_with_telemetry(self, regime, kind):
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
        machine = machine_for(kind)

        def make_board():
            board = regime_board(regime, machine, seed=0)
            board.attach_telemetry(
                CounterSampler(MemorySink(), every_transactions=3)
            )
            return board

        assert_paths_identical(make_board, words, engine="compiled")

    @pytest.mark.parametrize("regime, kind", regimes_on("split"))
    def test_single_record_chunks(self, regime, kind):
        # Cadence 1 makes every window exactly one record long.
        words = full_mix_words(120, seed=67)
        machine = machine_for(kind)

        def make_board():
            board = regime_board(regime, machine, seed=2)
            board.attach_telemetry(
                CounterSampler(MemorySink(), every_transactions=1)
            )
            return board

        assert_paths_identical(make_board, words, engine="compiled")

    @pytest.mark.parametrize("regime, kind", regimes_on("split"))
    def test_boundary_exactly_on_countdown(self, regime, kind):
        # Trace length an exact multiple of the cadence: the final window
        # ends on the countdown and on_countdown fires at the last record.
        cadence = 64
        words = full_mix_words(cadence * 5, seed=71)
        machine = machine_for(kind)
        sinks = []

        def make_board():
            sink = MemorySink()
            sinks.append(sink)
            board = regime_board(regime, machine, seed=2)
            board.attach_telemetry(
                CounterSampler(sink, every_transactions=cadence)
            )
            return board

        assert_paths_identical(make_board, words, engine="compiled")
        scalar_sink, fast_sink = sinks
        assert scalar_sink.records == fast_sink.records
        assert len(fast_sink.records) == 5

    @pytest.mark.parametrize("regime, kind", regimes_on("split"))
    def test_wrap_adjacent_global_counters(self, regime, kind):
        # Seed the global bank just below the 40-bit mask so
        # record_batch wraps mid-replay; masked readouts and the
        # wrapped-counter report must match scalar exactly.
        words = full_mix_words(1500, seed=73)
        machine = machine_for(kind)

        def make_board():
            board = regime_board(regime, machine, seed=2)
            bank = board.global_counter.counters
            bank.increment("bus.cycles", COUNTER_MASK - 500)
            bank.increment("bus.tenures", COUNTER_MASK - 3)
            return board

        scalar, fast = assert_paths_identical(
            make_board, words, engine="compiled"
        )
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
        engine=st.sampled_from([None, "compiled"]),
        regime=st.sampled_from(["coupled", "compiled"]),
    )
    def test_randomized_mix_identical(
        self, seed, n, kind, replacement, cadence, engine, regime
    ):
        words = full_mix_words(n, seed=seed)
        machine = machine_for(kind, replacement)

        def make_board():
            board = regime_board(regime, machine, seed=seed % 17)
            if cadence is not None:
                board.attach_telemetry(
                    CounterSampler(MemorySink(), every_transactions=cadence)
                )
            return board

        assert_paths_identical(
            make_board, words, chunks=min(3, n), engine=engine
        )
