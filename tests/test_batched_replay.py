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
runner's closed form, and coupled or backlogged buffers on
``firmware.process`` per tenure; the routing itself is pinned.  The
set-lockstep form of the closed-form runner is forced onto every chunk
past the engine's chooser, and that chooser's routing is pinned too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.trace import decode_arrays, encode_arrays
from repro.engines import ENGINES
from repro.memories.board import (
    DEFAULT_ASSUMED_UTILIZATION,
    CacheEmulationFirmware,
    MemoriesBoard,
    board_for_machine,
)
from repro.memories.compiled import (
    _buffers_decoupled,
    _distinct,
    _protocol_runner,
    _replay_lent,
)
from repro.memories.config import CacheNodeConfig
from repro.memories.counters import COUNTER_MASK
from repro.memories.tx_buffer import FILTER_BUFFER_ENTRIES, TransactionBuffer
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


def machine_for(kind: str, replacement: str = "lru", protocol: str = "mesi"):
    config = CacheNodeConfig(
        size=128 * 1024, assoc=4, line_size=128, replacement=replacement,
        protocol=protocol,
    )
    if kind == "single":
        return single_node_machine(config, N_CPUS)
    if kind == "split":
        return split_smp_machine(config, N_CPUS, 2)
    other = CacheNodeConfig(
        size=64 * 1024, assoc=2, line_size=64, replacement=replacement,
        protocol=protocol,
    )
    return multi_config_machine([config, other], N_CPUS)


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

    @pytest.mark.parametrize("kind, loop_only", [
        pytest.param(kind, loop_only, id=kind + ("-loop" if loop_only else ""))
        for loop_only in (False, True)
        for kind in ("single", "split", "multi")
    ])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru", "random"])
    def test_every_machine_and_policy(self, kind, loop_only, replacement,
                                      monkeypatch):
        if loop_only:
            # No chunk is deep enough for the set lanes: every one
            # replays on the closed-form loop.
            monkeypatch.setattr(
                "repro.memories.compiled.LOCKSTEP_MIN_TENURES", math.inf
            )
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
        _replay_lent(forced, words, _protocol_runner(forced.firmware))
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


class LaneCalls(list):
    """The length of every chunk replayed on the set lanes; ``leftover``
    counts the tenures of those chunks the lanes handed to the loop."""

    leftover = 0


@pytest.fixture
def lockstep_calls(monkeypatch):
    """Counts the chunks replayed on the set lanes."""
    from repro.memories import lockstep

    calls = LaneCalls()
    run = lockstep.SetLanes.run

    def counted(self, *args):
        *chunk, loop = args
        calls.append(chunk[0].shape[0])

        def counted_loop(*leftover):
            calls.leftover += leftover[0].shape[0]
            return loop(*leftover)

        return run(self, *chunk, counted_loop)

    monkeypatch.setattr(lockstep.SetLanes, "run", counted)
    return calls


@pytest.fixture
def forced_lockstep(monkeypatch, lockstep_calls):
    """Every chunk of a group with a lockstep form runs on the lanes."""
    monkeypatch.setattr(
        "repro.memories.compiled.LOCKSTEP_MIN_TENURES", 0
    )
    return lockstep_calls


def replay_forced_lanes(board, words):
    """The closed-form runner with set lanes, past the engine's guards."""
    runner = _protocol_runner(board.firmware)
    return _replay_lent(board, words, runner)


def assert_lanes_identical(make_board, words, chunks=3):
    """Scalar against the forced set lanes, chunk by chunk; a last part
    replays through the engine with the lanes off, on the closed-form
    loop, whose probes read the rows the lanes wrote back."""
    scalar = make_board()
    scalar.batched_replay = False
    lanes = make_board()
    *parts, tail = np.array_split(words, chunks + 1)
    for part in parts:
        scalar.replay_words(part)
        replay_forced_lanes(lanes, part)
    scalar.replay_words(tail)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.memories.compiled.LOCKSTEP_MIN_TENURES", math.inf)
        ENGINES["compiled"].replay(lanes, tail)
    assert scalar.statistics() == lanes.statistics()
    assert scalar.now_cycle == lanes.now_cycle
    assert scalar.checkpoint() == lanes.checkpoint()
    return scalar, lanes


class TestSetLockstep:
    """The set-lockstep form of the single-group closed-form runner
    (:mod:`repro.memories.lockstep`), forced onto every chunk, against
    scalar down to the checkpoint."""

    @pytest.mark.parametrize("kind", ["single", "split"])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru"])
    def test_every_machine_and_policy(self, forced_lockstep, kind,
                                      replacement):
        # CPU ids past the machine's: unmapped processors (8..15) snoop
        # every node and their castouts touch nothing; I/O bridges
        # (16..19) snoop with castouts too.
        words = full_mix_words(4000, seed=7, max_cpu=20)
        machine = machine_for(kind, replacement)
        assert_lanes_identical(
            lambda: board_for_machine(machine, seed=3), words
        )
        assert len(forced_lockstep) == 3

    @pytest.mark.parametrize("protocol", ["msi", "mesi", "moesi"])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru"])
    def test_every_protocol(self, forced_lockstep, protocol, replacement):
        """Peer transitions are what protocols differ in (OWNED supplies
        dirty data, a write hit on SHARED or OWNED invalidates the
        peers); the lanes replay each protocol as scalar does, with
        unmapped masters and I/O bridges snooping, and leave no set to
        the loop."""
        # 512 lines, fewer than one node holds: lines are shared and hit
        # in every state, OWNED included.
        words = full_mix_words(4000, seed=7, max_cpu=20, address_space=1 << 16)
        machine = machine_for("split", replacement, protocol)
        assert_lanes_identical(
            lambda: board_for_machine(machine, seed=3), words
        )
        assert len(forced_lockstep) == 3
        assert forced_lockstep.leftover == 0

    def test_one_step_keeps_loses_and_stands_in(self, forced_lockstep):
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
        assert forced_lockstep == [4]
        assert forced_lockstep.leftover == 0
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
    def test_flipped_duplicate_tags(self, forced_lockstep, replacement):
        """Sets holding a duplicated tag replay on the lanes like every
        other set (none is left to the loop), and match scalar down to
        the checkpoint."""
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
        assert forced_lockstep
        assert forced_lockstep.leftover == 0
        flipped = lanes.firmware.nodes[0].directory
        assert any(
            len(set(tags)) < len(tags)
            for tags in map(flipped.set_tags, range(flipped.config.num_sets))
        )

    def test_duplicate_tag_follows_the_way_map(self, forced_lockstep):
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
        assert forced_lockstep
        assert forced_lockstep.leftover == 0
        assert lanes.statistics()["node0.hit_state.EXCLUSIVE"] >= 1

    def test_unmapped_masters_on_a_degraded_board(self, forced_lockstep):
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
        assert forced_lockstep

    def test_injected_burst_hits_the_occupancy_guard(self, forced_lockstep):
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
        assert len(forced_lockstep) == 3

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
        # Two full windows and the tail, each deep enough for the lanes.
        assert len(lockstep_calls) == 3


class TestLockstepChooser:
    """Which chunks take the set lanes: long ones, on groups that have a
    lockstep form."""

    @staticmethod
    def split4():
        config = CacheNodeConfig(size=1 << 20, assoc=4, line_size=128)
        return split_smp_machine(config, N_CPUS, 2)

    def test_deep_chunk_takes_lanes_shallow_segment_the_loop(
        self, lockstep_calls, monkeypatch
    ):
        from repro.memories.compiled import LOCKSTEP_MIN_TENURES

        machine = self.split4()
        words = full_mix_words(200_000, seed=3, address_space=4 << 20)
        segment = full_mix_words(5_000, seed=4, address_space=4 << 20)
        short = full_mix_words(400, seed=5, address_space=4 << 20)
        lanes = board_for_machine(machine, seed=1)
        lanes.replay_words(words)
        assert len(lockstep_calls) == 1
        lanes.replay_words(segment)  # a warm 5k-record segment: lanes too
        assert len(lockstep_calls) == 2
        assert lockstep_calls[1] >= LOCKSTEP_MIN_TENURES
        lanes.replay_words(short)  # too few admitted tenures: the loop
        assert len(lockstep_calls) == 2
        # The loop alone reaches the same state.
        monkeypatch.setattr(
            "repro.memories.compiled.LOCKSTEP_MIN_TENURES", float("inf")
        )
        loop = board_for_machine(machine, seed=1)
        loop.replay_words(words)
        loop.replay_words(segment)
        loop.replay_words(short)
        assert len(lockstep_calls) == 2
        assert loop.checkpoint() == lanes.checkpoint()

    def test_random_has_no_lanes(self, forced_lockstep):
        machine = machine_for("split", "random")
        words = full_mix_words(3000, seed=43)
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), words,
            engine="compiled",
        )
        assert not forced_lockstep

    def test_mixed_geometry_group_has_no_lanes(self, forced_lockstep):
        from repro.target.mapping import TargetMachine, TargetNodeSpec

        big = CacheNodeConfig(size=128 * 1024, assoc=4, line_size=128,
                              procs_per_node=4)
        small = CacheNodeConfig(size=64 * 1024, assoc=2, line_size=64,
                                procs_per_node=4)
        machine = TargetMachine(nodes=(
            TargetNodeSpec(config=big, cpus=(0, 1, 2, 3), group=0),
            TargetNodeSpec(config=small, cpus=(4, 5, 6, 7), group=0),
        ))
        words = full_mix_words(3000, seed=61)
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), words,
            engine="compiled",
        )
        assert not forced_lockstep

    def test_plru_bits_outside_the_tables_replay_on_the_loop(
        self, forced_lockstep
    ):
        words = full_mix_words(3000, seed=67)
        machine = machine_for("split", "plru")

        def make_board():
            board = board_for_machine(machine, seed=3)
            board.batched_replay = False
            board.replay_words(full_mix_words(1000, seed=21))
            for node in board.firmware.nodes:
                meta = node.directory._meta
                for set_index in range(0, len(meta), 2):
                    meta[set_index] |= 1 << 9
            board.batched_replay = True
            return board

        assert_paths_identical(make_board, words, engine="compiled")
        assert forced_lockstep
        assert forced_lockstep.leftover > 0


def sweep4_machine():
    """Four cache geometries, each its own coherence group."""
    return multi_config_machine(
        [
            CacheNodeConfig(size=512 << 10, assoc=2, line_size=128),
            CacheNodeConfig(size=1 << 20, assoc=4, line_size=128,
                            replacement="plru"),
            CacheNodeConfig(size=2 << 20, assoc=8, line_size=128,
                            replacement="fifo"),
            CacheNodeConfig(size=4 << 20, assoc=4, line_size=128),
        ],
        N_CPUS,
    )


class TestLoanTake:
    """A loop chunk borrows, on every node, the sorted distinct set
    indices its tenures address."""

    @staticmethod
    def borrowed(machine, addrs):
        """``(borrowed sets, expected sets)`` of each node, after checking
        that ``_distinct`` gives what ``np.unique`` gives."""
        board = board_for_machine(machine, seed=1)
        runner = _protocol_runner(board.firmware)
        runner.loan.take(addrs)
        pairs = []
        for node in runner.loan.nodes:
            sets = (addrs >> np.uint64(node.off_bits)) & np.uint64(node.set_mask)
            expected = np.unique(sets).tolist()
            assert _distinct(sets).tolist() == expected
            pairs.append((list(node.tags), expected))
        runner.loan.give_back()
        return pairs

    def test_split4_chunk_with_repeated_sets(self):
        # 500 tenures over 64 lines: every set they touch repeats.
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 64, 500).astype(np.uint64) * np.uint64(128)
        machine = TestLockstepChooser.split4()
        pairs = self.borrowed(machine, addrs)
        assert len(pairs) == 4
        for borrowed, expected in pairs:
            assert borrowed == expected
            assert len(expected) < addrs.shape[0]

    def test_sweep4_geometries(self):
        words = full_mix_words(3000, seed=13, address_space=16 << 20)
        addrs = decode_arrays(words)[2]
        pairs = self.borrowed(sweep4_machine(), addrs)
        # Three of the four nodes have 2048 sets of 128 B lines and share
        # one dedupe; the 4 MB node has 8192.
        assert len(pairs) == 4
        assert len({len(expected) for _b, expected in pairs}) == 2
        for borrowed, expected in pairs:
            assert borrowed == expected

    def test_one_address_chunk(self):
        addrs = np.array([0x12345680], dtype=np.uint64)
        for borrowed, expected in self.borrowed(sweep4_machine(), addrs):
            assert borrowed == expected
            assert len(borrowed) == 1

    def test_loop_replays_stay_bit_identical(self, monkeypatch):
        # Every chunk on the loop, the one-record first chunk of a fresh
        # sampler and its cadence cuts included.
        monkeypatch.setattr(
            "repro.memories.compiled.LOCKSTEP_MIN_TENURES", math.inf
        )
        words = full_mix_words(6000, seed=17, address_space=8 << 20)
        for machine in (TestLockstepChooser.split4(), sweep4_machine()):

            def make_board():
                board = board_for_machine(machine, seed=3)
                board.attach_telemetry(
                    CounterSampler(MemorySink(), every_transactions=2500)
                )
                return board

            assert_paths_identical(
                make_board, words, chunks=3, engine="compiled"
            )


class TestTelemetryChunking:
    @pytest.mark.parametrize("regime", FAST_REGIMES)
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
    def test_transaction_cadence_identical(self, cadence, kind, max_cpu, regime):
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
        scalar_sink, fast_sink = sinks
        assert scalar_sink.records == fast_sink.records
        assert len(fast_sink.records) > 0


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
    an empty chunk (this used to crash ``_run_chunk`` on ``steps[0]``)."""

    @pytest.mark.parametrize("regime", FAST_REGIMES)
    @pytest.mark.parametrize("countdown", [0, -3])
    def test_zero_countdown_entry_matches_scalar(self, regime, countdown):
        words = full_mix_words(300, seed=53)
        machine = machine_for("split")

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
    """Chunk-shape edges: all-filtered chunks, chunk size 1, boundaries
    landing exactly on the countdown, wrap-adjacent 40-bit counters."""

    @pytest.mark.parametrize("regime", FAST_REGIMES)
    def test_all_filtered_chunks_with_telemetry(self, regime):
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
            board = regime_board(regime, machine, seed=0)
            board.attach_telemetry(
                CounterSampler(MemorySink(), every_transactions=3)
            )
            return board

        assert_paths_identical(make_board, words, engine="compiled")

    @pytest.mark.parametrize("regime", FAST_REGIMES)
    def test_single_record_chunks(self, regime):
        # Cadence 1 makes every chunk exactly one record long.
        words = full_mix_words(120, seed=67)
        machine = machine_for("split")

        def make_board():
            board = regime_board(regime, machine, seed=2)
            board.attach_telemetry(
                CounterSampler(MemorySink(), every_transactions=1)
            )
            return board

        assert_paths_identical(make_board, words, engine="compiled")

    @pytest.mark.parametrize("regime", FAST_REGIMES)
    def test_boundary_exactly_on_countdown(self, regime):
        # Trace length an exact multiple of the cadence: the final chunk
        # ends on the countdown and on_countdown fires at the last record.
        cadence = 64
        words = full_mix_words(cadence * 5, seed=71)
        machine = machine_for("split")
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

    @pytest.mark.parametrize("regime", FAST_REGIMES)
    def test_wrap_adjacent_global_counters(self, regime):
        # Seed the global bank just below the 40-bit mask so
        # record_batch wraps mid-replay; masked readouts and the
        # wrapped-counter report must match scalar exactly.
        words = full_mix_words(1500, seed=73)
        machine = machine_for("split")

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
