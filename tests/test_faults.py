"""Tests for repro.faults: injection, recovery, campaigns, checkpoints."""

import json

import numpy as np
import pytest

from repro.bus.transaction import BusCommand, SnoopResponse
from repro.common.errors import TraceFormatError, ValidationError
from repro.faults import (
    FaultCampaign,
    FaultInjector,
    FaultPlan,
    corrupt_trace_bytes,
    load_checkpoint,
    restore_checkpoint,
    run_campaign,
    save_checkpoint,
)
from repro.memories.board import board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.memories.counters import COUNTER_MASK
from repro.memories.ecc import EccOutcome, EccTagStateDirectory
from repro.target.configs import single_node_machine, split_smp_machine

CFG = CacheNodeConfig(size=64 * 1024, assoc=4, line_size=128)


def machine(n_cpus=4):
    return single_node_machine(CFG, n_cpus=n_cpus)


def synthetic_words(n=2000, n_cpus=4, seed=0):
    """A packed record stream with reads, writes and reuse."""
    from repro.bus.trace import encode_arrays

    rng = np.random.default_rng(seed)
    cpus = rng.integers(0, n_cpus, n).astype(np.uint64)
    commands = rng.choice(
        [int(BusCommand.READ), int(BusCommand.RWITM)], size=n, p=[0.8, 0.2]
    ).astype(np.uint64)
    addresses = (rng.integers(0, 512, n) * np.uint64(128)).astype(np.uint64)
    return encode_arrays(cpus, commands, addresses)


class TestFaultPlan:
    def test_zero_by_default(self):
        plan = FaultPlan()
        assert plan.is_zero
        plan.validate()

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="drop_snoop_rate"):
            FaultPlan(drop_snoop_rate=1.5).validate()
        with pytest.raises(ValidationError, match="directory_flip_rate"):
            FaultPlan(directory_flip_rate=-0.1).validate()

    def test_burst_ops_must_be_positive(self):
        with pytest.raises(ValidationError, match="burst_ops"):
            FaultPlan(buffer_burst_ops=0).validate()

    def test_dict_roundtrip(self):
        plan = FaultPlan(seed=9, drop_snoop_rate=0.01, buffer_burst_ops=32)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            FaultPlan.from_dict({"seed": 1, "meteor_rate": 0.5})

    def test_uniform_sets_every_per_tenure_site(self):
        plan = FaultPlan.uniform(0.01, seed=3)
        assert plan.seed == 3
        assert not plan.is_zero
        assert plan.drop_snoop_rate == plan.directory_flip_rate == 0.01
        assert plan.buffer_burst_rate == plan.counter_saturate_rate == 0.01


class TestZeroFaultIdentity:
    """The bit-identity contract: a zero-rate plan changes nothing."""

    @pytest.mark.parametrize("ecc", [False, True])
    def test_statistics_byte_identical(self, ecc):
        words = synthetic_words()
        result = run_campaign(words, machine(), FaultPlan(), ecc=ecc)
        assert result.identical, "zero-fault replay diverged from baseline"
        assert result.miss_ratio_error == 0.0
        assert result.fault_counts == {}

    def test_injector_makes_no_rng_draws_on_zero_plan(self):
        board = board_for_machine(machine())
        injector = FaultInjector(board, FaultPlan())
        state_before = injector._drop_rng.bit_generator.state
        injector.replay_words(synthetic_words(200))
        assert injector._drop_rng.bit_generator.state == state_before
        assert injector.events == []


class TestReproducibility:
    def test_same_plan_reproduces_sites_and_statistics(self):
        words = synthetic_words()
        plan = FaultPlan.uniform(0.01, seed=11)
        first = run_campaign(words, machine(), plan)
        second = run_campaign(words, machine(), plan)
        assert first.events == second.events
        assert first.faulted == second.faulted
        assert first.fault_counts == second.fault_counts

    def test_different_seed_moves_fault_sites(self):
        words = synthetic_words()
        a = run_campaign(words, machine(), FaultPlan.uniform(0.01, seed=1))
        b = run_campaign(words, machine(), FaultPlan.uniform(0.01, seed=2))
        assert a.events != b.events

    def test_all_sites_fire_at_high_rate(self):
        words = synthetic_words()
        result = run_campaign(words, machine(), FaultPlan.uniform(0.05, seed=5))
        assert set(result.fault_counts) == {
            "drop_snoop",
            "directory_flip",
            "buffer_burst",
            "counter_saturate",
        }


class TestEccRecovery:
    def populated_board(self):
        board = board_for_machine(machine(), ecc=True)
        board.replay_words(synthetic_words(1500))
        return board

    def test_scrubber_corrects_every_single_bit_flip(self):
        board = self.populated_board()
        node = board.firmware.nodes[0]
        directory = node.directory
        assert isinstance(directory, EccTagStateDirectory)
        rng = np.random.default_rng(0)
        flips = 0
        for set_index in range(directory.config.num_sets):
            ways = directory.ways_in_set(set_index)
            if ways == 0:
                continue
            bit = int(rng.integers(directory.stored_bits))
            directory.inject_bit_flip(set_index, 0, bit)
            flips += 1
        assert flips > 0
        node.scrubber.scrub_all()
        snapshot = node.resilience.snapshot()
        assert snapshot.get("node0.resilience.ecc.corrected", 0) == flips
        assert "node0.resilience.ecc.uncorrectable" not in snapshot
        assert "node0.resilience.ecc.dropped" not in snapshot
        # A second full pass finds a clean directory.
        before = dict(snapshot)
        node.scrubber.scrub_all()
        assert node.resilience.snapshot() == before

    def test_scrubber_runs_off_the_board_clock(self):
        board = self.populated_board()
        node = board.firmware.nodes[0]
        directory = node.directory
        set_index = next(
            s
            for s in range(directory.config.num_sets)
            if directory.ways_in_set(s) > 0
        )
        directory.inject_bit_flip(set_index, 0, 2)
        # Drive idle tenures until the patrol has covered the directory.
        passes = node.scrubber.full_pass_cycles() / board.cycles_per_tenure
        for _ in range(int(passes) + 2):
            board._dispatch(0, BusCommand.READ, 0, SnoopResponse.RETRY)
        assert (
            node.resilience.snapshot().get("node0.resilience.ecc.corrected", 0)
            >= 1
        )

    def test_double_flip_is_detected_not_miscorrected(self):
        board = self.populated_board()
        directory = board.firmware.nodes[0].directory
        node = board.firmware.nodes[0]
        set_index = next(
            s
            for s in range(directory.config.num_sets)
            if directory.ways_in_set(s) > 0
        )
        directory.inject_bit_flip(set_index, 0, 1)
        directory.inject_bit_flip(set_index, 0, 7)
        outcome = directory.verify_line(set_index, 0, node.resilience)
        assert outcome is EccOutcome.UNCORRECTABLE
        snapshot = node.resilience.snapshot()
        assert snapshot["node0.resilience.ecc.uncorrectable"] == 1

    def test_bit_flip_out_of_range_rejected(self):
        board = self.populated_board()
        directory = board.firmware.nodes[0].directory
        with pytest.raises(ValidationError):
            directory.inject_bit_flip(0, 0, directory.stored_bits)


class TestSnoopLossRecovery:
    def test_note_snoop_loss_invalidates_resident_line(self):
        board = board_for_machine(machine())
        node = board.firmware.nodes[0]
        line = node.config.line_size
        board._dispatch(0, BusCommand.READ, 0x40 * line, SnoopResponse.NULL)
        assert node.directory.lookup_state(0x40 * line) != 0
        dropped = board.note_snoop_loss(0x40 * line)
        assert dropped == 1
        assert board.snoop_losses == 1
        assert node.directory.lookup_state(0x40 * line) == 0
        snapshot = node.resilience.snapshot()
        assert snapshot["node0.resilience.resync.checked"] == 1
        assert snapshot["node0.resilience.resync.invalidated"] == 1

    def test_loss_of_absent_line_is_counted_but_harmless(self):
        board = board_for_machine(machine())
        assert board.note_snoop_loss(0x123000) == 0
        assert board.snoop_losses == 1
        assert board.statistics()["board.snoop_losses"] == 1

    def test_drop_overstates_never_understates_misses(self):
        words = synthetic_words(3000)
        plan = FaultPlan(seed=2, drop_snoop_rate=0.02)
        result = run_campaign(words, machine(), plan)
        assert result.faulted_miss_ratio >= result.baseline_miss_ratio


class TestCounterSaturation:
    def test_wrap_is_silent_in_read_but_flagged(self):
        board = board_for_machine(machine())
        board.replay_words(synthetic_words(500))
        node = board.firmware.nodes[0]
        name = sorted(node.counters.state_dict())[0]
        before = node.counters.read(name)
        node.counters.increment(name, COUNTER_MASK + 1)
        assert node.counters.read(name) == before
        assert node.counters.wrapped(name)


class TestCheckpoint:
    def build(self):
        mach = split_smp_machine(CFG, n_cpus=4, procs_per_node=2)
        return board_for_machine(mach, seed=3, ecc=True)

    def test_restore_continues_identically(self, tmp_path):
        words = synthetic_words(2000)
        straight = self.build()
        straight.replay_words(words)

        interrupted = self.build()
        interrupted.replay_words(words[:1000])
        path = tmp_path / "board.ckpt"
        save_checkpoint(interrupted, path)

        resumed = self.build()
        restore_checkpoint(resumed, path)
        assert resumed.now_cycle == interrupted.now_cycle
        resumed.replay_words(words[1000:])
        assert resumed.statistics() == straight.statistics()

    @pytest.mark.parametrize("batched", [False, True], ids=["scalar", "default"])
    def test_restore_over_duplicate_tags_continues_identically(self, batched):
        """A flipped tag duplicating another resident tag: a restore
        rebuilds the way map with the first copy winning, so the
        uninterrupted board must keep the first copy through its LRU
        promotions too, or the two boards probe different copies."""
        from repro.bus.trace import encode_arrays
        from repro.supervisor.spec import statistics_digest

        mach = split_smp_machine(CFG, n_cpus=4, procs_per_node=2)
        read, rwitm = int(BusCommand.READ), int(BusCommand.RWITM)

        def build():
            board = board_for_machine(mach, seed=3)
            board.batched_replay = batched
            return board

        straight = build()
        directory = straight.firmware.nodes[0].directory

        def records(*pairs):  # (command, tag) in set 0, from cpu 0
            return encode_arrays(
                np.zeros(len(pairs), dtype=np.uint64),
                np.array([cmd for cmd, _tag in pairs], dtype=np.uint64),
                np.array([directory.amap.rebuild(tag, 0)
                          for _cmd, tag in pairs], dtype=np.uint64),
            )

        straight.replay_words(records(
            (read, 1), (read, 2), (read, 3), (read, 4), (rwitm, 3)
        ))
        assert directory.set_tags(0) == [3, 4, 2, 1]
        for bit in range(3):  # way 1: 4 -> 3, a clean copy behind a dirty one
            directory.inject_bit_flip(0, 1, bit)
        straight.replay_words(records((read, 1)))
        resumed = build()
        resumed.restore(straight.checkpoint())
        tail = records((rwitm, 3), (read, 3))
        straight.replay_words(tail)
        resumed.replay_words(tail)
        assert resumed.checkpoint() == straight.checkpoint()
        assert statistics_digest(resumed.statistics()) == statistics_digest(
            straight.statistics()
        )

    def test_checkpoint_is_plain_json(self, tmp_path):
        board = self.build()
        board.replay_words(synthetic_words(100))
        path = tmp_path / "board.ckpt"
        save_checkpoint(board, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "memories-checkpoint"
        assert "state" in payload

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("not json {")
        with pytest.raises(TraceFormatError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(TraceFormatError, match="not a MemorIES"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_text(
            json.dumps(
                {"format": "memories-checkpoint", "version": 99, "state": {}}
            )
        )
        with pytest.raises(TraceFormatError, match="version"):
            load_checkpoint(path)


class TestCampaign:
    def test_sweep_shares_one_baseline(self):
        words = synthetic_words(800)
        campaign = FaultCampaign(machine(), ecc=True)
        plans = [FaultPlan(), FaultPlan.uniform(0.02, seed=4)]
        results = campaign.sweep(words, plans)
        assert len(results) == 2
        assert results[0].baseline == results[1].baseline
        assert results[0].identical

    def test_summary_and_to_dict(self):
        words = synthetic_words(400)
        result = run_campaign(
            words, machine(), FaultPlan.uniform(0.02, seed=4)
        )
        assert "miss ratio" in result.summary()
        payload = result.to_dict()
        assert payload["records"] == 400
        assert payload["plan"]["seed"] == 4
        json.dumps(payload)  # must be serialisable as-is


class TestConsoleAndCli:
    def console(self, ecc=True):
        from repro.memories.console import MemoriesConsole

        console = MemoriesConsole()
        console.power_up(machine(), enforce_envelope=False, ecc=ecc)
        return console

    def test_faults_command_reports_recovery_state(self):
        console = self.console()
        console.board.replay_words(synthetic_words(500))
        console.board.note_snoop_loss(0x4000)
        output = console.execute("faults")
        assert "snoop losses              1" in output
        assert "ECC on" in output
        assert "buffer high-water" in output

    def test_faults_command_without_ecc(self):
        output = self.console(ecc=False).execute("faults")
        assert "ECC off" in output

    def test_live_counter_wrap_shows_in_overflows(self):
        console = self.console()
        console.board.replay_words(synthetic_words(500))
        node = console.board.firmware.nodes[0]
        injector = FaultInjector(
            console.board, FaultPlan(seed=6, counter_saturate_rate=1.0)
        )
        injector.replay_words(synthetic_words(5, seed=1))
        wrapped = console.wrapped_counters()
        assert wrapped, "saturation faults should wrap at least one counter"
        output = console.execute("overflows")
        assert "WRAPPED" in output and wrapped[0] in output
        # read() stays modulo-2^40: the snapshot itself is unchanged.
        for name in wrapped:
            assert node.counters.read(name.split(".", 1)[1]) <= COUNTER_MASK

    def test_report_includes_buffer_stats(self):
        console = self.console()
        console.board.replay_words(synthetic_words(300))
        report = console.report()
        assert "node0.buffer.accepted" in report
        assert "node0.buffer.high_water" in report
        assert "node0.buffer.rejected" in report

    def test_cli_faults_run_zero_plan_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "campaign.json"
        status = main(
            ["faults", "run", "--records", "1500", "--out", str(out)]
        )
        text = capsys.readouterr().out
        assert status == 0
        assert "identical to baseline: True" in text
        assert out.exists()
        status = main(["faults", "report", str(out)])
        text = capsys.readouterr().out
        assert status == 0
        assert "identical to baseline: True" in text

    def test_cli_faults_run_with_faults(self, capsys):
        from repro.cli import main

        status = main(
            ["faults", "run", "--records", "1500", "--drop", "0.01",
             "--flip", "0.01", "--seed", "5"]
        )
        text = capsys.readouterr().out
        assert status == 0
        assert "faults" in text

    def test_cli_faults_report_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "junk.json"
        path.write_text("{")
        assert main(["faults", "report", str(path)]) == 2
        assert "error:" in capsys.readouterr().out


class TestSelfTestFailurePaths:
    def test_corrupted_directory_fails_a_check(self):
        from repro.memories.selftest import run_self_test

        board = board_for_machine(machine(), ecc=False)

        class VandalisedDirectory:
            """Forwards everything but forgets every installed line."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def lookup_state(self, address):
                return 0  # INVALID: warm reads look cold

        node = board.firmware.nodes[0]
        node.directory = VandalisedDirectory(node.directory)
        result = run_self_test(board)
        assert not result.passed
        assert "FAIL" in result.render()

    def test_crashing_pipeline_is_a_fail_not_a_crash(self):
        from repro.common.errors import EmulationError
        from repro.memories.selftest import run_self_test

        board = board_for_machine(machine())

        class ExplodingFilter:
            def __init__(self, inner):
                self._inner = inner
                self.stats = inner.stats

            def admit(self, command, response, now):
                raise EmulationError("address filter FPGA fault")

            def reset(self):
                self._inner.reset()

        board.address_filter = ExplodingFilter(board.address_filter)
        result = run_self_test(board)
        assert not result.passed
        assert "pipeline raised" in result.render()


class TestCorruptTraceBytes:
    def test_flip_changes_exactly_one_bit(self):
        rng = np.random.default_rng(0)
        data = bytes(range(64))
        damaged = corrupt_trace_bytes(data, rng, mode="flip")
        diff = [a ^ b for a, b in zip(data, damaged)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_truncate_shortens(self):
        rng = np.random.default_rng(0)
        data = bytes(64)
        assert len(corrupt_trace_bytes(data, rng, mode="truncate")) < 64

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            corrupt_trace_bytes(b"xx", np.random.default_rng(0), mode="melt")

    def test_empty_input_passthrough(self):
        assert corrupt_trace_bytes(b"", np.random.default_rng(0)) == b""
