"""Tests for repro.supervisor: journal WAL, checkpoints, crash-safe runs."""

import json
import os
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.bus.transaction import BusCommand
from repro.common.errors import (
    ConfigurationError,
    TraceFormatError,
    ValidationError,
)
from repro.faults import (
    CheckpointRotation,
    FaultPlan,
    find_latest_checkpoint,
    load_checkpoint_payload,
    restore_checkpoint,
    save_checkpoint,
)
from repro.memories.board import board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.memories.counters import COUNTER_MASK
from repro.supervisor import (
    ChaosPlan,
    RunJournal,
    RunSupervisor,
    SupervisedRunSpec,
    SupervisorError,
    render_status,
)
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


def bare_statistics(spec, words):
    """What an unsupervised replay of the same spec produces."""
    board = spec.build_board()
    board.replay_words(words)
    return board.statistics()


def corrupt_segment(run_dir, segment, segment_records):
    """Flip one payload byte of one segment of the staged v5 trace."""
    path = Path(run_dir) / RunSupervisor.TRACE_NAME
    data = bytearray(path.read_bytes())
    offset = 20 + segment * (segment_records * 8 + 4) + 11
    data[offset] ^= 0x40
    path.write_bytes(data)


# ---------------------------------------------------------------------- #
# The run journal (WAL)
# ---------------------------------------------------------------------- #


class TestRunJournal:
    def test_append_reload_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.append("run_start", records=100)
        journal.append("segment_commit", segment=0, digest="abc")
        journal.close()

        reloaded = RunJournal(path)
        assert not reloaded.torn_tail
        assert reloaded.next_seq == 2
        assert reloaded.last("segment_commit")["segment"] == 0
        assert [r["type"] for r in reloaded.entries()] == [
            "run_start",
            "segment_commit",
        ]
        assert reloaded.entries("run_start")[0]["records"] == 100

    def test_every_line_carries_a_crc(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.append("run_start", records=1)
        journal.close()
        record = json.loads(path.read_text())
        body = {k: v for k, v in record.items() if k != "crc"}
        encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
        assert record["crc"] == zlib.crc32(encoded.encode()) & 0xFFFFFFFF

    def test_torn_tail_is_dropped_and_flagged(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.append("run_start", records=1)
        journal.append("segment_commit", segment=0)
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"type": "segment_commit", "seq": 2, "cr')

        reloaded = RunJournal(path)
        assert reloaded.torn_tail
        assert reloaded.next_seq == 2

    def test_append_after_torn_tail_truncates_the_damage(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.append("run_start", records=1)
        journal.close()
        with open(path, "a") as handle:
            handle.write("garbage that is not json\n")

        reloaded = RunJournal(path)
        assert reloaded.torn_tail
        reloaded.append("segment_commit", segment=0)
        reloaded.close()
        assert "garbage" not in path.read_text()
        clean = RunJournal(path)
        assert not clean.torn_tail
        assert clean.next_seq == 2

    def test_corrupt_tail_crc_counts_as_torn(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.append("run_start", records=1)
        journal.append("segment_commit", segment=0)
        journal.close()
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace('"segment":0', '"segment":7')
        path.write_text("\n".join(lines) + "\n")

        reloaded = RunJournal(path)
        assert reloaded.torn_tail
        assert reloaded.next_seq == 1

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        for segment in range(3):
            journal.append("segment_commit", segment=segment)
        journal.close()
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-5]
        path.write_text("\n".join(lines) + "\n")

        with pytest.raises(TraceFormatError, match="not the tail"):
            RunJournal(path)

    def test_sequence_gap_is_corruption(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.append("run_start", records=1)
        journal.close()
        # A validly-CRC'd line with the wrong seq is still a torn tail
        # (it was never acknowledged at that position).
        record = {"type": "segment_commit", "seq": 5}
        encoded = json.dumps(record, sort_keys=True, separators=(",", ":"))
        record["crc"] = zlib.crc32(encoded.encode()) & 0xFFFFFFFF
        with open(path, "a") as handle:
            handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            )
        reloaded = RunJournal(path)
        assert reloaded.torn_tail
        assert reloaded.next_seq == 1


# ---------------------------------------------------------------------- #
# Atomic checkpoints with CRCs (satellites 1 and 2)
# ---------------------------------------------------------------------- #


class TestCheckpointIntegrity:
    def _board(self, words=None):
        board = board_for_machine(machine(), seed=0)
        board.replay_words(words if words is not None else synthetic_words(400))
        return board

    def test_checkpoint_is_plain_json_with_crc(self, tmp_path):
        board = self._board()
        path = tmp_path / "ckpt.json"
        save_checkpoint(board, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "memories-checkpoint"
        assert payload["version"] == 3
        assert isinstance(payload["crc"], int)
        assert "machine" in payload

    def test_no_temp_files_left_behind(self, tmp_path):
        save_checkpoint(self._board(), tmp_path / "ckpt.json")
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_roundtrip_restores_statistics(self, tmp_path):
        board = self._board()
        path = tmp_path / "ckpt.json"
        save_checkpoint(board, path)
        restored = board_for_machine(machine(), seed=0)
        restore_checkpoint(restored, path)
        assert restored.statistics() == board.statistics()

    def test_truncated_checkpoint_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._board(), path)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.raises(TraceFormatError):
            load_checkpoint_payload(path)

    def test_garbled_checkpoint_fails_crc(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._board(), path)
        # Corrupt one digit inside the state body, keeping valid JSON.
        text = path.read_text()
        garbled = text.replace('"state": {"version": 1', '"state": {"version": 9', 1)
        assert garbled != text
        path.write_text(garbled)
        with pytest.raises(TraceFormatError, match="CRC mismatch"):
            load_checkpoint_payload(path)

    def test_failed_restore_never_half_applies(self, tmp_path):
        board = self._board()
        path = tmp_path / "ckpt.json"
        save_checkpoint(board, path)
        path.write_bytes(path.read_bytes()[:40])
        victim = board_for_machine(machine(), seed=0)
        before = victim.statistics()
        with pytest.raises(TraceFormatError):
            restore_checkpoint(victim, path)
        assert victim.statistics() == before

    def test_restore_into_differently_programmed_board_raises(self, tmp_path):
        board = self._board()
        path = tmp_path / "ckpt.json"
        save_checkpoint(board, path)
        other_cfg = CacheNodeConfig(size=128 * 1024, assoc=4, line_size=128)
        other = board_for_machine(
            single_node_machine(other_cfg, n_cpus=4), seed=0
        )
        with pytest.raises(ConfigurationError, match="differently-programmed"):
            restore_checkpoint(other, path)

    def test_find_latest_skips_corrupt_newest(self, tmp_path):
        board = self._board()
        for name in ("ckpt-00000000.json", "ckpt-00000001.json",
                     "ckpt-00000002.json"):
            save_checkpoint(board, tmp_path / name)
        newest = tmp_path / "ckpt-00000002.json"
        newest.write_bytes(newest.read_bytes()[:60])
        assert find_latest_checkpoint(tmp_path) == tmp_path / "ckpt-00000001.json"

    def test_find_latest_skips_binary_garbage(self, tmp_path):
        board = self._board()
        for name in ("ckpt-00000000.json", "ckpt-00000001.json"):
            save_checkpoint(board, tmp_path / name)
        newest = tmp_path / "ckpt-00000001.json"
        newest.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(TraceFormatError):
            load_checkpoint_payload(newest)
        assert find_latest_checkpoint(tmp_path) == tmp_path / "ckpt-00000000.json"

    def test_file_layout_is_v3_header_then_crc_covered_body(self, tmp_path):
        # The v3 layout: a fixed header ending in the CRC, then the body
        # as json.dumps wrote it (opening brace dropped); the CRC covers
        # exactly those body bytes.  The garbled-CRC fixture above edits
        # this layout.
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._board(), path)
        raw = path.read_bytes()
        payload = load_checkpoint_payload(path)
        body = {k: payload[k] for k in ("state", "machine")}
        stored = json.dumps(body).encode("utf-8")[1:]
        header = (
            '{"format": "memories-checkpoint", "version": 3, '
            f'"crc": {zlib.crc32(stored)}, '
        ).encode("ascii")
        assert raw == header + stored
        assert raw.decode("utf-8") == json.dumps(payload)
        directory = payload["state"]["firmware"]["nodes"][0]["directory"]
        assert sorted(directory) == ["meta", "states", "tags", "ways"]
        assert all(
            set(field) == {"width", "data"} and field["width"] in (1, 2, 4, 8)
            for field in directory.values()
        )

    def test_find_latest_on_empty_or_all_corrupt(self, tmp_path):
        assert find_latest_checkpoint(tmp_path) is None
        (tmp_path / "ckpt-00000000.json").write_text("not json at all")
        assert find_latest_checkpoint(tmp_path) is None

    def test_rotation_keeps_newest_n(self, tmp_path):
        board = self._board()
        rotation = CheckpointRotation(tmp_path / "ckpts", keep=2)
        for segment in range(4):
            rotation.save(board, segment)
        names = sorted(p.name for p in (tmp_path / "ckpts").iterdir())
        assert names == ["ckpt-00000002.json", "ckpt-00000003.json"]
        segment, path = rotation.latest()
        assert segment == 3
        assert path.name == "ckpt-00000003.json"

    def test_rotation_rejects_keep_below_one(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointRotation(tmp_path, keep=0)


# ---------------------------------------------------------------------- #
# Resume-equivalence edge cases (satellite 4)
# ---------------------------------------------------------------------- #


class TestCheckpointEdgeCases:
    def test_wrapped_counters_survive_checkpoint(self, tmp_path):
        board = board_for_machine(machine(), seed=0)
        board.replay_words(synthetic_words(400))
        node = board.firmware.nodes[0]
        node.counters.increment("local.read", COUNTER_MASK + 5)
        assert board.wrapped_counters()

        path = tmp_path / "ckpt.json"
        save_checkpoint(board, path)
        restored = board_for_machine(machine(), seed=0)
        restore_checkpoint(restored, path)
        assert restored.wrapped_counters() == board.wrapped_counters()
        assert restored.statistics() == board.statistics()
        # The raw (un-wrapped) value survives, not just the masked readout.
        assert (
            restored.firmware.nodes[0].counters.read_raw("local.read")
            == node.counters.read_raw("local.read")
        )

    def test_mid_window_checkpoint_restores_sampler_cursor(self, tmp_path):
        from repro.telemetry import CounterSampler, MemorySink

        words = synthetic_words(3000)

        def instrumented_board():
            board = board_for_machine(machine(), seed=0)
            sink = MemorySink()
            board.attach_telemetry(
                CounterSampler(sink, every_transactions=1000, label="t")
            )
            return board, sink

        full_board, full_sink = instrumented_board()
        full_board.replay_words(words)
        full_board.telemetry.finish(full_board)

        # Checkpoint at 1500 records: halfway through the second window.
        first, first_sink = instrumented_board()
        first.replay_words(words[:1500])
        path = tmp_path / "ckpt.json"
        save_checkpoint(first, path)
        assert len(first_sink.records) == 1

        second, second_sink = instrumented_board()
        restore_checkpoint(second, path)
        second.replay_words(words[1500:])
        second.telemetry.finish(second)

        # Everything emitted after the checkpoint — the 2000/3000-record
        # windows and the final flush — is identical to the uninterrupted
        # series: cadence, sequence numbers, deltas, cycles.
        assert second_sink.records == full_sink.records[1:]


# ---------------------------------------------------------------------- #
# The spec
# ---------------------------------------------------------------------- #


class TestSupervisedRunSpec:
    def test_validation(self):
        with pytest.raises(ValidationError, match="segment_records"):
            SupervisedRunSpec(machine=machine(), segment_records=0)
        with pytest.raises(ValidationError, match="keep_checkpoints"):
            SupervisedRunSpec(machine=machine(), keep_checkpoints=0)
        with pytest.raises(ValidationError, match="max_restarts"):
            SupervisedRunSpec(machine=machine(), max_restarts=-1)
        with pytest.raises(ValidationError, match="segment_deadline"):
            SupervisedRunSpec(machine=machine(), segment_deadline=0.0)

    def test_dict_roundtrip_without_chaos(self):
        spec = SupervisedRunSpec(
            machine=machine(),
            seed=3,
            ecc=True,
            segment_records=500,
            fault_plan=FaultPlan(seed=1, drop_snoop_rate=0.01),
            chaos=ChaosPlan(kill_after_records=10),
        )
        data = spec.to_dict()
        # The chaos schedule applies to one process launch only; it must
        # never survive into a resumed run's spec.json.
        assert "chaos" not in data
        rebuilt = SupervisedRunSpec.from_dict(data)
        assert rebuilt.chaos is None
        assert rebuilt.machine.fingerprint() == spec.machine.fingerprint()
        assert rebuilt.fault_plan == spec.fault_plan
        assert rebuilt.segment_records == 500
        assert rebuilt.ecc is True


# ---------------------------------------------------------------------- #
# Supervised runs: identity, crash-resume, degradation
# ---------------------------------------------------------------------- #


class TestSupervisedRuns:
    def _spec(self, **overrides):
        defaults = dict(
            machine=machine(),
            segment_records=500,
            backoff_base=0.01,
        )
        defaults.update(overrides)
        return SupervisedRunSpec(**defaults)

    def test_zero_fault_run_is_bit_identical_to_bare_replay(self, tmp_path):
        words = synthetic_words(2000)
        spec = self._spec()
        supervisor = RunSupervisor.create(spec, words, tmp_path / "run")
        result = supervisor.run()
        assert not result.degraded
        assert result.restarts == 0
        assert result.statistics == bare_statistics(spec, words)
        status = supervisor.status()
        assert status["complete"]
        assert status["committed"] == status["segments"] == 4

    def test_completed_run_is_idempotent(self, tmp_path):
        words = synthetic_words(1000)
        supervisor = RunSupervisor.create(self._spec(), words, tmp_path / "run")
        first = supervisor.run()
        again = RunSupervisor.open(tmp_path / "run").run()
        assert again.digest == first.digest
        assert again.statistics == first.statistics

    def test_create_refuses_existing_run(self, tmp_path):
        words = synthetic_words(500)
        RunSupervisor.create(self._spec(), words, tmp_path / "run")
        with pytest.raises(ValidationError, match="open"):
            RunSupervisor.create(self._spec(), words, tmp_path / "run")

    def test_open_missing_run_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            RunSupervisor.open(tmp_path / "nowhere")

    def test_mid_segment_kill_restarts_and_stays_identical(self, tmp_path):
        words = synthetic_words(2000)
        spec = self._spec()
        supervisor = RunSupervisor.create(spec, words, tmp_path / "run")
        # SIGKILL the worker 700 records in: segment 1, mid-segment.
        result = supervisor.run(chaos=ChaosPlan(kill_after_records=700))
        assert result.restarts == 1
        assert result.statistics == bare_statistics(spec, words)
        assert len(supervisor.journal.entries("restart")) == 1

    def test_backoff_delay_is_seeded_and_journaled(self, tmp_path):
        """Restart backoff jitter is a pure function of (run seed,
        attempt) and the journal records the exact delay slept — the
        replayable spelling DT207 enforces."""
        from repro.supervisor import backoff_delay

        # Deterministic: same inputs, same delay, bit for bit.
        assert backoff_delay(42, 0.05, 1) == backoff_delay(42, 0.05, 1)
        # Decorrelated across attempts and seeds.
        assert backoff_delay(42, 0.05, 1) != backoff_delay(42, 0.05, 2)
        assert backoff_delay(42, 0.05, 1) != backoff_delay(43, 0.05, 1)
        # Bounded: base * 2**(n-1) * [1, 1 + jitter].
        for attempt in (1, 2, 3):
            floor = 0.05 * 2 ** (attempt - 1)
            delay = backoff_delay(7, 0.05, attempt)
            assert floor <= delay <= floor * 1.25

        words = synthetic_words(1500)
        spec = self._spec(seed=9, backoff_base=0.01)
        supervisor = RunSupervisor.create(spec, words, tmp_path / "run")
        result = supervisor.run(chaos=ChaosPlan(kill_after_records=600))
        assert result.restarts == 1
        (record,) = supervisor.journal.entries("restart")
        assert record["delay"] == backoff_delay(9, 0.01, 1)

    def test_commit_boundary_kill_then_resume_is_identical(self, tmp_path):
        words = synthetic_words(2000)
        spec = self._spec(max_restarts=0)
        supervisor = RunSupervisor.create(spec, words, tmp_path / "run")
        with pytest.raises(SupervisorError, match="restart budget"):
            supervisor.run(chaos=ChaosPlan(kill_at_commit=1))
        # Segments 0 and 1 are journaled; a fresh open() resumes from the
        # committed checkpoint and finishes bit-identically.
        resumed = RunSupervisor.open(tmp_path / "run")
        assert resumed.committed_segment() == 1
        result = resumed.run()
        assert result.statistics == bare_statistics(spec, words)
        status = resumed.status()
        assert status["complete"]
        assert status["restarts"] == 1

    def test_restart_budget_bounds_repeated_failures(self, tmp_path):
        words = synthetic_words(1000)
        spec = self._spec(max_restarts=0)
        supervisor = RunSupervisor.create(spec, words, tmp_path / "run")
        with pytest.raises(SupervisorError, match="restart budget"):
            supervisor.run(chaos=ChaosPlan(kill_after_records=100))

    def test_corrupt_segment_is_quarantined(self, tmp_path):
        words = synthetic_words(2000)
        spec = self._spec()
        supervisor = RunSupervisor.create(spec, words, tmp_path / "run")
        corrupt_segment(tmp_path / "run", 2, spec.segment_records)
        result = supervisor.run()
        assert result.degraded
        assert result.segments_quarantined == 1
        assert result.records_skipped == 500
        assert result.statistics["board.segments_quarantined"] == 1
        assert result.statistics["board.records_skipped"] == 500
        assert [
            r["segment"] for r in supervisor.journal.entries("quarantine")
        ] == [2]
        commit = [
            r
            for r in supervisor.journal.entries("segment_commit")
            if r["segment"] == 2
        ][0]
        assert commit["quarantined"]
        status = supervisor.status()
        assert status["quarantined_segments"] == [2]
        assert status["degraded"]
        assert "DEGRADED" in render_status(status)

    def test_failing_node_is_taken_offline_and_run_completes(self, tmp_path):
        words = synthetic_words(2000)
        spec = self._spec(ecc=True)
        supervisor = RunSupervisor.create(spec, words, tmp_path / "run")
        result = supervisor.run(chaos=ChaosPlan(fail_node=(1, 0)))
        assert result.degraded
        assert result.offline_nodes == [0]
        assert result.statistics["board.offline_nodes"] == 1
        offlines = supervisor.journal.entries("node_offlined")
        assert [(r["node"], r["segment"]) for r in offlines] == [(0, 1)]
        assert supervisor.status()["offline_nodes"] == [0]

    def test_offline_budget_exhaustion_fails_the_run(self, tmp_path):
        words = synthetic_words(1000)
        spec = self._spec(ecc=True, max_offline_nodes=0)
        supervisor = RunSupervisor.create(spec, words, tmp_path / "run")
        with pytest.raises(SupervisorError, match="offline budget"):
            supervisor.run(chaos=ChaosPlan(fail_node=(1, 0)))

    def test_run_start_records_the_machine_fingerprint(self, tmp_path):
        words = synthetic_words(500)
        spec = self._spec()
        supervisor = RunSupervisor.create(spec, words, tmp_path / "run")
        start = supervisor.journal.last("run_start")
        assert start["machine"] == spec.machine.fingerprint()
        assert start["records"] == 500
        assert start["segments"] == 1


# ---------------------------------------------------------------------- #
# Offline-node firmware semantics (degradation rung 3's mechanism)
# ---------------------------------------------------------------------- #


class TestOfflineNode:
    def _split_board(self):
        target = split_smp_machine(CFG, n_cpus=4, procs_per_node=2)
        return board_for_machine(target, seed=0)

    def test_offline_node_freezes_its_counters(self):
        board = self._split_board()
        words = synthetic_words(600)
        board.replay_words(words[:300])
        frozen = dict(board.firmware.nodes[0].counters.snapshot())
        board.offline_node(0)
        board.replay_words(words[300:])
        assert dict(board.firmware.nodes[0].counters.snapshot()) == frozen
        # The survivor kept emulating.
        assert board.firmware.nodes[1].references() > 0
        assert board.offline_nodes() == [0]
        assert board.statistics()["board.offline_nodes"] == 1

    def test_offline_is_idempotent_and_bounds_checked(self):
        board = self._split_board()
        board.offline_node(1)
        board.offline_node(1)
        assert board.offline_nodes() == [1]
        with pytest.raises(ConfigurationError):
            board.offline_node(9)

    def test_offline_set_survives_checkpoint(self, tmp_path):
        board = self._split_board()
        board.replay_words(synthetic_words(300))
        board.offline_node(0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(board, path)
        target = split_smp_machine(CFG, n_cpus=4, procs_per_node=2)
        restored = board_for_machine(target, seed=0)
        restore_checkpoint(restored, path)
        assert restored.offline_nodes() == [0]
        assert restored.statistics() == board.statistics()

    def test_reset_brings_nodes_back(self):
        board = self._split_board()
        board.offline_node(0)
        board.reset()
        assert board.offline_nodes() == []
        assert board.statistics()["board.offline_nodes"] == 0

    def test_ecc_self_check_is_read_only(self):
        target = single_node_machine(CFG, n_cpus=4)
        board = board_for_machine(target, seed=0, ecc=True)
        board.replay_words(synthetic_words(400))
        node = board.firmware.nodes[0]
        before = board.statistics()
        # Clean directory: no uncorrectables, nothing moves.
        assert node.ecc_self_check() == 0
        assert board.statistics() == before
        # A single-bit flip is correctable damage: the probe must neither
        # flag it nor repair it (that is the scrubber's job).
        node.directory.inject_bit_flip(0, 0, 0)
        damaged = board.statistics()
        assert node.ecc_self_check() == 0
        assert board.statistics() == damaged
        # A double flip is uncorrectable: flagged, but still untouched —
        # probing twice reports it twice.
        node.directory.inject_bit_flip(0, 0, 1)
        assert node.ecc_self_check() == 1
        assert node.ecc_self_check() == 1
        assert board.statistics() == damaged


# ---------------------------------------------------------------------- #
# Forked workers replay warm: a session imports nothing
# ---------------------------------------------------------------------- #

#: Runs in a fresh interpreter, which holds what a service process holds
#: when it forks a worker: ``repro.supervisor`` and what staging a run
#: needs.  One session of the board shape named in ``argv[1]`` then runs
#: through ``worker_main`` in-process; the modules it imported print as
#: JSON, with the kinds of message the worker sent and whether the pipe
#: drained.  ``argv[2]`` is the directory the run is staged in.
_SESSION_SCRIPT = textwrap.dedent(
    """
    import json
    import multiprocessing
    import sys
    import threading
    from pathlib import Path

    import numpy as np

    from repro.bus.trace import encode_arrays
    from repro.bus.transaction import BusCommand
    from repro.memories.config import CacheNodeConfig
    from repro.supervisor import RunSupervisor, SupervisedRunSpec
    from repro.supervisor.worker import worker_main
    from repro.target.configs import multi_config_machine, split_smp_machine

    RECORDS, SEGMENT = 20_000, 5_000

    def node(size, assoc, replacement="lru"):
        return CacheNodeConfig(size=size, assoc=assoc, line_size=128,
                               replacement=replacement)

    def split4(replacement="lru"):
        return split_smp_machine(node(64 << 10, 4, replacement),
                                 n_cpus=8, procs_per_node=2)

    shape = sys.argv[1]
    if shape == "sweep4":
        machine = multi_config_machine(
            [node(32 << 10, 2), node(64 << 10, 4, "plru"),
             node(128 << 10, 8, "fifo"), node(256 << 10, 4)],
            n_cpus=8,
        )
    else:
        machine = split4("random" if shape == "random" else "lru")
    spec = SupervisedRunSpec(machine=machine, seed=3,
                             segment_records=SEGMENT, ecc=shape == "ecc")

    rng = np.random.default_rng(1)
    commands = rng.choice(
        [int(BusCommand.READ), int(BusCommand.RWITM),
         int(BusCommand.CASTOUT)], size=RECORDS, p=[0.7, 0.2, 0.1])
    words = encode_arrays(
        rng.integers(0, 8, RECORDS).astype(np.uint64),
        commands.astype(np.uint64),
        (rng.integers(0, 8192, RECORDS) * 128).astype(np.uint64),
    )
    run_dir = Path(sys.argv[2]) / "run"
    RunSupervisor.create(spec, words, run_dir)

    supervisor_end, worker_end = multiprocessing.Pipe()
    for index in range(RECORDS // SEGMENT):
        supervisor_end.send(("segment", index, False))
    supervisor_end.send(("finish",))
    kinds = []

    def drain():
        try:
            while True:
                kinds.append(supervisor_end.recv()[0])
        except EOFError:
            pass

    drainer = threading.Thread(target=drain)
    drainer.start()
    before = set(sys.modules)
    worker_main(worker_end, str(run_dir), spec.to_dict(), None, 0, None)
    imported = sorted(set(sys.modules) - before)
    drainer.join(60)
    print(json.dumps({"imported": imported, "kinds": sorted(set(kinds)),
                      "drained": not drainer.is_alive()}))
    """
)


class TestWarmWorker:
    """The fork parent holds every module a worker needs, so a worker's
    session imports nothing: an import there is paid again by every
    forked session."""

    @pytest.mark.parametrize("shape", ["split4", "sweep4", "random", "ecc"])
    def test_session_imports_nothing(self, shape, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", _SESSION_SCRIPT, shape, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["drained"] and "final" in report["kinds"]
        assert not {"fatal", "error"} & set(report["kinds"])
        assert report["imported"] == []


# ---------------------------------------------------------------------- #
# CLI exit-code discipline (satellite 3) and the supervise surfaces
# ---------------------------------------------------------------------- #


class TestCliExitCodes:
    def test_error_classification(self):
        from repro.cli import (
            EXIT_RUNTIME,
            EXIT_VALIDATION,
            CliError,
            classify_error,
        )

        assert classify_error(CliError("x")) == EXIT_VALIDATION
        assert classify_error(ValidationError("x")) == EXIT_VALIDATION
        assert classify_error(ConfigurationError("x")) == EXIT_VALIDATION
        assert classify_error(TraceFormatError("x")) == EXIT_RUNTIME
        assert classify_error(SupervisorError("x")) == EXIT_RUNTIME

    def test_resource_refusals_are_exit_code_5(self):
        """Quota/queue/deadline refusals must classify as EXIT_RESOURCE,
        not validation or runtime — fleet drivers key resubmit-later
        behaviour on it."""
        from repro.cli import EXIT_RESOURCE, classify_error
        from repro.common.errors import ResourceError
        from repro.service import AdmissionError, DeadlineError

        assert EXIT_RESOURCE == 5
        assert classify_error(ResourceError("x")) == EXIT_RESOURCE
        assert classify_error(
            AdmissionError("queue-full", budget="max_queue_depth",
                           limit=2, value=2)
        ) == EXIT_RESOURCE
        assert classify_error(DeadlineError("wall-deadline")) \
            == EXIT_RESOURCE

    def test_service_usage_and_bad_endpoint(self, tmp_path, capsys):
        from repro.cli import EXIT_VALIDATION, main

        assert main(["service"]) == EXIT_VALIDATION
        capsys.readouterr()
        assert main(["service", "status", "not-an-endpoint"]) \
            == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().out

    def test_supervise_usage_and_missing_run(self, tmp_path, capsys):
        from repro.cli import EXIT_VALIDATION, main

        assert main(["supervise"]) == EXIT_VALIDATION
        capsys.readouterr()
        assert main(["supervise", "status", str(tmp_path / "no")]) == 2
        assert "error:" in capsys.readouterr().out

    def test_supervise_resume_and_status_exit_codes(self, tmp_path, capsys):
        from repro.cli import EXIT_DEGRADED, EXIT_OK, main

        spec = SupervisedRunSpec(machine=machine(), segment_records=500)
        run_dir = tmp_path / "run"
        RunSupervisor.create(spec, synthetic_words(1500), run_dir)
        corrupt_segment(run_dir, 1, spec.segment_records)

        # Degraded-but-completed is its own exit code for cron wrappers.
        assert main(["supervise", "resume", str(run_dir)]) == EXIT_DEGRADED
        out = capsys.readouterr().out
        assert "DEGRADED" in out

        assert main(["supervise", "status", str(run_dir)]) == EXIT_OK
        assert "complete" in capsys.readouterr().out

    def test_console_supervise_command(self, tmp_path):
        from repro.cli import ConsoleSession

        spec = SupervisedRunSpec(machine=machine(), segment_records=500)
        run_dir = tmp_path / "run"
        RunSupervisor.create(spec, synthetic_words(500), run_dir)
        session = ConsoleSession()
        out = session.execute(f"supervise {run_dir}")
        assert "supervised run" in out
        assert "0/1 segments" in out
        with pytest.raises(ConfigurationError, match="usage"):
            session.console.execute("supervise")


# ---------------------------------------------------------------------- #
# Library integration wrappers
# ---------------------------------------------------------------------- #


class TestIntegrationWrappers:
    def test_supervised_replay_matches_replay_machine(self, tmp_path):
        from repro.bus.trace import BusTrace
        from repro.experiments.pipeline import replay_machine, supervised_replay

        words = synthetic_words(1500)
        trace = BusTrace(words)
        target = machine()
        result = supervised_replay(
            trace, target, tmp_path / "run", segment_records=500
        )
        bare = replay_machine(trace, target)
        assert result.statistics == bare.statistics()
        # Same run dir resumes (here: returns the journaled result).
        again = supervised_replay(trace, target, tmp_path / "run")
        assert again.digest == result.digest

    def test_supervised_campaign_matches_in_process_campaign(self, tmp_path):
        from repro.faults import run_campaign, supervised_campaign

        words = synthetic_words(1500)
        target = machine()
        plan = FaultPlan(seed=5, drop_snoop_rate=0.01, directory_flip_rate=0.005)
        base = run_campaign(words, target, plan, seed=0, ecc=True)
        supervised = supervised_campaign(
            words, target, plan, tmp_path / "run",
            seed=0, ecc=True, segment_records=500,
        )
        assert supervised.faulted == base.faulted
        assert supervised.baseline == base.baseline
        assert supervised.fault_counts == base.fault_counts
        assert [e.as_dict() for e in supervised.events] == [
            e.as_dict() for e in base.events
        ]
