"""Checkpoint format v3: packed directories and a CRC over the stored bytes.

Covers the v3 fail-closed paths (flipped array bytes, truncation, binary
rot, a damaged header), loading of version-1/2 files (a committed v2
fixture plus rewrites of fresh checkpoints), the removal of orphaned temp
files, and save/restore/continue round trips across every replacement
policy with and without ECC check bits.
"""

import json
import os
import zlib
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from repro.bus.trace import encode_arrays
from repro.bus.transaction import BusCommand
from repro.common.errors import TraceFormatError
from repro.faults import (
    CheckpointRotation,
    find_latest_checkpoint,
    load_checkpoint_payload,
    restore_checkpoint,
    save_checkpoint,
)
from repro.memories.board import board_for_machine
from repro.memories.cache_model import unpack_directory, unpack_rows
from repro.memories.config import CacheNodeConfig
from repro.memories.ecc import STATE_MASK
from repro.supervisor import statistics_digest
from repro.target.configs import split_smp_machine

FIXTURES = Path(__file__).resolve().parent / "fixtures"
V2_FIXTURE = FIXTURES / "ckpt-v2-tiny.json"
#: Records the v2 fixture was taken after (of ``words()``).
V2_FIXTURE_RECORDS = 300


def words(n=600, seed=11, lines=64):
    """Reads and writes by four CPUs over ``lines`` lines (with reuse)."""
    rng = np.random.default_rng(seed)
    cpus = rng.integers(0, 4, n).astype(np.uint64)
    commands = rng.choice(
        [int(BusCommand.READ), int(BusCommand.RWITM)], size=n, p=[0.7, 0.3]
    ).astype(np.uint64)
    addresses = (rng.integers(0, lines, n) * np.uint64(128)).astype(np.uint64)
    return encode_arrays(cpus, commands, addresses)


def two_node_machine(replacement="plru", size=4096):
    config = CacheNodeConfig(
        size=size, assoc=4, line_size=128, replacement=replacement
    )
    return split_smp_machine(config, n_cpus=4, procs_per_node=2)


def tiny_board():
    """The board the v2 fixture was written from."""
    return board_for_machine(two_node_machine(), seed=5, ecc=True)


def rewrite_as_v2(path):
    """Rewrite a checkpoint in the version-2 layout (list directories,
    CRC over the canonical sorted-key encoding)."""
    payload = load_checkpoint_payload(path)
    for node in payload["state"]["firmware"]["nodes"]:
        tags, states, meta = unpack_rows(node["directory"])
        node["directory"] = {"tags": tags, "states": states, "meta": meta}
    body = {
        key: value for key, value in payload.items()
        if key not in ("format", "version", "crc")
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(canonical.encode("utf-8"))
    Path(path).write_text(json.dumps(
        {"format": "memories-checkpoint", "version": 2, "crc": crc, **body}
    ))


def array_offset(raw, name="tags"):
    """Byte offset of the first node's packed ``name`` array data."""
    start = raw.index(f'"{name}": {{"width": '.encode("ascii"))
    marker = b'"data": "'
    return raw.index(marker, start) + len(marker)


# ---------------------------------------------------------------------- #
# v3 fails closed
# ---------------------------------------------------------------------- #


def flip_array_char(raw):
    """Swap one base64 character of a packed array for another."""
    offset = array_offset(raw) + 3
    swapped = b"B" if raw[offset:offset + 1] == b"A" else b"A"
    return raw[:offset] + swapped + raw[offset + 1:]


def rot_array_bytes(raw):
    offset = array_offset(raw, "states")
    return raw[:offset] + b"\xff\xfe\x00" + raw[offset + 3:]


def header_version_2(raw):
    return raw.replace(b'"version": 3', b'"version": 2', 1)


def header_crc_digit(raw):
    digit = raw.index(b'"crc": ') + len(b'"crc": ')
    changed = b"1" if raw[digit:digit + 1] != b"1" else b"2"
    return raw[:digit] + changed + raw[digit + 1:]


def header_respaced(raw):
    # Still valid JSON claiming version 3, but no longer the framed header.
    return raw.replace(b'"version": 3', b'"version":3', 1)


CRC_FAILURES = {
    "array-byte-flip": flip_array_char,
    "array-truncated": lambda raw: raw[:array_offset(raw) + 10],
    "array-binary-rot": rot_array_bytes,
    "header-version": header_version_2,
    "header-crc-digit": header_crc_digit,
    "header-respaced": header_respaced,
}


class TestV3FailsClosed:
    @pytest.fixture
    def saved(self, tmp_path):
        board = tiny_board()
        board.replay_words(words())
        path = tmp_path / "ckpt-00000000.json"
        save_checkpoint(board, path)
        return path

    @pytest.mark.parametrize("damage", sorted(CRC_FAILURES))
    def test_damage_is_a_crc_mismatch(self, saved, damage):
        raw = saved.read_bytes()
        damaged = CRC_FAILURES[damage](raw)
        assert damaged != raw
        saved.write_bytes(damaged)
        with pytest.raises(TraceFormatError, match="CRC mismatch"):
            load_checkpoint_payload(saved)

    def test_flipped_array_byte_keeps_valid_json(self, saved):
        # Only the CRC can tell this file from a good one.
        damaged = flip_array_char(saved.read_bytes())
        assert json.loads(damaged)["version"] == 3

    @pytest.mark.parametrize("keep", [0, 20, 54])
    def test_truncated_header_rejected(self, saved, keep):
        saved.write_bytes(saved.read_bytes()[:keep])
        with pytest.raises(TraceFormatError, match="not a checkpoint"):
            load_checkpoint_payload(saved)

    @pytest.mark.parametrize("damage", sorted(CRC_FAILURES))
    def test_failed_restore_touches_no_state(self, saved, damage):
        saved.write_bytes(CRC_FAILURES[damage](saved.read_bytes()))
        victim = tiny_board()
        victim.replay_words(words(100, seed=3))
        before = victim.checkpoint()
        with pytest.raises(TraceFormatError):
            restore_checkpoint(victim, saved)
        assert victim.checkpoint() == before

    def test_binary_rot_falls_back_a_generation(self, saved):
        newer = saved.with_name("ckpt-00000001.json")
        newer.write_bytes(rot_array_bytes(saved.read_bytes()))
        assert find_latest_checkpoint(saved.parent) == saved
        rotation = CheckpointRotation(saved.parent)
        assert rotation.latest() == (0, saved)


# ---------------------------------------------------------------------- #
# Version 1 and 2 files still load
# ---------------------------------------------------------------------- #


class TestVersion2Fixture:
    """``ckpt-v2-tiny.json`` was written by the version-2 writer from
    :func:`tiny_board` after the first 300 records of :func:`words`."""

    def expected(self):
        path = FIXTURES / "ckpt-v2-tiny.expected.json"
        return json.loads(path.read_text())

    def test_fixture_is_version_2_with_list_directories(self):
        payload = json.loads(V2_FIXTURE.read_text())
        assert payload["version"] == 2
        directory = payload["state"]["firmware"]["nodes"][0]["directory"]
        assert isinstance(directory["tags"][0], list)

    def test_restores_to_the_recorded_digest_and_live_state(self):
        restored = tiny_board()
        extra = restore_checkpoint(restored, V2_FIXTURE)
        assert extra == {"note": "v2 fixture"}
        assert (statistics_digest(restored.statistics())
                == self.expected()["restored_digest"])
        live = tiny_board()
        live.replay_words(words()[:V2_FIXTURE_RECORDS])
        assert restored.checkpoint() == live.checkpoint()

    def test_continues_bit_identically(self):
        restored = tiny_board()
        restore_checkpoint(restored, V2_FIXTURE)
        restored.replay_words(words()[V2_FIXTURE_RECORDS:])
        straight = tiny_board()
        straight.replay_words(words())
        digest = statistics_digest(restored.statistics())
        assert digest == self.expected()["final_digest"]
        assert digest == statistics_digest(straight.statistics())
        assert restored.checkpoint() == straight.checkpoint()


class TestLegacyVersions:
    def _saved(self, tmp_path):
        board = tiny_board()
        board.replay_words(words())
        path = tmp_path / "ckpt.json"
        save_checkpoint(board, path)
        return board, path

    def test_v2_rewrite_restores_identically(self, tmp_path):
        board, path = self._saved(tmp_path)
        rewrite_as_v2(path)
        assert json.loads(path.read_text())["version"] == 2
        restored = tiny_board()
        restore_checkpoint(restored, path)
        assert restored.checkpoint() == board.checkpoint()

    def test_v1_file_loads_packed(self, tmp_path):
        board, path = self._saved(tmp_path)
        rewrite_as_v2(path)
        payload = json.loads(path.read_text())
        v1 = {"format": "memories-checkpoint", "version": 1,
              "state": payload["state"]}
        path.write_text(json.dumps(v1))
        assert load_checkpoint_payload(path)["state"] == board.checkpoint()

    def test_garbled_v2_fails_crc(self, tmp_path):
        _board, path = self._saved(tmp_path)
        rewrite_as_v2(path)
        text = path.read_text()
        garbled = text.replace('"now_cycle": ', '"now_cycle": 1', 1)
        path.write_text(garbled)
        with pytest.raises(TraceFormatError, match="CRC mismatch"):
            load_checkpoint_payload(path)

    def test_malformed_v1_directory_is_a_format_error(self, tmp_path):
        _board, path = self._saved(tmp_path)
        rewrite_as_v2(path)
        payload = json.loads(path.read_text())
        directory = payload["state"]["firmware"]["nodes"][0]["directory"]
        directory["states"][0].append(1)
        path.write_text(json.dumps({"format": "memories-checkpoint",
                                    "version": 1, "state": payload["state"]}))
        with pytest.raises(TraceFormatError, match="version-1 directory"):
            load_checkpoint_payload(path)


# ---------------------------------------------------------------------- #
# Orphaned temp files
# ---------------------------------------------------------------------- #


def test_prune_removes_orphaned_temp_files(tmp_path):
    board = tiny_board()
    board.replay_words(words(100))
    orphan = tmp_path / "ckpt-00000000.json.tmp.999999999"
    orphan.write_text('{"format": "memories-check')
    own = tmp_path / f"ckpt-00000009.json.tmp.{os.getpid()}"
    own.write_text("{")
    unrelated = tmp_path / "notes.json.tmp.1"
    unrelated.write_text("keep")
    rotation = CheckpointRotation(tmp_path, keep=2)
    rotation.save(board, 1)
    assert not orphan.exists()
    assert own.exists() and unrelated.exists()
    assert rotation.latest() == (1, tmp_path / "ckpt-00000001.json")


# ---------------------------------------------------------------------- #
# Round trips across directory shapes
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("ecc", [False, True], ids=["plain", "ecc"])
@pytest.mark.parametrize("policy", ["lru", "fifo", "plru", "random"])
def test_roundtrip_across_directory_shapes(tmp_path, policy, ecc):
    machine = two_node_machine(policy, size=8192)
    trace = words(2000, seed=4, lines=256)

    def build():
        return board_for_machine(machine, seed=9, ecc=ecc)

    straight = build()
    straight.replay_words(trace)
    first = build()
    first.replay_words(trace[:1000])
    path = tmp_path / "ckpt.json"
    save_checkpoint(first, path)

    resumed = build()
    restore_checkpoint(resumed, path)
    state = resumed.checkpoint()
    assert state == first.checkpoint()
    _tags, states, meta = unpack_directory(
        state["firmware"]["nodes"][0]["directory"]
    )
    # The shape under test is really in the file: PLRU tree bits, and
    # check bits above the state field under ECC.
    assert any(meta) == (policy == "plru")
    assert (max(chain.from_iterable(states)) > STATE_MASK) == ecc

    resumed.replay_words(trace[1000:])
    assert (statistics_digest(resumed.statistics())
            == statistics_digest(straight.statistics()))
    assert resumed.checkpoint() == straight.checkpoint()
