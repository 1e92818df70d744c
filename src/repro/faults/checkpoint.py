"""Board checkpoint files.

Long campaigns (the paper's multi-day monitoring runs) need to survive
console restarts.  :func:`save_checkpoint` serialises a board's complete
mutable state — directories (with ECC check bits), counter banks,
transaction buffers, SDRAM timing state, scrubber position, replacement
RNG and the board clock — as JSON; :func:`restore_checkpoint` loads it
into an identically-programmed board, after which continued emulation
produces statistics identical to an uninterrupted run.

File layout (version 3).  One JSON document whose first bytes are a fixed
header, ``{"format": "memories-checkpoint", "version": 3, "crc": N, ``,
followed by the body keys ``state``, then optional ``extra`` and
``machine``.  Each node's tag/state directory inside ``state`` is four
packed little-endian integer arrays — per-set way counts, flat tags, flat
states and per-set replacement words — each stored as base64 ``data``
next to the element ``width`` (1, 2, 4 or 8 bytes) chosen from its
contents (see :func:`repro.memories.cache_model.pack_directory`).  The
body is encoded once; ``N`` is the CRC32 of exactly the bytes after the
header, so no canonical re-encode runs on save or on load.

Versions 1 (no CRC) and 2 (CRC32 over a canonical sorted-key re-encode
of the body, directories as per-set JSON lists) still load; their
directories are repacked at this file layer, so the board only ever
restores the packed form.

Crash safety (the contract :mod:`repro.supervisor` builds on):

* **Atomic**: the file is written to a same-directory temp name, fsynced,
  and ``os.replace``'d into place, and the directory is fsynced — a crash
  mid-write leaves either the previous checkpoint or none, never a
  half-written one.  :meth:`CheckpointRotation.prune` removes temp files
  a killed writer left behind.
* **Self-validating**: :func:`load_checkpoint` checks the CRC over the raw
  bytes before anything is decoded, so a truncated or bit-rotted file
  raises :class:`~repro.common.errors.TraceFormatError` instead of
  half-restoring a board.
* **Programming-checked**: the checkpoint records the target machine's
  :meth:`~repro.target.mapping.TargetMachine.fingerprint`;
  :func:`restore_checkpoint` refuses a board programmed differently.
* **Fallback-aware**: :func:`find_latest_checkpoint` picks the newest
  *valid* generation in a directory, skipping corrupt candidates, so
  rotation (keep-N) plus this function make the newest file's corruption
  a one-generation setback rather than a lost run.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.common.errors import (
    ConfigurationError,
    EmulationError,
    TraceFormatError,
)
from repro.memories.board import MemoriesBoard
from repro.memories.cache_model import pack_rows

#: Format tag of checkpoint files.
CHECKPOINT_FORMAT = "memories-checkpoint"
#: Current checkpoint file revision (3 packs the directories and takes the
#: CRC over the stored bytes; 2 added the CRC, the machine fingerprint and
#: the ``extra`` sidecar; 1 and 2 still load).
CHECKPOINT_VERSION = 3

#: Everything of a v3 file before the CRC digits; the CRC covers every
#: byte after the digits' trailing ", ".
_HEADER_PREFIX = (
    f'{{"format": "{CHECKPOINT_FORMAT}", '
    f'"version": {CHECKPOINT_VERSION}, "crc": '
)
_HEADER_RE = re.compile(re.escape(_HEADER_PREFIX.encode("ascii")) + rb"(\d{1,10}), ")


def _canonical(body: dict) -> bytes:
    """The version-2 CRC input: a sorted-key compact re-encode."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _board_fingerprint(board: MemoriesBoard) -> Optional[str]:
    machine = getattr(board.firmware, "machine", None)
    fingerprint = getattr(machine, "fingerprint", None)
    return fingerprint() if callable(fingerprint) else None


def save_checkpoint(
    board: MemoriesBoard,
    path: Union[str, Path],
    extra: Optional[dict] = None,
) -> None:
    """Atomically write the board's full mutable state to ``path`` (JSON).

    Args:
        extra: optional JSON-serialisable sidecar state committed in the
            same atomic write (e.g. a fault injector's RNG cursor, so a
            supervised fault campaign resumes bit-identically).
    """
    path = Path(path)
    body: dict = {"state": board.checkpoint()}
    if extra is not None:
        body["extra"] = extra
    fingerprint = _board_fingerprint(board)
    if fingerprint is not None:
        body["machine"] = fingerprint
    # One C-encoder pass.  Dropping the body's opening brace leaves the
    # bytes that follow the header; the CRC covers exactly those.
    stored = json.dumps(body).encode("utf-8")[1:]
    header = f"{_HEADER_PREFIX}{zlib.crc32(stored)}, ".encode("ascii")
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(header + stored)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    # Durability of the rename itself: fsync the containing directory so a
    # power cut cannot resurrect the old directory entry after the replace.
    dir_fd = os.open(path.parent or Path("."), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _pack_legacy_directories(path: Path, version: int, state: dict) -> None:
    """Repack a v1/v2 state's list-form node directories in place."""
    firmware = state.get("firmware")
    if not isinstance(firmware, dict):
        return
    try:
        for node in firmware["nodes"]:
            directory = node["directory"]
            node["directory"] = pack_rows(
                directory["tags"], directory["states"], directory["meta"]
            )
    except (KeyError, TypeError, ValueError, OverflowError,
            EmulationError) as exc:
        raise TraceFormatError(
            f"{path}: malformed version-{version} directory: {exc}"
        ) from exc


def load_checkpoint_payload(path: Union[str, Path]) -> dict:
    """Read and fully validate a checkpoint file; returns the payload dict.

    The payload carries ``state`` (the board state, directories packed),
    and optionally ``extra`` (caller sidecar) and ``machine`` (programming
    fingerprint).

    Raises:
        TraceFormatError: on unreadable JSON, a foreign file, an
            unsupported revision, or a CRC mismatch (truncation/garbling).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise TraceFormatError(f"{path}: not a checkpoint file: {exc}") from exc
    header = _HEADER_RE.match(raw)
    if header is not None and zlib.crc32(raw[header.end():]) != int(header[1]):
        raise TraceFormatError(
            f"{path}: CRC mismatch — checkpoint file is corrupt"
        )
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # UnicodeDecodeError: binary garbage (bit rot) is as corrupt as
        # malformed JSON, so callers fall back a generation either way.
        raise TraceFormatError(f"{path}: not a checkpoint file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise TraceFormatError(f"{path}: not a MemorIES checkpoint file")
    version = payload.get("version")
    if version not in (1, 2, CHECKPOINT_VERSION):
        raise TraceFormatError(
            f"{path}: unsupported checkpoint version {version!r}"
        )
    if version == CHECKPOINT_VERSION and header is None:
        # A v3 body is only trusted through the header that frames its CRC.
        raise TraceFormatError(
            f"{path}: CRC mismatch — checkpoint header is corrupt"
        )
    if version == 2:
        recorded = payload.get("crc")
        body = {
            key: value
            for key, value in payload.items()
            if key not in ("format", "version", "crc")
        }
        if recorded is None:
            raise TraceFormatError(f"{path}: checkpoint carries no CRC")
        if zlib.crc32(_canonical(body)) & 0xFFFFFFFF != int(recorded):
            raise TraceFormatError(
                f"{path}: CRC mismatch — checkpoint file is corrupt"
            )
    state = payload.get("state")
    if not isinstance(state, dict):
        raise TraceFormatError(f"{path}: checkpoint carries no board state")
    if version < CHECKPOINT_VERSION:
        _pack_legacy_directories(path, version, state)
    return payload


def load_checkpoint(path: Union[str, Path]) -> dict:
    """Read and validate a checkpoint file; returns the board state dict.

    Raises:
        TraceFormatError: on unreadable JSON, a foreign file, an
            unsupported revision, or a corrupt (CRC-failing) file.
    """
    return load_checkpoint_payload(path)["state"]


def restore_checkpoint(
    board: MemoriesBoard, path: Union[str, Path]
) -> Optional[dict]:
    """Load ``path`` into ``board``; returns the ``extra`` sidecar, if any.

    Raises:
        TraceFormatError: when the file is corrupt (see
            :func:`load_checkpoint`).
        ConfigurationError: when the checkpoint was taken on a board
            programmed with a different target machine — restoring it would
            silently mis-replay, so the mismatch is refused up front.
    """
    payload = load_checkpoint_payload(path)
    recorded = payload.get("machine")
    current = _board_fingerprint(board)
    if recorded is not None and current is not None and recorded != current:
        raise ConfigurationError(
            f"{path}: checkpoint was taken on a differently-programmed "
            f"machine (fingerprint {recorded[:12]}… != {current[:12]}…)"
        )
    board.restore(payload["state"])
    return payload.get("extra")


def find_latest_checkpoint(
    directory: Union[str, Path], pattern: str = "*.json"
) -> Optional[Path]:
    """Newest *valid* checkpoint in ``directory``, or None.

    Candidates are ordered newest-first by filename (rotation names encode
    the segment number, so lexicographic order is generation order) and
    each is fully validated; corrupt or foreign files are skipped, so a
    damaged newest generation falls back to the previous one instead of
    aborting a resume.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    for candidate in sorted(directory.glob(pattern), reverse=True):
        try:
            load_checkpoint_payload(candidate)
        except TraceFormatError:
            continue
        return candidate
    return None


def checkpoint_generation(path: Union[str, Path]) -> Optional[int]:
    """Segment number encoded in a rotation filename, or None.

    Rotation names checkpoints ``ckpt-<segment:08d>.json``; foreign names
    yield None rather than raising so callers can mix in manual files.
    """
    stem = Path(path).stem
    _prefix, _sep, digits = stem.rpartition("-")
    return int(digits) if digits.isdigit() else None


class CheckpointRotation:
    """Keep-N atomic checkpoint generations in one directory.

    Each :meth:`save` writes ``ckpt-<segment:08d>.json`` atomically (see
    :func:`save_checkpoint`) and then prunes the oldest generations beyond
    ``keep`` — never the one just written.  :meth:`latest` returns the
    newest generation that still validates, falling back past corrupt
    files.

    Args:
        directory: where generations live (created on first save).
        keep: how many generations to retain (>= 1).
    """

    def __init__(self, directory: Union[str, Path], keep: int = 3) -> None:
        if keep < 1:
            raise ConfigurationError(f"rotation must keep >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep

    def path_for(self, segment: int) -> Path:
        return self.directory / f"ckpt-{segment:08d}.json"

    def save(
        self, board: MemoriesBoard, segment: int, extra: Optional[dict] = None
    ) -> Path:
        """Write generation ``segment`` durably, then prune old ones."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(segment)
        save_checkpoint(board, path, extra=extra)
        self.prune()
        return path

    def prune(self) -> None:
        """Drop the oldest generations beyond the retention count.

        Also removes the temp files of writers killed before their
        ``os.replace`` (``ckpt-*.json.tmp.<pid>``); this process's own
        temp name is left alone.
        """
        generations = sorted(self.directory.glob("ckpt-*.json"))
        for stale in generations[: max(0, len(generations) - self.keep)]:
            stale.unlink(missing_ok=True)
        own = f".tmp.{os.getpid()}"
        for orphan in self.directory.glob("ckpt-*.json.tmp.*"):
            if not orphan.name.endswith(own):
                orphan.unlink(missing_ok=True)

    def latest(self) -> Optional[Tuple[int, Path]]:
        """(segment, path) of the newest valid generation, or None."""
        path = find_latest_checkpoint(self.directory, pattern="ckpt-*.json")
        if path is None:
            return None
        segment = checkpoint_generation(path)
        if segment is None:
            return None
        return segment, path
