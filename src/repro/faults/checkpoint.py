"""Board checkpoint files.

Long campaigns (the paper's multi-day monitoring runs) need to survive
console restarts.  :func:`save_checkpoint` serialises a board's complete
mutable state — directories (with ECC check bits), counter banks,
transaction buffers, SDRAM timing state, scrubber position, replacement
RNG and the board clock — as JSON; :func:`restore_checkpoint` loads it
into an identically-programmed board, after which continued emulation
produces statistics identical to an uninterrupted run.

Crash safety (the contract :mod:`repro.supervisor` builds on):

* **Atomic**: the file is written to a same-directory temp name, fsynced,
  and ``os.replace``'d into place — a crash mid-write leaves either the
  previous checkpoint or none, never a half-written one.
* **Self-validating**: version-2 files embed a CRC32 over the canonical
  encoding of their body; :func:`load_checkpoint` recomputes it, so a
  truncated or bit-rotted file raises
  :class:`~repro.common.errors.TraceFormatError` instead of half-restoring
  a board.
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
import zlib
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.common.errors import ConfigurationError, TraceFormatError
from repro.memories.board import MemoriesBoard

#: Format tag of checkpoint files.
CHECKPOINT_FORMAT = "memories-checkpoint"
#: Current checkpoint file revision (2 adds the CRC32 body digest, the
#: machine fingerprint and the optional ``extra`` sidecar; v1 still loads).
CHECKPOINT_VERSION = 2


def _canonical(body: dict) -> bytes:
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
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "crc": zlib.crc32(_canonical(body)) & 0xFFFFFFFF,
        **body,
    }
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w") as handle:
            # One ``dumps`` pass runs the C encoder; the streaming
            # ``json.dump`` falls back to the pure-Python one.  The
            # bytes are identical either way.
            handle.write(json.dumps(payload))
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


def load_checkpoint_payload(path: Union[str, Path]) -> dict:
    """Read and fully validate a checkpoint file; returns the payload dict.

    The payload carries ``state`` (the board state), and optionally
    ``extra`` (caller sidecar) and ``machine`` (programming fingerprint).

    Raises:
        TraceFormatError: on unreadable JSON, a foreign file, an
            unsupported revision, or a CRC mismatch (truncation/garbling).
    """
    path = Path(path)
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        # UnicodeDecodeError: binary garbage (bit rot) is as corrupt as
        # malformed JSON, so callers fall back a generation either way.
        raise TraceFormatError(f"{path}: not a checkpoint file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise TraceFormatError(f"{path}: not a MemorIES checkpoint file")
    version = payload.get("version")
    if version not in (1, CHECKPOINT_VERSION):
        raise TraceFormatError(
            f"{path}: unsupported checkpoint version {version!r}"
        )
    if version >= 2:
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
        """Drop the oldest generations beyond the retention count."""
        generations = sorted(self.directory.glob("ckpt-*.json"))
        for stale in generations[: max(0, len(generations) - self.keep)]:
            stale.unlink(missing_ok=True)

    def latest(self) -> Optional[Tuple[int, Path]]:
        """(segment, path) of the newest valid generation, or None."""
        path = find_latest_checkpoint(self.directory, pattern="ckpt-*.json")
        if path is None:
            return None
        segment = checkpoint_generation(path)
        if segment is None:
            return None
        return segment, path
