"""8-byte packed bus-trace records.

The MemorIES trace-collection firmware stores each observed tenure as one
8-byte word in on-board SDRAM (Section 2.3: "up to 1 billion 8-byte wide bus
references at a time").  This module defines that record layout, a vectorised
numpy codec, and file-backed reader/writer objects used for offline replay
into the trace-driven simulator and into re-configured emulator boards.

Record layout (64 bits)::

    bits 63..56   cpu_id           (8 bits)
    bits 55..54   snoop response   (2 bits)
    bits 53..50   command          (4 bits)
    bits 49..0    physical address (50 bits; 1 PB of physical address space)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.bus.transaction import BusCommand, BusTransaction, SnoopResponse
from repro.common.errors import TraceFormatError

ADDRESS_BITS = 50
_ADDRESS_MASK = (1 << ADDRESS_BITS) - 1
_CMD_SHIFT = 50
_RESP_SHIFT = 54
_CPU_SHIFT = 56
_CMD_MASK = 0xF
_RESP_MASK = 0x3
_CPU_MASK = 0xFF

#: Magic + version header for trace files.  Version 1 stores raw packed
#: records; version 2 stores a zlib-compressed payload — the console-side
#: disk format for the multi-gigabyte traces the board collects (addresses
#: are highly regular, so compression routinely reaches 3-6x).  Versions 3
#: and 4 are the same two layouts followed by a CRC32 trailer over the
#: stored payload bytes, so disk corruption or truncation is detected at
#: load time instead of silently skewing replayed statistics.  Version 5 is
#: the *segmented* layout used by crash-safe supervised runs
#: (:mod:`repro.supervisor`): fixed-size runs of raw records, each followed
#: by its own CRC32 trailer, so a reader can seek straight to segment *i*
#: and verify exactly the bytes it replays — one rotted segment is
#: quarantinable instead of poisoning the whole file.  Writers emit the
#: CRC formats by default; all five versions load.
FILE_MAGIC = b"MIES"
FILE_VERSION = 1
FILE_VERSION_COMPRESSED = 2
FILE_VERSION_CRC = 3
FILE_VERSION_COMPRESSED_CRC = 4
FILE_VERSION_SEGMENTED = 5
_HEADER = struct.Struct("<4sHHQ")  # magic, version, reserved, record count
_CRC_TRAILER = struct.Struct("<I")  # CRC32 of the stored payload bytes
_SEGMENT_HEADER = struct.Struct("<I")  # records per segment (v5 only)

#: On-board SDRAM capacity of the current board revision, in records.
BOARD_TRACE_CAPACITY = 1_000_000_000


def encode_record(txn: BusTransaction) -> int:
    """Pack one transaction into its 64-bit record."""
    address = txn.address & _ADDRESS_MASK
    if txn.address != address:
        raise TraceFormatError(
            f"address {txn.address:#x} exceeds the {ADDRESS_BITS}-bit record field"
        )
    if not 0 <= txn.cpu_id <= _CPU_MASK:
        raise TraceFormatError(f"cpu_id {txn.cpu_id} does not fit in 8 bits")
    return (
        (txn.cpu_id << _CPU_SHIFT)
        | (int(txn.snoop_response) << _RESP_SHIFT)
        | (int(txn.command) << _CMD_SHIFT)
        | address
    )


def decode_record(word: int, seq: int = 0) -> BusTransaction:
    """Unpack one 64-bit record into a transaction."""
    return BusTransaction(
        cpu_id=(word >> _CPU_SHIFT) & _CPU_MASK,
        command=BusCommand((word >> _CMD_SHIFT) & _CMD_MASK),
        address=word & _ADDRESS_MASK,
        seq=seq,
        snoop_response=SnoopResponse((word >> _RESP_SHIFT) & _RESP_MASK),
    )


def encode_arrays(
    cpu_ids: np.ndarray,
    commands: np.ndarray,
    addresses: np.ndarray,
    responses: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorised record packing; all inputs broadcast to a common length."""
    cpu_ids = np.asarray(cpu_ids, dtype=np.uint64)
    commands = np.asarray(commands, dtype=np.uint64)
    addresses = np.asarray(addresses, dtype=np.uint64)
    if np.any(addresses > _ADDRESS_MASK):
        raise TraceFormatError(f"an address exceeds the {ADDRESS_BITS}-bit field")
    words = (
        (cpu_ids << np.uint64(_CPU_SHIFT))
        | (commands << np.uint64(_CMD_SHIFT))
        | addresses
    )
    if responses is not None:
        words |= np.asarray(responses, dtype=np.uint64) << np.uint64(_RESP_SHIFT)
    return words


def decode_arrays(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised unpack: returns (cpu_ids, commands, addresses, responses).

    Each field comes back at the width of its data: ``cpu_ids``,
    ``commands`` and ``responses`` as ``uint8``, ``addresses`` as
    ``uint64``.  The three narrow fields share the top 14 bits, which
    are shifted down once and split as 16-bit integers, so only the
    shift and the address mask pass over 64-bit words.  Arithmetic on
    the narrow fields stays narrow (and wraps) under numpy's casting
    rules: cast to a wide enough dtype before multiplying or adding.
    """
    words = np.asarray(words, dtype=np.uint64)
    top = (words >> np.uint64(_CMD_SHIFT)).astype(np.uint16)
    cpu_ids = (top >> (_CPU_SHIFT - _CMD_SHIFT)).astype(np.uint8)
    commands = (top & _CMD_MASK).astype(np.uint8)
    responses = ((top >> (_RESP_SHIFT - _CMD_SHIFT)) & _RESP_MASK).astype(
        np.uint8
    )
    addresses = words & np.uint64(_ADDRESS_MASK)
    return cpu_ids, commands, addresses, responses


def iter_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """Row-iterate parallel numpy columns as native Python scalars.

    ``zip(a.tolist(), b.tolist(), ...)`` is the fastest way to walk numpy
    columns from Python — one bulk conversion instead of a boxed scalar per
    element — but spelling it out at every replay loop invites drift.  All
    scalar per-record loops (board dispatch, fault injection, the trace
    simulator, the host SMP) go through here or :func:`iter_decoded`.
    """
    return zip(*(np.asarray(column).tolist() for column in columns))


def iter_decoded(words: np.ndarray) -> Iterator[Tuple[int, int, int, int]]:
    """Decode packed records and iterate ``(cpu_id, command, address,
    response)`` rows as plain Python ints.

    The single shared consumer-side decode loop: any change to the record
    layout or to the decode fast path lands in every replay consumer at
    once.  Command/response fields are raw ints; callers needing enums wrap
    them (``BusCommand(command)``) or index a lookup table.
    """
    return iter_rows(*decode_arrays(words))


@dataclass
class BusTrace:
    """An in-memory bus trace: a numpy array of packed 64-bit records.

    This is the currency of the offline pipeline: the trace-collection
    firmware produces one, and the trace-driven simulator and re-configured
    emulator boards consume it.
    """

    words: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint64)
    )

    def __post_init__(self) -> None:
        self.words = np.ascontiguousarray(self.words, dtype=np.uint64)

    def __len__(self) -> int:
        return int(self.words.shape[0])

    def __iter__(self) -> Iterator[BusTransaction]:
        for seq, word in enumerate(self.words, start=1):
            yield decode_record(int(word), seq=seq)

    def __getitem__(self, index: int) -> BusTransaction:
        return decode_record(int(self.words[index]), seq=index + 1)

    def head(self, n: int) -> "BusTrace":
        """The first ``n`` records — how 'short trace' variants are derived."""
        return BusTrace(self.words[:n].copy())

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Decoded (cpu_ids, commands, addresses, responses) arrays."""
        return decode_arrays(self.words)

    @classmethod
    def from_transactions(cls, txns: Iterable[BusTransaction]) -> "BusTrace":
        """Build a trace from transaction objects (slow path; tests/tools)."""
        return cls(np.fromiter((encode_record(t) for t in txns), dtype=np.uint64))

    def concat(self, other: "BusTrace") -> "BusTrace":
        """Concatenate two traces."""
        return BusTrace(np.concatenate([self.words, other.words]))


class TraceWriter:
    """Accumulates records and writes the MemorIES trace file format.

    Mirrors the board's trace buffer: records accumulate in memory (chunked)
    up to ``capacity`` and are dumped to the console machine's disk with
    :meth:`save`.
    """

    def __init__(self, capacity: int = BOARD_TRACE_CAPACITY) -> None:
        self._chunks: List[np.ndarray] = []
        self._pending: List[int] = []
        self._count = 0
        self._capacity = capacity

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        """Maximum number of records this writer will hold."""
        return self._capacity

    @property
    def full(self) -> bool:
        """True once the on-board buffer capacity is exhausted."""
        return self._count >= self._capacity

    def append(self, txn: BusTransaction) -> bool:
        """Record one transaction; returns False if the buffer is full."""
        if self.full:
            return False
        self._pending.append(encode_record(txn))
        self._count += 1
        return True

    def append_raw(
        self, cpu_id: int, command: int, address: int, response: int
    ) -> bool:
        """Record one tenure from raw fields (the live-capture hot path)."""
        if self.full:
            return False
        self._pending.append(
            (cpu_id << _CPU_SHIFT)
            | (response << _RESP_SHIFT)
            | (command << _CMD_SHIFT)
            | (address & _ADDRESS_MASK)
        )
        self._count += 1
        return True

    def _flush_pending(self) -> None:
        if self._pending:
            self._chunks.append(np.array(self._pending, dtype=np.uint64))
            self._pending = []

    def extend_words(self, words: np.ndarray) -> int:
        """Bulk-append packed records; returns how many were accepted."""
        self._flush_pending()
        room = self._capacity - self._count
        accepted = words[:room]
        if accepted.size:
            self._chunks.append(np.ascontiguousarray(accepted, dtype=np.uint64))
            self._count += int(accepted.size)
        return int(accepted.size)

    def to_trace(self) -> BusTrace:
        """Snapshot the buffered records as an in-memory trace."""
        self._flush_pending()
        if not self._chunks:
            return BusTrace()
        if len(self._chunks) == 1:
            return BusTrace(self._chunks[0].copy())
        return BusTrace(np.concatenate(self._chunks))

    def save(
        self,
        path: Union[str, Path],
        compress: bool = False,
        crc: bool = True,
        segment_records: Optional[int] = None,
    ) -> None:
        """Write the trace file (header + packed records, little-endian).

        Args:
            compress: write the zlib-compressed payload; readers detect the
                version automatically.
            crc: append the CRC32 trailer (the current on-disk format);
                pass False to emit the legacy v1/v2 layouts.
            segment_records: write the segmented v5 layout, ``segment_records``
                records per independently-CRC'd segment (raw only; the
                supervised-run on-disk format).
        """
        import zlib

        trace = self.to_trace()
        if segment_records is not None:
            if compress or not crc:
                raise TraceFormatError(
                    "the segmented trace format is raw with per-segment CRCs; "
                    "compress/crc options do not apply"
                )
            if not 1 <= segment_records <= 0xFFFFFFFF:
                raise TraceFormatError(
                    f"segment_records {segment_records} outside [1, 2^32)"
                )
            with open(path, "wb") as f:
                f.write(
                    _HEADER.pack(FILE_MAGIC, FILE_VERSION_SEGMENTED, 0, len(trace))
                )
                f.write(_SEGMENT_HEADER.pack(segment_records))
                for start in range(0, len(trace), segment_records):
                    payload = (
                        trace.words[start : start + segment_records]
                        .astype("<u8")
                        .tobytes()
                    )
                    f.write(payload)
                    f.write(_CRC_TRAILER.pack(zlib.crc32(payload) & 0xFFFFFFFF))
            return
        payload = trace.words.astype("<u8").tobytes()
        if compress:
            payload = zlib.compress(payload, level=6)
            version = FILE_VERSION_COMPRESSED_CRC if crc else FILE_VERSION_COMPRESSED
        else:
            version = FILE_VERSION_CRC if crc else FILE_VERSION
        with open(path, "wb") as f:
            f.write(_HEADER.pack(FILE_MAGIC, version, 0, len(trace)))
            f.write(payload)
            if crc:
                f.write(_CRC_TRAILER.pack(zlib.crc32(payload) & 0xFFFFFFFF))


class TraceReader:
    """Reads trace files written by :class:`TraceWriter`."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)

    def _read_header(self, f) -> Tuple[int, int]:
        """Parse the common header; returns (version, record count)."""
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError(f"{self._path}: truncated header")
        magic, version, _reserved, count = _HEADER.unpack(header)
        if magic != FILE_MAGIC:
            raise TraceFormatError(f"{self._path}: bad magic {magic!r}")
        return version, count

    def segment_info(self) -> Tuple[int, int, int]:
        """v5 layout parameters: (segment_records, n_segments, record count).

        Raises:
            TraceFormatError: when the file is not the segmented format.
        """
        with open(self._path, "rb") as f:
            version, count = self._read_header(f)
            if version != FILE_VERSION_SEGMENTED:
                raise TraceFormatError(
                    f"{self._path}: version {version} is not the segmented "
                    "(v5) format"
                )
            seg_header = f.read(_SEGMENT_HEADER.size)
            if len(seg_header) < _SEGMENT_HEADER.size:
                raise TraceFormatError(f"{self._path}: truncated segment header")
            (segment_records,) = _SEGMENT_HEADER.unpack(seg_header)
        if segment_records < 1:
            raise TraceFormatError(f"{self._path}: zero-record segments")
        n_segments = -(-count // segment_records) if count else 0
        return segment_records, n_segments, count

    def read_segment(self, index: int) -> np.ndarray:
        """Random-access read of one v5 segment, verifying its own CRC.

        A corrupt or truncated segment raises :class:`TraceFormatError`
        identifying the segment — the unit a supervised run quarantines —
        while every other segment of the file stays readable.
        """
        import zlib

        segment_records, n_segments, count = self.segment_info()
        if not 0 <= index < n_segments:
            raise TraceFormatError(
                f"{self._path}: segment {index} outside [0, {n_segments})"
            )
        records = min(segment_records, count - index * segment_records)
        offset = (
            _HEADER.size
            + _SEGMENT_HEADER.size
            + index * (segment_records * 8 + _CRC_TRAILER.size)
        )
        with open(self._path, "rb") as f:
            f.seek(offset)
            payload = f.read(records * 8)
            trailer = f.read(_CRC_TRAILER.size)
        if len(payload) != records * 8 or len(trailer) < _CRC_TRAILER.size:
            raise TraceFormatError(
                f"{self._path}: segment {index} is truncated"
            )
        (expected,) = _CRC_TRAILER.unpack(trailer)
        if zlib.crc32(payload) & 0xFFFFFFFF != expected:
            raise TraceFormatError(
                f"{self._path}: segment {index} CRC mismatch — segment is corrupt"
            )
        return np.frombuffer(payload, dtype="<u8").astype(np.uint64)

    def load(self) -> BusTrace:
        """Load the whole file into memory as a :class:`BusTrace`.

        Detects and decompresses the zlib versions transparently, and
        verifies the CRC32 trailer of v3/v4 files before decoding — a
        corrupted or truncated trace raises
        :class:`~repro.common.errors.TraceFormatError` rather than
        replaying garbage.
        """
        import zlib

        with open(self._path, "rb") as f:
            version, count = self._read_header(f)
            if version == FILE_VERSION_SEGMENTED:
                _seg_records, n_segments, _count = self.segment_info()
                if n_segments == 0:
                    return BusTrace()
                return BusTrace(
                    np.concatenate(
                        [self.read_segment(i) for i in range(n_segments)]
                    )
                )
            if version not in (
                FILE_VERSION,
                FILE_VERSION_COMPRESSED,
                FILE_VERSION_CRC,
                FILE_VERSION_COMPRESSED_CRC,
            ):
                raise TraceFormatError(f"{self._path}: unsupported version {version}")
            payload = f.read()
        if version in (FILE_VERSION_CRC, FILE_VERSION_COMPRESSED_CRC):
            if len(payload) < _CRC_TRAILER.size:
                raise TraceFormatError(f"{self._path}: truncated CRC trailer")
            payload, trailer = payload[: -_CRC_TRAILER.size], payload[-_CRC_TRAILER.size :]
            (expected,) = _CRC_TRAILER.unpack(trailer)
            if zlib.crc32(payload) & 0xFFFFFFFF != expected:
                raise TraceFormatError(
                    f"{self._path}: CRC mismatch — trace file is corrupt"
                )
        if version in (FILE_VERSION_COMPRESSED, FILE_VERSION_COMPRESSED_CRC):
            try:
                payload = zlib.decompress(payload)
            except zlib.error as exc:
                raise TraceFormatError(
                    f"{self._path}: corrupt compressed payload: {exc}"
                ) from exc
        if len(payload) != count * 8:
            raise TraceFormatError(
                f"{self._path}: expected {count} records, file is truncated"
            )
        words = np.frombuffer(payload, dtype="<u8").astype(np.uint64)
        return BusTrace(words)

    def iter_chunks(self, chunk_records: int = 1 << 20) -> Iterator[np.ndarray]:
        """Stream the file in chunks of packed records (replay path).

        Works on the raw formats (v1, v3 and segmented v5); v3's CRC is
        accumulated chunk-by-chunk and verified after the final chunk, so a
        corrupt tail raises before the caller treats the replay as
        complete, while v5 yields one verified segment at a time (a bad
        segment raises when reached).
        """
        import zlib

        with open(self._path, "rb") as f:
            version, count = self._read_header(f)
            if version == FILE_VERSION_SEGMENTED:
                _seg_records, n_segments, _count = self.segment_info()
                for index in range(n_segments):
                    yield self.read_segment(index)
                return
            if version not in (FILE_VERSION, FILE_VERSION_CRC):
                raise TraceFormatError(
                    f"{self._path}: chunked reads need a raw (v1/v3) format; "
                    "use load() for compressed files"
                )
            running_crc = 0
            remaining = count
            while remaining > 0:
                take = min(chunk_records, remaining)
                payload = f.read(take * 8)
                if len(payload) != take * 8:
                    raise TraceFormatError(f"{self._path}: truncated payload")
                if version == FILE_VERSION_CRC:
                    running_crc = zlib.crc32(payload, running_crc)
                yield np.frombuffer(payload, dtype="<u8").astype(np.uint64)
                remaining -= take
            if version == FILE_VERSION_CRC:
                trailer = f.read(_CRC_TRAILER.size)
                if len(trailer) < _CRC_TRAILER.size:
                    raise TraceFormatError(f"{self._path}: truncated CRC trailer")
                (expected,) = _CRC_TRAILER.unpack(trailer)
                if running_crc & 0xFFFFFFFF != expected:
                    raise TraceFormatError(
                        f"{self._path}: CRC mismatch — trace file is corrupt"
                    )
