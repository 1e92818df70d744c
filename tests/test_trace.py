"""Tests for repro.bus.trace: the 8-byte record codec and trace files."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bus.trace import (
    ADDRESS_BITS,
    FILE_VERSION,
    FILE_VERSION_COMPRESSED,
    FILE_VERSION_COMPRESSED_CRC,
    FILE_VERSION_CRC,
    BusTrace,
    TraceReader,
    TraceWriter,
    decode_arrays,
    decode_record,
    encode_arrays,
    encode_record,
    iter_decoded,
)
from repro.bus.transaction import BusCommand, BusTransaction, SnoopResponse
from repro.common.errors import TraceFormatError


def sample_txn(cpu=3, command=BusCommand.RWITM, address=0xDEAD00, response=SnoopResponse.SHARED):
    return BusTransaction(
        cpu_id=cpu, command=command, address=address, snoop_response=response
    )


class TestScalarCodec:
    def test_roundtrip(self):
        txn = sample_txn()
        decoded = decode_record(encode_record(txn), seq=5)
        assert decoded.cpu_id == txn.cpu_id
        assert decoded.command == txn.command
        assert decoded.address == txn.address
        assert decoded.snoop_response == txn.snoop_response
        assert decoded.seq == 5

    def test_address_too_wide_rejected(self):
        with pytest.raises(TraceFormatError):
            encode_record(sample_txn(address=1 << ADDRESS_BITS))

    def test_cpu_too_wide_rejected(self):
        with pytest.raises(TraceFormatError):
            encode_record(sample_txn(cpu=256))

    @given(
        cpu=st.integers(0, 255),
        command=st.sampled_from(list(BusCommand)),
        address=st.integers(0, (1 << ADDRESS_BITS) - 1),
        response=st.sampled_from(list(SnoopResponse)),
    )
    def test_roundtrip_property(self, cpu, command, address, response):
        txn = sample_txn(cpu, command, address, response)
        decoded = decode_record(encode_record(txn))
        assert (decoded.cpu_id, decoded.command, decoded.address, decoded.snoop_response) == (
            cpu, command, address, response
        )


class TestVectorCodec:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        cpus = rng.integers(0, 8, 100).astype(np.uint64)
        commands = rng.integers(0, 4, 100).astype(np.uint64)
        addresses = rng.integers(0, 1 << 40, 100).astype(np.uint64)
        responses = rng.integers(0, 4, 100).astype(np.uint64)
        words = encode_arrays(cpus, commands, addresses, responses)
        c2, m2, a2, r2 = decode_arrays(words)
        assert (c2 == cpus).all() and (m2 == commands).all()
        assert (a2 == addresses).all() and (r2 == responses).all()

    def test_matches_scalar_codec(self):
        txn = sample_txn()
        words = encode_arrays(
            np.array([txn.cpu_id], dtype=np.uint64),
            np.array([int(txn.command)], dtype=np.uint64),
            np.array([txn.address], dtype=np.uint64),
            np.array([int(txn.snoop_response)], dtype=np.uint64),
        )
        assert int(words[0]) == encode_record(txn)

    def test_field_maxima_roundtrip(self):
        """Every field at its maximum (cpu 255, command 15, response 3,
        address 2**50 - 1), alone and next to zeros, decodes exactly."""
        top_address = (1 << ADDRESS_BITS) - 1
        cpus = np.array([255, 0, 255, 0, 128], dtype=np.uint64)
        commands = np.array([15, 0, 0, 15, 8], dtype=np.uint64)
        addresses = np.array(
            [top_address, top_address, 0, 0, 1 << (ADDRESS_BITS - 1)],
            dtype=np.uint64,
        )
        responses = np.array([3, 0, 3, 0, 2], dtype=np.uint64)
        words = encode_arrays(cpus, commands, addresses, responses)
        c2, m2, a2, r2 = decode_arrays(words)
        assert c2.tolist() == cpus.tolist()
        assert m2.tolist() == commands.tolist()
        assert a2.tolist() == addresses.tolist()
        assert r2.tolist() == responses.tolist()
        assert int(words[0]) == (1 << 64) - 1

    def test_decoded_dtypes(self):
        """Fields come back at the width of their data; the row iterator
        still yields plain Python ints."""
        words = encode_arrays(
            np.array([255], dtype=np.uint64), np.array([15], dtype=np.uint64),
            np.array([(1 << ADDRESS_BITS) - 1], dtype=np.uint64),
            np.array([3], dtype=np.uint64),
        )
        cpus, commands, addresses, responses = decode_arrays(words)
        assert cpus.dtype == np.uint8
        assert commands.dtype == np.uint8
        assert responses.dtype == np.uint8
        assert addresses.dtype == np.uint64
        (row,) = list(iter_decoded(words))
        assert row == (255, 15, (1 << ADDRESS_BITS) - 1, 3)
        assert all(type(field) is int for field in row)

    def test_wide_address_rejected(self):
        with pytest.raises(TraceFormatError):
            encode_arrays(
                np.zeros(1, dtype=np.uint64),
                np.zeros(1, dtype=np.uint64),
                np.array([1 << ADDRESS_BITS], dtype=np.uint64),
            )


class TestBusTrace:
    def test_len_and_indexing(self):
        trace = BusTrace.from_transactions([sample_txn(cpu=i) for i in range(5)])
        assert len(trace) == 5
        assert trace[2].cpu_id == 2

    def test_iteration_assigns_sequence(self):
        trace = BusTrace.from_transactions([sample_txn(), sample_txn()])
        seqs = [txn.seq for txn in trace]
        assert seqs == [1, 2]

    def test_head_is_prefix(self):
        trace = BusTrace.from_transactions([sample_txn(cpu=i % 8) for i in range(10)])
        head = trace.head(4)
        assert len(head) == 4
        assert (head.words == trace.words[:4]).all()

    def test_concat(self):
        a = BusTrace.from_transactions([sample_txn(cpu=1)])
        b = BusTrace.from_transactions([sample_txn(cpu=2)])
        combined = a.concat(b)
        assert [t.cpu_id for t in combined] == [1, 2]

    def test_empty(self):
        assert len(BusTrace()) == 0


class TestWriterReader:
    def test_capacity_enforced(self):
        writer = TraceWriter(capacity=3)
        results = [writer.append(sample_txn()) for _ in range(5)]
        assert results == [True, True, True, False, False]
        assert len(writer) == 3
        assert writer.full

    def test_append_raw_equivalent(self):
        txn = sample_txn()
        writer = TraceWriter(capacity=10)
        writer.append(txn)
        writer.append_raw(
            txn.cpu_id, int(txn.command), txn.address, int(txn.snoop_response)
        )
        words = writer.to_trace().words
        assert words[0] == words[1]

    def test_extend_words_respects_capacity(self):
        writer = TraceWriter(capacity=4)
        accepted = writer.extend_words(np.arange(10, dtype=np.uint64))
        assert accepted == 4
        assert writer.full

    def test_save_load_roundtrip(self, tmp_path):
        writer = TraceWriter(capacity=100)
        originals = [sample_txn(cpu=i % 8, address=i * 128) for i in range(37)]
        for txn in originals:
            writer.append(txn)
        path = tmp_path / "trace.mies"
        writer.save(path)
        loaded = TraceReader(path).load()
        assert len(loaded) == 37
        for original, read_back in zip(originals, loaded):
            assert read_back.address == original.address
            assert read_back.cpu_id == original.cpu_id

    def test_iter_chunks_covers_file(self, tmp_path):
        writer = TraceWriter(capacity=1000)
        writer.extend_words(np.arange(700, dtype=np.uint64))
        path = tmp_path / "trace.mies"
        writer.save(path)
        chunks = list(TraceReader(path).iter_chunks(chunk_records=256))
        assert [len(c) for c in chunks] == [256, 256, 188]
        assert (np.concatenate(chunks) == np.arange(700, dtype=np.uint64)).all()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.mies"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(TraceFormatError):
            TraceReader(path).load()

    def test_truncated_payload_rejected(self, tmp_path):
        writer = TraceWriter(capacity=10)
        writer.extend_words(np.arange(8, dtype=np.uint64))
        path = tmp_path / "trace.mies"
        writer.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TraceFormatError):
            TraceReader(path).load()

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.mies"
        path.write_bytes(b"MI")
        with pytest.raises(TraceFormatError):
            TraceReader(path).load()


class TestCompressedFormat:
    def make_file(self, tmp_path, compress):
        writer = TraceWriter(capacity=10_000)
        # Regular traffic compresses well: sequential lines, few CPUs.
        words = encode_arrays(
            np.arange(5000, dtype=np.uint64) % np.uint64(4),
            np.zeros(5000, dtype=np.uint64),
            (np.arange(5000, dtype=np.uint64) * np.uint64(128)),
        )
        writer.extend_words(words)
        path = tmp_path / ("trace.miesz" if compress else "trace.mies")
        writer.save(path, compress=compress)
        return path, words

    def test_roundtrip(self, tmp_path):
        path, words = self.make_file(tmp_path, compress=True)
        loaded = TraceReader(path).load()
        assert (loaded.words == words).all()

    def test_compression_shrinks_regular_traffic(self, tmp_path):
        raw_path, _ = self.make_file(tmp_path, compress=False)
        compressed_path, _ = self.make_file(tmp_path, compress=True)
        raw_size = raw_path.stat().st_size
        compressed_size = compressed_path.stat().st_size
        assert compressed_size < raw_size / 2

    def test_corrupt_compressed_payload_rejected(self, tmp_path):
        path, _ = self.make_file(tmp_path, compress=True)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            TraceReader(path).load()

    def test_iter_chunks_refuses_compressed(self, tmp_path):
        path, _ = self.make_file(tmp_path, compress=True)
        with pytest.raises(TraceFormatError, match="compressed"):
            list(TraceReader(path).iter_chunks())


class TestCrcFormat:
    """The v3/v4 CRC32 trailer: corruption raises instead of skewing stats."""

    def make_file(self, tmp_path, compress=False, crc=True, n=500):
        writer = TraceWriter(capacity=n)
        words = encode_arrays(
            np.arange(n, dtype=np.uint64) % np.uint64(8),
            np.zeros(n, dtype=np.uint64),
            np.arange(n, dtype=np.uint64) * np.uint64(128),
        )
        writer.extend_words(words)
        path = tmp_path / "trace.mies"
        writer.save(path, compress=compress, crc=crc)
        return path, words

    def file_version(self, path):
        import struct

        return struct.unpack("<4sHHQ", path.read_bytes()[:16])[1]

    @pytest.mark.parametrize("compress", [False, True])
    def test_default_save_emits_crc_version(self, tmp_path, compress):
        path, _ = self.make_file(tmp_path, compress=compress)
        expected = FILE_VERSION_COMPRESSED_CRC if compress else FILE_VERSION_CRC
        assert self.file_version(path) == expected

    @pytest.mark.parametrize("compress", [False, True])
    def test_crc_roundtrip(self, tmp_path, compress):
        path, words = self.make_file(tmp_path, compress=compress)
        assert (TraceReader(path).load().words == words).all()

    @pytest.mark.parametrize("compress", [False, True])
    def test_legacy_versions_still_load(self, tmp_path, compress):
        path, words = self.make_file(tmp_path, compress=compress, crc=False)
        expected = FILE_VERSION_COMPRESSED if compress else FILE_VERSION
        assert self.file_version(path) == expected
        assert (TraceReader(path).load().words == words).all()

    @pytest.mark.parametrize("compress", [False, True])
    def test_payload_bit_flip_rejected(self, tmp_path, compress):
        path, _ = self.make_file(tmp_path, compress=compress)
        data = bytearray(path.read_bytes())
        data[16 + 5] ^= 0x10  # inside the payload, past the header
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            TraceReader(path).load()

    def test_trailer_bit_flip_rejected(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="CRC mismatch"):
            TraceReader(path).load()

    def test_truncated_trailer_rejected(self, tmp_path):
        path, _ = self.make_file(tmp_path, n=1)
        data = path.read_bytes()
        path.write_bytes(data[: 16 + 2])  # header + 2 bytes of payload
        with pytest.raises(TraceFormatError):
            TraceReader(path).load()

    def test_short_record_payload_rejected_without_crc(self, tmp_path):
        path, _ = self.make_file(tmp_path, crc=False)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TraceFormatError, match="truncated"):
            TraceReader(path).load()

    def test_seeded_corruption_never_yields_different_data(self, tmp_path):
        """Any flip or truncation either raises or decodes identically.

        (A flip in the header's reserved field is invisible — the contract
        is that corruption can never silently *change* the replayed data.)
        """
        from repro.faults import corrupt_trace_bytes

        path, words = self.make_file(tmp_path)
        pristine = path.read_bytes()
        rng = np.random.default_rng(7)
        for mode in ("flip", "truncate") * 20:
            path.write_bytes(corrupt_trace_bytes(pristine, rng, mode=mode))
            try:
                loaded = TraceReader(path).load()
            except TraceFormatError:
                continue
            assert (loaded.words == words).all()

    def test_iter_chunks_verifies_rolling_crc(self, tmp_path):
        path, words = self.make_file(tmp_path)
        chunks = list(TraceReader(path).iter_chunks(chunk_records=128))
        assert (np.concatenate(chunks) == words).all()
        data = bytearray(path.read_bytes())
        data[-2] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="CRC mismatch"):
            list(TraceReader(path).iter_chunks(chunk_records=128))
