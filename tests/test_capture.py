"""Tests for the workload -> host -> trace capture pipeline."""

import pytest

from repro.experiments.pipeline import capture_records, l3_size_sweep
from repro.host.smp import HostConfig
from repro.memories.config import CacheNodeConfig
from repro.workloads.capture import capture_bus_trace, run_live
from repro.workloads.tpcc import TpccWorkload

HOST = HostConfig(n_cpus=4, l2_size=8 * 1024, l2_assoc=2)


def workload(seed=0):
    return TpccWorkload(db_bytes=1 << 22, n_cpus=4, private_bytes=4096, seed=seed)


class TestCaptureBusTrace:
    def test_trace_contains_memory_commands_only(self):
        trace = capture_bus_trace(workload(), 5_000, HOST)
        assert len(trace) > 0
        for txn in trace:
            assert txn.command.is_memory

    def test_trace_shorter_than_references(self):
        trace = capture_bus_trace(workload(), 5_000, HOST)
        # Hits never reach the bus, castouts add some records back.
        assert len(trace) < 5_000 * 1.5

    def test_deterministic(self):
        a = capture_bus_trace(workload(seed=3), 3_000, HOST)
        b = capture_bus_trace(workload(seed=3), 3_000, HOST)
        assert (a.words == b.words).all()


class TestRunLive:
    def test_boards_observe_while_host_runs(self):
        from repro.memories.board import board_for_machine
        from repro.target.configs import single_node_machine

        board = board_for_machine(
            single_node_machine(
                CacheNodeConfig(size=16 * 1024, assoc=4, line_size=128), n_cpus=4
            )
        )
        host = run_live(workload(), 4_000, [board], HOST)
        assert host.total_references() == 4_000
        assert board.firmware.nodes[0].references() > 0


class TestCaptureRecords:
    def test_reaches_requested_record_count(self):
        trace = capture_records(workload(), 3_000, HOST)
        assert len(trace) == 3_000

    def test_stats_out_reports_conversion(self):
        stats = {}
        trace = capture_records(workload(), 3_000, HOST, stats_out=stats)
        assert stats["references"] >= len(trace) * 0.5
        assert stats["records_per_reference"] == pytest.approx(
            len(trace) / stats["references"]
        )

    def test_max_references_bound(self):
        trace = capture_records(
            workload(), 10_000_000, HOST, max_references=2_000
        )
        assert len(trace) <= 2_000 * 2


class TestL3SizeSweep:
    def test_larger_caches_never_much_worse(self):
        trace = capture_records(workload(), 10_000, HOST)
        configs = [
            CacheNodeConfig(size=size, assoc=4, line_size=128)
            for size in (8 * 1024, 64 * 1024, 512 * 1024)
        ]
        ratios = l3_size_sweep(trace, configs, n_cpus=4)
        assert len(ratios) == 3
        assert ratios[2] <= ratios[0] + 0.01

    def test_batches_beyond_four_configs(self):
        trace = capture_records(workload(), 3_000, HOST)
        configs = [
            CacheNodeConfig(size=1024 * (2 ** i), assoc=4, line_size=128)
            for i in range(5)
        ]
        ratios = l3_size_sweep(trace, configs, n_cpus=4)
        assert len(ratios) == 5
        assert all(0.0 <= r <= 1.0 for r in ratios)
