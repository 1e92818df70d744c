"""End-to-end integration tests across the whole stack."""

import pytest

from repro.bus.trace import TraceReader
from repro.experiments.pipeline import capture_records, replay_machine
from repro.host.smp import HostConfig, HostSMP
from repro.memories.board import MemoriesBoard, board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.memories.firmware.tracer import TraceCollectorFirmware
from repro.target.configs import multi_config_machine, single_node_machine
from repro.workloads.tpcc import TpccWorkload

HOST = HostConfig(n_cpus=4, l2_size=8 * 1024, l2_assoc=2)
CFG = CacheNodeConfig(size=32 * 1024, assoc=4, line_size=128)


def workload(seed=21):
    return TpccWorkload(db_bytes=1 << 21, n_cpus=4, private_bytes=4096, seed=seed)


class TestLiveVsOffline:
    def test_live_emulation_equals_trace_replay(self):
        """The paper's two usage modes must agree: watching the bus live
        and replaying a trace collected from the same run."""
        # Live: emulation board plugged in during the run.
        host = HostSMP(HOST)
        live_board = board_for_machine(single_node_machine(CFG, n_cpus=4))
        tracer_board = MemoriesBoard(TraceCollectorFirmware(), name="tracer")
        host.plug_in(live_board)
        host.plug_in(tracer_board)
        host.run(workload().chunks(15_000), max_references=15_000)

        # Offline: replay the captured trace into an identical board.
        offline_board = board_for_machine(single_node_machine(CFG, n_cpus=4))
        offline_board.replay(tracer_board.firmware.to_trace())

        live_stats = {
            k: v for k, v in live_board.statistics().items() if k.startswith("node0")
        }
        offline_stats = {
            k: v
            for k, v in offline_board.statistics().items()
            if k.startswith("node0")
        }
        assert live_stats == offline_stats

    def test_chunked_replay_equals_single_replay(self, tmp_path):
        trace = capture_records(workload(), 8_000, HOST)
        path = tmp_path / "trace.mies"
        from repro.bus.trace import TraceWriter

        writer = TraceWriter()
        writer.extend_words(trace.words)
        writer.save(path)

        whole = board_for_machine(single_node_machine(CFG, n_cpus=4))
        whole.replay(trace)
        chunked = board_for_machine(single_node_machine(CFG, n_cpus=4))
        for chunk in TraceReader(path).iter_chunks(chunk_records=1000):
            chunked.replay_words(chunk)
        assert whole.statistics() == chunked.statistics()


class TestMultiBoard:
    def test_two_boards_one_bus(self):
        """Multiple boards observing the same bus stay independent."""
        host = HostSMP(HOST)
        board_a = board_for_machine(single_node_machine(CFG, n_cpus=4))
        small = CacheNodeConfig(size=4 * 1024, assoc=4, line_size=128)
        board_b = board_for_machine(single_node_machine(small, n_cpus=4))
        host.plug_in(board_a)
        host.plug_in(board_b)
        host.run(workload().chunks(10_000), max_references=10_000)
        node_a = board_a.firmware.nodes[0]
        node_b = board_b.firmware.nodes[0]
        assert node_a.references() == node_b.references()
        assert node_a.miss_ratio() < node_b.miss_ratio()  # 8x bigger cache

    def test_multi_config_matches_separate_boards(self):
        """Figure 4's parallel mode equals running configs one at a time."""
        trace = capture_records(workload(), 10_000, HOST)
        configs = [
            CacheNodeConfig(size=4 * 1024 * (4 ** i), assoc=4, line_size=128)
            for i in range(3)
        ]
        parallel = board_for_machine(multi_config_machine(configs, n_cpus=4))
        parallel.replay(trace)
        parallel_ratios = [n.miss_ratio() for n in parallel.firmware.nodes]
        separate_ratios = []
        for config in configs:
            board = board_for_machine(single_node_machine(config, n_cpus=4))
            board.replay(trace)
            separate_ratios.append(board.firmware.nodes[0].miss_ratio())
        assert parallel_ratios == pytest.approx(separate_ratios)


class TestRunAll:
    def test_run_all_quick_single_artifact(self, capsys):
        from repro.experiments.run_all import main

        assert main(["--quick", "--only", "table1"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "total:" in output


class TestMonotonicitySanity:
    def test_bigger_cache_never_worse_on_same_trace(self):
        trace = capture_records(workload(seed=33), 12_000, HOST)
        ratios = []
        for size_kb in (4, 16, 64, 256):
            config = CacheNodeConfig(size=size_kb * 1024, assoc=4, line_size=128)
            board = replay_machine(trace, single_node_machine(config, n_cpus=4))
            ratios.append(board.firmware.nodes[0].miss_ratio())
        for smaller, bigger in zip(ratios, ratios[1:]):
            assert bigger <= smaller + 0.01
