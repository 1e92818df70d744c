"""Tests for repro.telemetry: sinks, sampler, spans, series, exporters."""

import io
import json

import numpy as np
import pytest

from repro.bus.transaction import BusCommand
from repro.common.errors import ConfigurationError, TraceFormatError
from repro.host.smp import HostSMP
from repro.memories.board import board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.memories.console import MemoriesConsole
from repro.memories.counters import COUNTER_MASK
from repro.target.configs import multi_config_machine, single_node_machine
from repro.telemetry import (
    CounterSampler,
    DEFAULT_EVERY_TRANSACTIONS,
    JsonlSink,
    MemorySink,
    NULL_SINK,
    NullSink,
    RunTrace,
    TelemetrySeries,
    encode_record,
    load_jsonl,
    parse_exposition,
    render_exposition,
    series_exposition,
    strip_wall,
    wrap_aware_delta,
)

CFG = CacheNodeConfig(size=64 * 1024, assoc=4, line_size=128)


def machine(n_cpus=4):
    return single_node_machine(CFG, n_cpus=n_cpus)


def groups4_machine(n_cpus=4):
    """sweep4's shape: four cache designs, each its own coherence group,
    so the compiled engine commits every window on four groups' lanes."""
    return multi_config_machine([
        CacheNodeConfig(size=32 * 1024, assoc=2, line_size=128),
        CacheNodeConfig(size=64 * 1024, assoc=4, line_size=64,
                        replacement="plru"),
        CacheNodeConfig(size=128 * 1024, assoc=8, line_size=64,
                        replacement="fifo"),
        CFG,
    ], n_cpus)


#: The machines of the windowed-replay tests, by parameter.
MACHINES = {"single": machine, "groups4": groups4_machine}


def synthetic_words(n=2000, n_cpus=4, seed=0):
    from repro.bus.trace import encode_arrays

    rng = np.random.default_rng(seed)
    cpus = rng.integers(0, n_cpus, n).astype(np.uint64)
    commands = rng.choice(
        [int(BusCommand.READ), int(BusCommand.RWITM)], size=n, p=[0.8, 0.2]
    ).astype(np.uint64)
    addresses = (rng.integers(0, 512, n) * np.uint64(128)).astype(np.uint64)
    return encode_arrays(cpus, commands, addresses)


def _emit_burst(sink, worker, count):
    """One concurrent writer's share of the shared-sink stress test."""
    for seq in range(count):
        sink.emit({"worker": worker, "seq": seq,
                   "pad": "x" * (17 * (seq % 7))})


class FakeSource:
    """A minimal SampleSource with settable counters and clock."""

    def __init__(self):
        self.now_cycle = 0.0
        self.counters = {}

    def statistics(self):
        return dict(sorted(self.counters.items()))


class TestWrapAwareDelta:
    def test_monotonic(self):
        assert wrap_aware_delta(10, 25) == 15

    def test_equal_is_zero(self):
        assert wrap_aware_delta(7, 7) == 0

    def test_across_forty_bit_wrap(self):
        # 100 events before the wrap boundary plus 50 after.
        before = COUNTER_MASK - 99
        after = 50
        assert wrap_aware_delta(before, after) == 150

    def test_wrap_to_exact_zero(self):
        assert wrap_aware_delta(COUNTER_MASK, 0) == 1

    def test_custom_width(self):
        assert wrap_aware_delta(250, 5, bits=8) == 11


class TestSinks:
    def test_null_sink_is_shared_and_silent(self):
        assert isinstance(NULL_SINK, NullSink)
        NULL_SINK.emit({"type": "sample"})
        NULL_SINK.close()

    def test_memory_sink_keeps_order(self):
        sink = MemorySink()
        sink.emit({"seq": 0})
        sink.emit({"seq": 1})
        assert len(sink) == 2
        assert [r["seq"] for r in sink.records] == [0, 1]

    def test_tee_sink_fans_out_in_order_and_closes_all(self):
        from repro.telemetry import TeeSink

        first, second = MemorySink(), MemorySink()
        closed = []

        class ClosableSink(MemorySink):
            def close(self):
                closed.append(self)

        third = ClosableSink()
        tee = TeeSink(first, second, third)
        tee.emit({"seq": 0})
        tee.emit({"seq": 1})
        assert first.records == second.records == third.records
        assert [r["seq"] for r in first.records] == [0, 1]
        tee.close()
        assert closed == [third]

    def test_strip_wall(self):
        record = {"seq": 3, "wall": {"seconds": 0.5}}
        assert strip_wall(record) == {"seq": 3}
        assert strip_wall({"seq": 3}) == {"seq": 3}

    def test_encode_record_is_canonical(self):
        a = encode_record({"b": 1, "a": 2})
        b = encode_record({"a": 2, "b": 1})
        assert a == b == '{"a":2,"b":1}'

    def test_encode_record_deterministic_drops_wall(self):
        line = encode_record({"a": 1, "wall": {"seconds": 9}}, deterministic=True)
        assert "wall" not in line

    def test_jsonl_round_trip_path(self, tmp_path):
        path = tmp_path / "series.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "sample", "seq": 0})
        sink.emit({"type": "final", "seq": 1})
        sink.close()
        records = load_jsonl(path)
        assert records == [
            {"type": "sample", "seq": 0},
            {"type": "final", "seq": 1},
        ]

    def test_jsonl_external_handle_left_open(self):
        handle = io.StringIO()
        sink = JsonlSink(handle)
        sink.emit({"seq": 0})
        sink.close()
        assert not handle.closed
        assert load_jsonl(handle.getvalue().splitlines()) == [{"seq": 0}]

    def test_load_jsonl_rejects_bad_json(self):
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            load_jsonl(['{"ok": 1}', "not json"])

    def test_load_jsonl_rejects_non_object(self):
        with pytest.raises(TraceFormatError, match="not a JSON object"):
            load_jsonl(["[1, 2, 3]"])

    def test_jsonl_sink_concurrent_writers_never_interleave(self, tmp_path):
        """Many threads sharing one sink (the service's manifest/telemetry
        pattern) must produce one whole JSON object per line — torn or
        interleaved lines would corrupt the journal they feed."""
        import threading

        path = tmp_path / "shared.jsonl"
        sink = JsonlSink(path)
        threads, per_thread = 8, 200
        pool = [
            threading.Thread(
                target=_emit_burst, args=(sink, worker, per_thread)
            )
            for worker in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        sink.close()

        records = load_jsonl(path)  # every line parses, none torn
        assert len(records) == threads * per_thread
        seen = {(r["worker"], r["seq"]) for r in records}
        assert len(seen) == threads * per_thread
        # Per-writer order is preserved even though writers interleave.
        for worker in range(threads):
            sequence = [r["seq"] for r in records if r["worker"] == worker]
            assert sequence == sorted(sequence)


class TestCounterSampler:
    def test_bad_cadence_rejected(self):
        with pytest.raises(ConfigurationError):
            CounterSampler(every_transactions=0)
        with pytest.raises(ConfigurationError):
            CounterSampler(every_cycles=-1.0)

    def test_default_cadence(self):
        sampler = CounterSampler()
        assert sampler.every_transactions == DEFAULT_EVERY_TRANSACTIONS

    def test_transaction_cadence(self):
        sink = MemorySink()
        sampler = CounterSampler(sink, every_transactions=10)
        source = FakeSource()
        for i in range(25):
            source.counters["events"] = i + 1
            sampler.maybe_sample(source)
        assert len(sink) == 2
        assert [r["transactions"] for r in sink.records] == [10, 20]

    def test_cycle_cadence(self):
        sink = MemorySink()
        sampler = CounterSampler(sink, every_cycles=100.0)
        source = FakeSource()
        for i in range(30):
            source.now_cycle += 10.0
            source.counters["events"] = i + 1
            sampler.maybe_sample(source)
        assert len(sink) == 3
        assert [r["cycle"] for r in sink.records] == [100.0, 200.0, 300.0]

    def test_deltas_skip_zero_and_non_int(self):
        sink = MemorySink()
        sampler = CounterSampler(sink, every_transactions=1)
        source = FakeSource()
        source.counters = {"moving": 5, "idle": 3, "rate": 0.5}
        sampler.maybe_sample(source)
        source.counters = {"moving": 9, "idle": 3, "rate": 0.7}
        sampler.maybe_sample(source)
        assert sink.records[0]["deltas"] == {"moving": 5, "idle": 3}
        assert sink.records[1]["deltas"] == {"moving": 4}

    def test_delta_across_forced_wrap(self):
        sink = MemorySink()
        sampler = CounterSampler(sink, every_transactions=1)
        source = FakeSource()
        source.counters = {"events": COUNTER_MASK - 9}
        sampler.maybe_sample(source)
        # 30 more events: the 40-bit readout wraps to 20.
        source.counters = {"events": 20}
        sampler.maybe_sample(source)
        deltas = [r["deltas"]["events"] for r in sink.records]
        assert deltas == [COUNTER_MASK - 9, 30]
        assert sum(deltas) == COUNTER_MASK - 9 + 30

    def test_finish_tags_final(self):
        sink = MemorySink()
        sampler = CounterSampler(sink, every_transactions=1000)
        source = FakeSource()
        source.counters = {"events": 7}
        record = sampler.finish(source)
        assert record["type"] == "final"
        assert sink.records[-1]["deltas"] == {"events": 7}

    def test_reset_forgets_cursor(self):
        sampler = CounterSampler(MemorySink(), every_transactions=1)
        source = FakeSource()
        source.counters = {"events": 5}
        sampler.maybe_sample(source)
        sampler.reset()
        sampler.maybe_sample(source)
        # After reset the same readout deltas against zero again.
        assert sampler.sink.records[-1]["deltas"] == {"events": 5}
        assert sampler.sink.records[-1]["seq"] == 0

    def test_state_round_trip(self):
        source = FakeSource()
        sampler = CounterSampler(MemorySink(), every_transactions=4)
        for i in range(6):
            source.counters["events"] = 10 * (i + 1)
            sampler.maybe_sample(source)
        state = json.loads(json.dumps(sampler.state_dict()))
        clone = CounterSampler(MemorySink(), every_transactions=4)
        clone.load_state_dict(state)
        assert clone.state_dict() == sampler.state_dict()


class TestBoardIntegration:
    def test_sampler_emits_on_cadence(self):
        sink = MemorySink()
        board = board_for_machine(machine(), seed=0)
        board.attach_telemetry(CounterSampler(sink, every_transactions=500))
        board.replay_words(synthetic_words(2000))
        samples = [r for r in sink.records if r["type"] == "sample"]
        assert [r["transactions"] for r in samples] == [500, 1000, 1500, 2000]

    def test_null_sink_replay_bit_identical(self):
        words = synthetic_words(3000)
        bare = board_for_machine(machine(), seed=0)
        bare.replay_words(words)
        instrumented = board_for_machine(machine(), seed=0)
        instrumented.attach_telemetry(
            CounterSampler(NULL_SINK, every_transactions=64),
            run_trace=RunTrace(NULL_SINK),
        )
        instrumented.replay_words(words)
        assert json.dumps(bare.statistics(), sort_keys=True) == json.dumps(
            instrumented.statistics(), sort_keys=True
        )

    def test_chunked_replay_same_series(self):
        words = synthetic_words(2048)
        mono_sink, chunk_sink = MemorySink(), MemorySink()
        mono = board_for_machine(machine(), seed=0)
        mono.attach_telemetry(CounterSampler(mono_sink, every_transactions=300))
        mono.replay_words(words)
        chunked = board_for_machine(machine(), seed=0)
        chunked.attach_telemetry(
            CounterSampler(chunk_sink, every_transactions=300)
        )
        for start in range(0, 2048, 97):
            chunked.replay_words(words[start : start + 97])
        assert [encode_record(r) for r in mono_sink.records] == [
            encode_record(r) for r in chunk_sink.records
        ]

    def test_totals_reconstruct_statistics(self):
        sink = MemorySink()
        board = board_for_machine(machine(), seed=0)
        sampler = CounterSampler(sink, every_transactions=256)
        board.attach_telemetry(sampler)
        board.replay_words(synthetic_words(1500))
        sampler.finish(board)
        totals = TelemetrySeries(sink.records).totals()
        stats = board.statistics()
        for name, value in totals.items():
            assert stats[name] == value, name

    @pytest.mark.parametrize("kind", ["single", "groups4"])
    def test_forced_wrap_flagged_and_corrected(self, kind):
        words = synthetic_words(1200)
        machine = MACHINES[kind]
        bare = board_for_machine(machine(), seed=0)
        bare.replay_words(words)
        true_reads = bare.statistics()["node0.local.read"]
        assert true_reads > 100

        board = board_for_machine(machine(), seed=0)
        preload = COUNTER_MASK - 50  # wraps partway through the replay
        board.firmware.nodes[0].counters.increment("local.read", preload)
        sink = MemorySink()
        sampler = CounterSampler(sink, every_transactions=128)
        board.attach_telemetry(sampler)
        # Baseline sample before the wrap so the overflow lands inside a
        # sampled window (a wrap that predates sampling is unrecoverable).
        sampler.sample(board)
        board.replay_words(words)
        sampler.finish(board)

        assert "node0.local.read" in board.wrapped_counters()
        stats = board.statistics()
        assert stats["board.wrapped_counters"] >= 1
        # The raw 40-bit readout aliased...
        assert stats["node0.local.read"] < preload
        # ...but the summed wrap-aware deltas reconstruct the true count.
        totals = TelemetrySeries(sink.records).totals()
        assert totals["node0.local.read"] == preload + true_reads
        assert "node0.local.read" in sink.records[-1]["wrapped"]

    def test_board_reset_resets_sampler(self):
        sink = MemorySink()
        board = board_for_machine(machine(), seed=0)
        board.attach_telemetry(CounterSampler(sink, every_transactions=100))
        board.replay_words(synthetic_words(500))
        board.reset()
        board.replay_words(synthetic_words(100))
        final = board.telemetry.finish(board)
        # No counter drop is misread as a 40-bit wrap after reset.
        assert all(delta < 10_000 for delta in final["deltas"].values())

    def test_detach_restores_fast_path(self):
        board = board_for_machine(machine(), seed=0)
        board.attach_telemetry(CounterSampler(MemorySink()), RunTrace())
        board.detach_telemetry()
        assert board.telemetry is None
        assert board.run_trace is None


class TestCheckpointRestore:
    @pytest.mark.parametrize("kind", ["single", "groups4"])
    def test_mid_series_checkpoint_restore_equivalence(self, kind):
        words = synthetic_words(2000)
        cadence = 150
        machine = MACHINES[kind]

        straight_sink = MemorySink()
        straight = board_for_machine(machine(), seed=0)
        straight.attach_telemetry(
            CounterSampler(straight_sink, every_transactions=cadence)
        )
        straight.replay_words(words)

        first_sink = MemorySink()
        first = board_for_machine(machine(), seed=0)
        first.attach_telemetry(
            CounterSampler(first_sink, every_transactions=cadence)
        )
        first.replay_words(words[:1000])
        state = json.loads(json.dumps(first.checkpoint()))
        assert "telemetry" in state

        second_sink = MemorySink()
        second = board_for_machine(machine(), seed=0)
        second.attach_telemetry(
            CounterSampler(second_sink, every_transactions=cadence)
        )
        second.restore(state)
        second.replay_words(words[1000:])

        combined = first_sink.records + second_sink.records
        assert [encode_record(r) for r in combined] == [
            encode_record(r) for r in straight_sink.records
        ]
        assert second.statistics() == straight.statistics()

    def test_checkpoint_without_sampler_has_no_cursor(self):
        board = board_for_machine(machine(), seed=0)
        board.replay_words(synthetic_words(100))
        assert "telemetry" not in board.checkpoint()


class TestRunTrace:
    def test_nested_spans_path_and_depth(self):
        sink = MemorySink()
        trace = RunTrace(sink, label="test")
        with trace.span("outer"):
            assert trace.depth == 1
            with trace.span("inner", records=5):
                assert trace.depth == 2
        assert trace.depth == 0
        # Children close (and emit) before their parents.
        inner, outer = sink.records
        assert inner["path"] == "outer/inner"
        assert inner["depth"] == 1
        assert inner["attrs"] == {"records": 5}
        assert outer["path"] == "outer"
        assert outer["depth"] == 0

    def test_wall_clock_segregated(self):
        sink = MemorySink()
        trace = RunTrace(sink)
        with trace.span("work"):
            pass
        record = sink.records[0]
        assert record["wall"]["seconds"] >= 0.0
        assert "wall" not in strip_wall(record)
        assert "seconds" not in encode_record(record, deterministic=True)

    def test_clock_binding(self):
        sink = MemorySink()
        trace = RunTrace(sink)
        ticks = iter([100.0, 250.0])
        trace.bind_clock(lambda: next(ticks))
        with trace.span("replay"):
            pass
        assert sink.records[0]["begin_cycle"] == 100.0
        assert sink.records[0]["end_cycle"] == 250.0

    def test_board_replay_emits_replay_span(self):
        sink = MemorySink()
        board = board_for_machine(machine(), seed=0)
        board.attach_telemetry(run_trace=RunTrace(sink))
        board.replay_words(synthetic_words(200))
        spans = [r for r in sink.records if r["type"] == "span"]
        assert len(spans) == 1
        assert spans[0]["name"] == "replay"
        assert spans[0]["attrs"] == {"records": 200}
        assert spans[0]["end_cycle"] > spans[0]["begin_cycle"]


class TestBusTelemetry:
    def test_bus_sampler_reports_utilization(self):
        sink = MemorySink()
        host = HostSMP()
        board = board_for_machine(machine(n_cpus=8), seed=0)
        host.plug_in(board)
        host.bus.attach_telemetry(
            CounterSampler(sink, every_transactions=200, label="bus")
        )
        rng = np.random.default_rng(0)
        n = 1000
        cpu_ids = rng.integers(0, 8, n)
        addresses = rng.integers(0, 4096, n) * 128
        is_writes = rng.random(n) < 0.2
        host.run_chunk(cpu_ids, addresses, is_writes)
        samples = [r for r in sink.records if r["label"] == "bus"]
        assert samples
        assert all(
            0.0 < r["window"]["bus.utilization"] <= 1.0
            for r in samples
            if "bus.utilization" in r["window"]
        )
        assert any("bus.tenures" in r["deltas"] for r in samples)

    def test_bus_statistics_key_sorted(self):
        host = HostSMP()
        stats = host.bus.statistics()
        assert list(stats) == sorted(stats)
        assert "bus.total_cycles" in stats


class TestFaultCampaignTelemetry:
    def test_campaign_labels_baseline_and_faulted(self):
        from repro.faults import FaultCampaign, FaultPlan

        sink = MemorySink()
        campaign = FaultCampaign(
            machine(), telemetry_sink=sink, sample_every=400
        )
        result = campaign.run(synthetic_words(1000), FaultPlan())
        labels = {r["label"] for r in sink.records}
        assert labels == {"baseline", "faulted"}
        assert result.identical  # zero-rate plan, instrumented both sides


class TestSeries:
    def build(self):
        sink = MemorySink()
        board = board_for_machine(machine(), seed=0)
        sampler = CounterSampler(sink, every_transactions=300)
        trace = RunTrace(sink, label="board")
        board.attach_telemetry(sampler, trace)
        board.replay_words(synthetic_words(1200))
        sampler.finish(board)
        return TelemetrySeries(sink.records), board

    def test_views(self):
        series, board = self.build()
        assert len(series.samples()) == 5  # 4 on cadence + final
        assert len(series.spans()) == 1
        assert series.labels() == ["board"]
        assert series.window_keys() == ["node0.miss_ratio"]
        # The final record's window is empty (replay length is a cadence
        # multiple, so no references remain), leaving 4 ratio points.
        ratios = series.window_series("node0.miss_ratio")
        assert len(ratios) == 4
        assert all(0.0 <= r <= 1.0 for r in ratios)

    def test_span_summary(self):
        series, _ = self.build()
        summary = series.span_summary()
        assert summary["replay"]["count"] == 1
        assert summary["replay"]["cycles"] > 0

    def test_dashboard_and_summary_render(self):
        series, _ = self.build()
        text = series.dashboard()
        assert "node0.miss_ratio" in text
        assert "spans (wall-clock profile):" in text
        assert "samples" in series.summary()

    def test_summary_flags_wraps(self):
        series = TelemetrySeries(
            [
                {
                    "type": "final",
                    "label": "b",
                    "deltas": {},
                    "wrapped": ["node0.local.read"],
                }
            ]
        )
        assert "WRAPPED" in series.summary()
        assert series.wrapped() == ["node0.local.read"]

    def test_from_jsonl(self, tmp_path):
        path = tmp_path / "series.jsonl"
        sink = JsonlSink(path, deterministic=True)
        board = board_for_machine(machine(), seed=0)
        board.attach_telemetry(CounterSampler(sink, every_transactions=200))
        board.replay_words(synthetic_words(600))
        board.telemetry.finish(board)
        sink.close()
        series = TelemetrySeries.from_jsonl(path)
        assert len(series.samples()) == 4
        assert series.totals()["node0.local.read"] > 0


class TestDeterminism:
    def run_once(self, tmp_path, name):
        path = tmp_path / name
        sink = JsonlSink(path, deterministic=True)
        board = board_for_machine(machine(), seed=0)
        trace = RunTrace(sink, label="run")
        board.attach_telemetry(
            CounterSampler(sink, every_transactions=250), trace
        )
        board.replay_words(synthetic_words(1000))
        board.telemetry.finish(board)
        sink.close()
        return path.read_bytes()

    def test_same_seed_byte_identical_jsonl(self, tmp_path):
        assert self.run_once(tmp_path, "a.jsonl") == self.run_once(
            tmp_path, "b.jsonl"
        )


class TestPromExport:
    def test_render_parse_round_trip(self):
        text = render_exposition(
            {"node0.local.read": 123, "bus.tenures": 7},
            label="board",
            cycle=2048.0,
            transactions=1024,
            samples=2,
            window={"node0.miss_ratio": 0.25},
            wrapped=["node0.local.read"],
        )
        parsed = parse_exposition(text)
        key = (
            "memories_counter_total",
            (("counter", "node0.local.read"), ("label", "board")),
        )
        assert parsed[key] == 123
        assert parsed[("memories_cycle", (("label", "board"),))] == 2048.0
        assert (
            parsed[
                (
                    "memories_window",
                    (("label", "board"), ("metric", "node0.miss_ratio")),
                )
            ]
            == 0.25
        )
        assert parsed[("memories_wrapped_counters", (("label", "board"),))] == 1

    def test_series_exposition_matches_totals(self):
        sink = MemorySink()
        board = board_for_machine(machine(), seed=0)
        sampler = CounterSampler(sink, every_transactions=300)
        board.attach_telemetry(sampler)
        board.replay_words(synthetic_words(900))
        sampler.finish(board)
        parsed = parse_exposition(series_exposition(sink.records))
        totals = TelemetrySeries(sink.records).totals()
        for name, value in totals.items():
            key = ("memories_counter_total", (("counter", name), ("label", "board")))
            assert parsed[key] == value, name

    def test_label_escaping_round_trips(self):
        text = render_exposition({}, label='we"ird\\label')
        parsed = parse_exposition(text)
        # No counter samples, but the page itself must parse cleanly.
        assert parsed == {}

    def test_malformed_line_rejected(self):
        with pytest.raises(TraceFormatError, match="malformed"):
            parse_exposition('memories_counter_total{label="x" 12')
        with pytest.raises(TraceFormatError, match="malformed"):
            parse_exposition("memories_counter_total{label=x} 12")
        with pytest.raises(TraceFormatError, match="malformed"):
            parse_exposition("what ever nonsense")


class TestConsoleWatch:
    def powered(self):
        # The console validates against the real hardware envelope, so it
        # needs a paper-scale (>= 2MB) node config.
        console = MemoriesConsole()
        console.power_up(
            single_node_machine(CacheNodeConfig.create("2MB"), n_cpus=4)
        )
        return console

    def test_watch_attaches_and_renders(self):
        console = self.powered()
        first = console.execute("watch")
        assert "sampler attached" in first
        board = console._require_board()
        board.replay_words(synthetic_words(600))
        frame = console.execute("watch 100")
        assert "=== watch: board" in frame
        assert "node0.miss_ratio" in frame

    def test_watch_with_external_sink_defers(self, tmp_path):
        console = self.powered()
        board = console._require_board()
        sink = JsonlSink(tmp_path / "out.jsonl")
        board.attach_telemetry(CounterSampler(sink, every_transactions=100))
        message = console.watch()
        assert "external sink" in message
        sink.close()


class TestCliTelemetry:
    def test_run_report_export(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "series.jsonl"
        status = main(
            [
                "telemetry",
                "run",
                "--records",
                "2000",
                "--every-tx",
                "500",
                "--deterministic",
                "--out",
                str(out),
            ]
        )
        assert status == 0
        assert out.exists()
        run_output = capsys.readouterr().out
        assert "final miss ratios:" in run_output

        assert main(["telemetry", "report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "samples" in report

        assert main(["telemetry", "export", str(out), "--format", "prom"]) == 0
        parsed = parse_exposition(capsys.readouterr().out)
        assert any(key[0] == "memories_counter_total" for key in parsed)

        assert (
            main(
                [
                    "telemetry",
                    "export",
                    str(out),
                    "--format",
                    "jsonl",
                    "--deterministic",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [line.strip() for line in out.read_text().splitlines()]

    def test_run_deterministic_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "telemetry",
                        "run",
                        "--records",
                        "1500",
                        "--every-tx",
                        "400",
                        "--deterministic",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            capsys.readouterr()
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_action_usage(self, capsys):
        from repro.cli import telemetry_main

        assert telemetry_main([]) == 2


class TestExperimentPipelines:
    def test_sweep_emits_labeled_series(self):
        from repro.experiments.pipeline import l3_size_sweep_nodes
        from repro.bus.trace import BusTrace

        sink = MemorySink()
        trace = BusTrace(synthetic_words(800))
        configs = [CFG, CacheNodeConfig(size=128 * 1024, assoc=4, line_size=128)]
        nodes = l3_size_sweep_nodes(
            trace, configs, n_cpus=4, telemetry_sink=sink, sample_every=200
        )
        assert len(nodes) == 2
        assert "sweep0" in {r["label"] for r in sink.records}

    def test_replay_machine_instrumented(self):
        from repro.bus.trace import BusTrace
        from repro.experiments.pipeline import replay_machine

        sink = MemorySink()
        board = replay_machine(
            BusTrace(synthetic_words(500)),
            machine(),
            telemetry_sink=sink,
            sample_every=100,
            run_trace=RunTrace(sink),
        )
        assert board.telemetry is not None
        kinds = {r["type"] for r in sink.records}
        assert kinds == {"sample", "final", "span"}


class TestDetachReattach:
    def test_detach_reattach_stays_on_cycle_grid(self):
        """Regression: a countdown armed before detach must not delay the
        first window after reattach.

        The sampler arms its countdown by converting "cycles until the next
        window boundary" into a transaction count against the board clock at
        arm time.  Detaching used to leave that stale countdown in place, so
        after uninstrumented replay advanced the clock, the first
        post-reattach sample landed a partial window late — off the
        ``every_cycles`` grid.  ``detach()`` now checkpoints the cursor and
        re-arms at 1, so the first observed transaction re-derives the
        cadence from the live clock.
        """
        sink = MemorySink()
        board = board_for_machine(machine(), seed=0)  # 10 cycles per tenure
        sampler = CounterSampler(sink, every_cycles=1000.0)
        board.attach_telemetry(sampler)
        board.replay_words(synthetic_words(130, seed=1))  # sample at 1000
        board.detach_telemetry()
        # 87 tenures pass unobserved; the clock crosses the 2000 boundary
        # (now = 2170) while nobody is watching.
        board.replay_words(synthetic_words(87, seed=2))
        board.attach_telemetry(sampler)
        board.replay_words(synthetic_words(200, seed=3))  # now = 4170
        cycles = [r["cycle"] for r in sink.records if r["type"] == "sample"]
        # The missed 2000 window surfaces as a catch-up sample at the first
        # reattached transaction (cycle 2180), after which sampling returns
        # to the monolithic 1000-cycle grid.  A stale countdown (70) would
        # instead fire the catch-up 69 transactions late, at cycle 2870.
        assert cycles == [1000.0, 2180.0, 3000.0, 4000.0]

    def test_transaction_cadence_survives_detach_window(self):
        """Transaction windows count *observed* tenures only, exactly.

        Detach folds the partially-elapsed countdown into the transaction
        totals, so a detach/reattach cycle changes nothing about a
        transaction cadence: windows still close after every 100 observed
        tenures, and unobserved replay does not advance them.
        """
        sink = MemorySink()
        board = board_for_machine(machine(), seed=0)
        sampler = CounterSampler(sink, every_transactions=100)
        board.attach_telemetry(sampler)
        board.replay_words(synthetic_words(130, seed=1))
        board.detach_telemetry()
        board.replay_words(synthetic_words(500, seed=2))  # unobserved
        board.attach_telemetry(sampler)
        board.replay_words(synthetic_words(70, seed=3))
        samples = [r for r in sink.records if r["type"] == "sample"]
        assert [r["transactions"] for r in samples] == [100, 200]
