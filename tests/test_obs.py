"""Tests for repro.obs: trace propagation, histograms, flight recorder.

The acceptance bar mirrors ISSUE.md: a chaos-killed, retried,
multi-worker session must leave a *single connected span tree* (every
``parent_id`` resolves, one shared ``trace_id`` across the service, the
supervisor, and every worker incarnation), and ``obs timeline`` must be
byte-identical across invocations on the same run directory in every
format.
"""

import asyncio
import json
import time

import pytest

from repro.common.errors import ValidationError
from repro.faults import ServiceChaosPlan
from repro.memories.config import CacheNodeConfig
from repro.obs import (
    FORMATS,
    build_span_tree,
    build_timeline,
    render_timeline,
    session_records,
    validate_session_trace,
)
from repro.service import (
    EmulationService,
    ServiceConfig,
    SessionRequest,
    SessionState,
)
from repro.service.metrics import service_exposition
from repro.supervisor import ChaosPlan, RunSupervisor, SupervisedRunSpec
from repro.target.configs import single_node_machine
from repro.telemetry.histogram import (
    DEFAULT_WALL_BOUNDS,
    Histogram,
    split_histogram_states,
)
from repro.telemetry.prom import histogram_exposition, parse_exposition

CFG = CacheNodeConfig(size=64 * 1024, assoc=4, line_size=128)


def run_spec(seed=0, **kw):
    kw.setdefault("segment_records", 500)
    kw.setdefault("backoff_base", 0.01)
    return SupervisedRunSpec(
        machine=single_node_machine(CFG, n_cpus=4), seed=seed, **kw
    )


def request(seed=0, records=2000, **kw):
    spec = kw.pop("run_spec", None) or run_spec(seed=seed)
    trace = kw.pop("trace", None) or {
        "kind": "synthetic", "records": records, "seed": seed,
    }
    return SessionRequest(run_spec=spec, trace=trace, **kw)


async def wait_done(session, timeout=120.0):
    deadline = time.perf_counter() + timeout
    while not (
        session.state.terminal or session.state == SessionState.SUSPENDED
    ):
        assert time.perf_counter() < deadline, (
            f"session {session.id} stuck in {session.state}"
        )
        await asyncio.sleep(0.02)


def span(span_id, parent=None, trace="t0", name="x", **attrs):
    record = {
        "type": "span", "trace_id": trace, "span_id": span_id,
        "parent_id": parent, "name": name,
    }
    if attrs:
        record["attrs"] = attrs
    return record


# ---------------------------------------------------------------------- #
# Histogram edge cases
# ---------------------------------------------------------------------- #


class TestHistogramEdges:
    def test_zero_observations_render_zero_buckets(self):
        hist = Histogram("queue_wait")
        assert hist.count == 0 and hist.sum == 0.0
        assert hist.cumulative() == [0] * (len(DEFAULT_WALL_BOUNDS) + 1)
        page = histogram_exposition([hist], label="svc")
        parsed = parse_exposition(page)
        key = ("memories_latency_seconds_count",
               (("label", "svc"), ("stage", "queue_wait")))
        assert parsed[key] == 0.0

    def test_boundary_value_lands_in_le_bucket(self):
        # Prometheus le semantics: an observation exactly on a bound
        # counts inside that bound's bucket, not the next one.
        hist = Histogram("stage", bounds=[1.0, 2.0, 4.0])
        hist.observe(2.0)
        assert hist.counts == [0, 1, 0, 0]

    def test_overflow_goes_to_inf_bucket(self):
        hist = Histogram("stage", bounds=[1.0, 2.0])
        hist.observe(1e9)
        assert hist.counts == [0, 0, 1]
        assert hist.cumulative()[-1] == hist.count == 1

    def test_single_bucket_saturation(self):
        hist = Histogram("stage", bounds=[0.5])
        for _ in range(100):
            hist.observe(0.1)
        assert hist.counts == [100, 0]
        assert hist.cumulative() == [100, 100]

    def test_nan_and_bad_bounds_rejected(self):
        hist = Histogram("stage", bounds=[1.0])
        with pytest.raises(ValidationError, match="NaN"):
            hist.observe(float("nan"))
        with pytest.raises(ValidationError, match="strictly increasing"):
            Histogram("stage", bounds=[1.0, 1.0])
        with pytest.raises(ValidationError, match="finite"):
            Histogram("stage", bounds=[-1.0])
        with pytest.raises(ValidationError, match="at least one bound"):
            Histogram("stage", bounds=[])
        with pytest.raises(ValidationError, match="domain"):
            Histogram("stage", domain="sidereal")

    def test_state_roundtrip_and_mismatch(self):
        hist = Histogram("replay", domain="cycle", bounds=[10.0, 100.0])
        hist.observe(5.0)
        hist.observe(500.0)
        clone = Histogram.from_state(hist.state_dict())
        assert clone == hist
        other = Histogram("replay", domain="wall", bounds=[10.0, 100.0])
        with pytest.raises(ValidationError, match="does not match"):
            other.load_state_dict(hist.state_dict())
        relayout = Histogram("replay", domain="cycle", bounds=[10.0])
        with pytest.raises(ValidationError, match="bucket"):
            relayout.load_state_dict(hist.state_dict())

    def test_merge_equals_monolithic_byte_identical(self):
        # Chunked observation + merge must render the exact bytes the
        # monolithic histogram renders — the kill/resume invariant.
        values = [0.0005, 0.004, 0.004, 0.2, 7.5, 120.0]
        whole = Histogram("checkpoint_write")
        for value in values:
            whole.observe(value)
        first, second = Histogram("checkpoint_write"), Histogram(
            "checkpoint_write"
        )
        for value in values[:3]:
            first.observe(value)
        for value in values[3:]:
            second.observe(value)
        first.merge(second)
        assert histogram_exposition([first]) == histogram_exposition([whole])
        mismatched = Histogram("segment_replay")
        with pytest.raises(ValidationError, match="cannot merge"):
            first.merge(mismatched)

    def test_domain_segregation_in_split_states(self):
        cycle = Histogram("segment_replay", domain="cycle")
        wall = Histogram("checkpoint_write", domain="wall")
        cycles, walls = split_histogram_states([cycle, wall])
        assert list(cycles) == ["segment_replay"]
        assert list(walls) == ["checkpoint_write"]


# ---------------------------------------------------------------------- #
# Service exposition: HELP headers and the empty scrape
# ---------------------------------------------------------------------- #


class TestServiceExposition:
    STATUS = {
        "ready": True, "queued": 2, "running": 1,
        "sessions": {"completed": 3, "running": 1},
        "metrics": {"admitted": 4, "rejected": 1},
        "tenants": {"acme": {"cycles": 1000, "records": 2000,
                             "ingest_bytes": 0, "worker_seconds": 1.5}},
    }

    def test_every_type_header_has_help(self):
        page = service_exposition(self.STATUS, {"high_water": 7,
                                                "producer_waits": 2})
        lines = page.splitlines()
        for index, line in enumerate(lines):
            if line.startswith("# TYPE "):
                metric = line.split()[2]
                assert lines[index - 1].startswith(f"# HELP {metric} "), (
                    f"TYPE without HELP for {metric}"
                )

    def test_no_dangling_headers_on_idle_scrape(self):
        idle = {"ready": True, "queued": 0, "running": 0,
                "sessions": {}, "metrics": {}, "tenants": {}}
        page = service_exposition(idle, {})
        assert "memories_service_sessions" not in page
        assert "memories_service_events_total" not in page
        assert "memories_service_tenant_usage_total" not in page
        # Every header that did render is followed by a sample.
        lines = page.splitlines()
        assert lines and not lines[-1].startswith("#")
        for index, line in enumerate(lines):
            if line.startswith("# TYPE "):
                assert not lines[index + 1].startswith("#")

    def test_tenant_usage_labelled_counters_parse(self):
        page = service_exposition(self.STATUS, {})
        parsed = parse_exposition(page)
        key = ("memories_service_tenant_usage_total",
               (("resource", "cycles"), ("tenant", "acme")))
        assert parsed[key] == 1000.0
        key = ("memories_service_tenant_usage_total",
               (("resource", "worker_seconds"), ("tenant", "acme")))
        assert parsed[key] == 1.5

    def test_histograms_appended_with_service_label(self):
        hist = Histogram("admission_wait")
        hist.observe(0.003)
        page = service_exposition(self.STATUS, {}, histograms=[hist])
        parsed = parse_exposition(page)
        key = ("memories_latency_seconds_count",
               (("label", "service"), ("stage", "admission_wait")))
        assert parsed[key] == 1.0


# ---------------------------------------------------------------------- #
# Span-tree reconstruction (unit)
# ---------------------------------------------------------------------- #


class TestSpanTree:
    def test_build_and_walk(self):
        tree = build_span_tree([
            span("a:0"), span("a:1", parent="a:0"),
            span("a:2", parent="a:1"), {"type": "event", "name": "noise"},
        ])
        assert tree.roots == ["a:0"]
        assert tree.connected
        assert [d for d, _ in tree.walk("a:0")] == [0, 1, 2]

    def test_duplicate_span_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_span_tree([span("a:0"), span("a:0")])

    def test_unresolved_parent_detected(self):
        tree = build_span_tree([span("a:0"), span("a:1", parent="ghost:9")])
        assert tree.unresolved == ["a:1"]
        assert not tree.connected
        with pytest.raises(ValidationError, match="unresolved"):
            validate_session_trace([span("a:0"), span("a:1", parent="ghost:9")])

    def test_cycle_without_root_is_disconnected(self):
        records = [span("a:0", parent="a:1"), span("a:1", parent="a:0"),
                   span("r:0")]
        tree = build_span_tree(records)
        assert not tree.unresolved and not tree.connected
        with pytest.raises(ValidationError, match="not connected"):
            validate_session_trace(records)

    def test_single_trace_id_enforced(self):
        with pytest.raises(ValidationError, match="one trace_id"):
            validate_session_trace([span("a:0", trace="t0"),
                                    span("b:0", trace="t1")])
        with pytest.raises(ValidationError, match="no trace-tagged"):
            validate_session_trace([{"type": "event"}])
        with pytest.raises(ValidationError, match="mismatch"):
            validate_session_trace([span("a:0")], trace_id="elsewhere")


# ---------------------------------------------------------------------- #
# End-to-end forensics: chaos runs and the flight recorder
# ---------------------------------------------------------------------- #


class TestChaosRunForensics:
    def _chaos_run(self, tmp_path):
        from tests.test_supervisor import synthetic_words as words_for

        spec = run_spec(seed=7)
        supervisor = RunSupervisor.create(
            spec, words_for(2000), tmp_path / "run"
        )
        result = supervisor.run(chaos=ChaosPlan(kill_after_records=900))
        return tmp_path / "run", result

    def test_killed_run_leaves_connected_span_tree(self, tmp_path):
        run_dir, result = self._chaos_run(tmp_path)
        assert result.restarts == 1
        tree = validate_session_trace(session_records(run_dir))
        summary = tree.summary()
        assert summary["connected"]
        assert summary["unresolved"] == []
        assert len(summary["trace_ids"]) == 1
        names = {r.get("name") for r in tree.nodes.values()}
        # Supervisor, worker and backoff spans all share the trace.
        assert {"run", "segment", "replay", "checkpoint",
                "restart_backoff"} <= names

    def test_timeline_byte_identical_every_format(self, tmp_path):
        run_dir, _ = self._chaos_run(tmp_path)
        for fmt in FORMATS:
            first = render_timeline(build_timeline(run_dir), fmt)
            second = render_timeline(build_timeline(run_dir), fmt)
            assert first == second, f"{fmt} render is unstable"

    def test_timeline_orders_replay_before_commit(self, tmp_path):
        run_dir, _ = self._chaos_run(tmp_path)
        timeline = build_timeline(run_dir)
        assert timeline["version"] == 1
        assert timeline["service_root"] is None
        kinds = [e["kind"] for e in timeline["entries"]
                 if e["phase"] == "run"]
        # The commit protocol's order survives reconstruction: each
        # segment's replay span precedes its checkpoint span precedes
        # the journal commit line.
        first_commit = kinds.index("segment_commit")
        assert "replay" in kinds[:first_commit]
        assert "checkpoint" in kinds[:first_commit]
        assert kinds[0] == "run_start" and "run_complete" in kinds
        summary = timeline["summary"]
        assert summary["restarts"] == 1
        assert summary["phases"]["backoff"]["seconds"] > 0.0
        shares = [p["share"] for p in summary["phases"].values()]
        assert all(s >= 0.0 for s in shares)

    def test_trace_event_format_is_valid_chrome_json(self, tmp_path):
        run_dir, _ = self._chaos_run(tmp_path)
        payload = json.loads(
            render_timeline(build_timeline(run_dir), "trace-event")
        )
        events = payload["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "i")
            assert event["ts"] >= 0
        durations = [e for e in events if e["ph"] == "X"]
        assert durations and all(e["dur"] >= 0 for e in durations)

    def test_unknown_format_and_missing_journal_raise(self, tmp_path):
        run_dir, _ = self._chaos_run(tmp_path)
        with pytest.raises(ValidationError, match="unknown timeline format"):
            render_timeline(build_timeline(run_dir), "yaml")
        with pytest.raises(ValidationError, match="journal"):
            build_timeline(tmp_path / "nowhere")


class TestServiceSessionForensics:
    def _killed_session(self, tmp_path):
        async def scenario():
            service = EmulationService(
                tmp_path / "svc", ServiceConfig(),
                chaos=ServiceChaosPlan(kill_worker={"victim": 900}),
            )
            await service.start()
            session = service.submit(request(
                seed=11, records=2000, label="victim", tenant="acme",
            ))
            await wait_done(session)
            await service.stop()
            return session

        session = asyncio.run(scenario())
        assert session.state == SessionState.COMPLETED
        assert session.result.restarts == 1
        return session, tmp_path / "svc" / "runs" / session.id

    def test_session_trace_spans_service_to_workers(self, tmp_path):
        session, run_dir = self._killed_session(tmp_path)
        tree = validate_session_trace(
            session_records(run_dir), trace_id=session.trace_id
        )
        summary = tree.summary()
        assert summary["connected"]
        # One root: the *service* session span; the supervisor and every
        # worker incarnation hang beneath it.
        assert summary["roots"] == [session.root_span_id]
        prefixes = {sid.split(":", 1)[0].split("-")[0]
                    for sid in tree.nodes}
        assert {"service", "supervisor", "worker"} <= prefixes

    def test_session_timeline_has_all_three_phases(self, tmp_path):
        session, run_dir = self._killed_session(tmp_path)
        timeline = build_timeline(run_dir)
        assert timeline["service_root"] == str(tmp_path / "svc")
        phases = [e["phase"] for e in timeline["entries"]]
        assert {"admission", "run", "terminal"} <= set(phases)
        # Phases appear in lifecycle order.
        assert phases == sorted(
            phases, key=("admission", "run", "terminal").index
        )
        kinds = {e["kind"] for e in timeline["entries"]}
        assert {"session_queued", "started", "completed",
                "tenant_usage"} <= kinds
        for fmt in FORMATS:
            assert render_timeline(timeline, fmt) == render_timeline(
                build_timeline(run_dir), fmt
            )

    def test_cli_obs_timeline_and_spans(self, tmp_path, capsys):
        from repro.cli import EXIT_OK, obs_main

        _, run_dir = self._killed_session(tmp_path)
        assert obs_main(["timeline", str(run_dir)]) == EXIT_OK
        text = capsys.readouterr().out
        assert text.startswith("flight recorder:")
        assert "critical path:" in text

        out = tmp_path / "timeline.json"
        assert obs_main([
            "timeline", str(run_dir), "--format", "json",
            "--out", str(out),
        ]) == EXIT_OK
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["version"] == 1

        assert obs_main(["spans", str(run_dir)]) == EXIT_OK
        spans_text = capsys.readouterr().out
        assert "span tree connected" in spans_text


# ---------------------------------------------------------------------- #
# The per-session metrics endpoint
# ---------------------------------------------------------------------- #


class TestSessionMetricsEndpoint:
    def test_live_page_evicted_404_unknown_404(self, tmp_path):
        from repro.service import ServiceClient, ServiceServer

        async def first_server():
            server = ServiceServer(
                EmulationService(tmp_path / "svc", ServiceConfig())
            )
            await server.start()
            client = ServiceClient(server.host, server.port)
            session_id = await client.submit({
                "run_spec": run_spec(seed=4).to_dict(),
                "trace": {"kind": "synthetic", "records": 1500, "seed": 4},
                "label": "metered",
            })
            await client.wait(session_id, timeout=60)
            status, payload = await client.request(
                "GET", f"/sessions/{session_id}/metrics"
            )
            missing_status, missing = await client.request(
                "GET", "/sessions/no-such/metrics"
            )
            await server.stop(drain=True)
            return session_id, status, payload, missing_status, missing

        async def second_server(session_id):
            server = ServiceServer(
                EmulationService(tmp_path / "svc", ServiceConfig())
            )
            await server.start()
            client = ServiceClient(server.host, server.port)
            status, payload = await client.request(
                "GET", f"/sessions/{session_id}/metrics"
            )
            await server.stop(drain=True)
            return status, payload

        session_id, status, payload, missing_status, missing = asyncio.run(
            first_server()
        )
        assert status == 200
        parsed = parse_exposition(payload.decode("utf-8"))
        assert any(
            key[0] == "memories_latency_seconds_count" for key in parsed
        )
        assert missing_status == 404
        detail = json.loads(missing.decode("utf-8"))
        assert detail["error"]["reason"] == "unknown-session"

        # A restarted server adopts the finished session into history
        # only — the endpoint must say "evicted", not "unknown".
        evicted_status, evicted = asyncio.run(second_server(session_id))
        assert evicted_status == 404
        detail = json.loads(evicted.decode("utf-8"))
        assert detail["error"]["reason"] == "evicted"
        assert detail["error"]["session"] == session_id
