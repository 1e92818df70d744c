"""Tests for repro.service: admission, back-pressure, deadlines, drain.

The acceptance bar mirrors the service's contract: every admitted
session either completes bit-identically to an undisturbed supervised
run, or is refused/expired with a structured reason naming the exhausted
budget.  The drain test is the headline — a SIGTERM'd server's in-flight
run must resume on the next server *bit-identically*, never from zero.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.faults import ServiceChaosPlan
from repro.memories.config import CacheNodeConfig
from repro.service import (
    AdmissionController,
    AdmissionError,
    DeadlineError,
    EmulationService,
    IngestBuffer,
    IngestClosedError,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    ServiceConfig,
    ServiceState,
    SessionRequest,
    SessionState,
    chunk_from_bytes,
    render_service_manifest,
    synthetic_words,
)
from repro.supervisor import RunJournal, RunSupervisor, SupervisedRunSpec
from repro.target.configs import single_node_machine

CFG = CacheNodeConfig(size=64 * 1024, assoc=4, line_size=128)


def run_spec(seed=0, **kw):
    kw.setdefault("segment_records", 500)
    kw.setdefault("heartbeat_every", 200)
    return SupervisedRunSpec(
        machine=single_node_machine(CFG, n_cpus=4), seed=seed, **kw
    )


def request(seed=0, records=1500, **kw):
    spec = kw.pop("run_spec", None) or run_spec(seed=seed)
    trace = kw.pop("trace", None) or {
        "kind": "synthetic", "records": records, "seed": seed,
    }
    return SessionRequest(run_spec=spec, trace=trace, **kw)


def reference_digest(spec, words, run_dir):
    """What an undisturbed supervised run of the same work produces."""
    return RunSupervisor.create(spec, words, run_dir).run().digest


async def wait_done(session, timeout=120.0):
    deadline = time.perf_counter() + timeout
    while not (
        session.state.terminal or session.state == SessionState.SUSPENDED
    ):
        assert time.perf_counter() < deadline, (
            f"session {session.id} stuck in {session.state}"
        )
        await asyncio.sleep(0.02)


# ---------------------------------------------------------------------- #
# Admission control and the shedding ladder
# ---------------------------------------------------------------------- #


class TestAdmission:
    def test_ladder_rungs(self):
        assert ServiceState.ACCEPT.admits and ServiceState.ACCEPT.launches
        assert ServiceState.QUEUE_ONLY.admits
        assert not ServiceState.DRAIN.admits
        assert not ServiceState.REJECT.admits
        assert not ServiceState.REJECT.launches

    def test_queue_depth_budget_is_structured(self):
        control = AdmissionController(ServiceConfig(max_queue_depth=2))
        for seed in range(2):
            control.admit(request(seed=seed), ServiceState.ACCEPT)
        with pytest.raises(AdmissionError) as info:
            control.admit(request(seed=9), ServiceState.ACCEPT)
        error = info.value
        assert error.reason == "queue-full"
        assert error.budget == "max_queue_depth"
        assert error.limit == 2
        assert error.value >= 2
        detail = error.to_dict()
        assert detail["type"] == "admission"
        assert detail["reason"] == "queue-full"
        assert detail["budget"] == "max_queue_depth"

    def test_tenant_queue_quota(self):
        control = AdmissionController(
            ServiceConfig(max_queue_depth=16, max_queued_per_tenant=1)
        )
        control.admit(request(tenant="acme"), ServiceState.ACCEPT)
        with pytest.raises(AdmissionError) as info:
            control.admit(request(tenant="acme"), ServiceState.ACCEPT)
        assert info.value.reason == "tenant-queue-quota"
        assert info.value.budget == "max_queued_per_tenant"
        # Another tenant's budget is untouched.
        control.admit(request(tenant="globex"), ServiceState.ACCEPT)

    def test_drain_and_reject_refuse_everything(self):
        control = AdmissionController(ServiceConfig())
        with pytest.raises(AdmissionError, match="drain"):
            control.admit(request(), ServiceState.DRAIN)
        with pytest.raises(AdmissionError) as info:
            control.admit(request(), ServiceState.REJECT)
        assert info.value.reason == "shedding"

    def test_queue_only_hysteresis(self):
        config = ServiceConfig(max_queue_depth=8, queue_only_watermark=0.5)
        control = AdmissionController(config)
        assert control.suggested_state(ServiceState.ACCEPT) \
            == ServiceState.ACCEPT
        for seed in range(4):
            control.admit(request(seed=seed, tenant=f"t{seed}"),
                          ServiceState.ACCEPT)
        assert control.suggested_state(ServiceState.ACCEPT) \
            == ServiceState.QUEUE_ONLY
        # Receding below half the watermark steps back down to ACCEPT.
        for _ in range(3):
            control.forget_queued("t0")
        assert control.suggested_state(ServiceState.QUEUE_ONLY) \
            == ServiceState.ACCEPT
        # The ladder never *auto*-walks into DRAIN or REJECT.
        assert control.suggested_state(ServiceState.DRAIN) \
            == ServiceState.DRAIN

    def test_per_tenant_workers_wait_not_reject(self):
        control = AdmissionController(
            ServiceConfig(max_workers=4, max_workers_per_tenant=1)
        )
        control.admit(request(tenant="acme"), ServiceState.ACCEPT)
        control.admit(request(tenant="acme", seed=1), ServiceState.ACCEPT)
        assert control.may_launch("acme")
        control.launch("acme")
        # Over-quota tenants wait for a slot; they are never rejected.
        assert not control.may_launch("acme")
        control.release("acme")
        assert control.may_launch("acme")


# ---------------------------------------------------------------------- #
# The bounded ingest buffer (back-pressure primitive)
# ---------------------------------------------------------------------- #


class TestIngestBuffer:
    def test_bound_holds_under_slow_consumer(self):
        async def scenario():
            buffer = IngestBuffer(max_records=128)
            words = np.arange(1280, dtype=np.uint64)
            received = []

            async def consume():
                while True:
                    chunk = await buffer.get()
                    if chunk is None:
                        return
                    received.append(chunk)
                    await asyncio.sleep(0.002)  # deliberately slow

            consumer = asyncio.ensure_future(consume())
            for start in range(0, 1280, 32):
                await buffer.put(words[start:start + 32])
            await buffer.end()
            await consumer
            return buffer, np.concatenate(received)

        buffer, received = asyncio.run(scenario())
        assert buffer.high_water <= 128
        assert buffer.producer_waits > 0
        assert buffer.records_in == 1280
        assert np.array_equal(received, np.arange(1280, dtype=np.uint64))

    def test_oversized_chunk_admitted_alone(self):
        async def scenario():
            buffer = IngestBuffer(max_records=16)
            await buffer.put(np.arange(64, dtype=np.uint64))
            await buffer.end()
            chunk = await buffer.get()
            assert await buffer.get() is None
            return buffer, chunk

        buffer, chunk = asyncio.run(scenario())
        assert chunk.shape[0] == 64
        assert buffer.high_water == 64  # one oversized chunk, alone

    def test_closed_buffer_raises_structured(self):
        async def scenario():
            buffer = IngestBuffer(max_records=16)
            await buffer.put(np.arange(4, dtype=np.uint64))
            await buffer.close()
            with pytest.raises(IngestClosedError):
                await buffer.put(np.arange(4, dtype=np.uint64))
            await buffer.get()  # the buffered chunk drains first
            with pytest.raises(IngestClosedError):
                await buffer.get()

        asyncio.run(scenario())

    def test_chunk_from_bytes_validates_word_alignment(self):
        words = np.arange(8, dtype=np.uint64)
        decoded = chunk_from_bytes(words.astype("<u8").tobytes())
        assert np.array_equal(decoded, words)
        from repro.common.errors import TraceFormatError

        with pytest.raises(TraceFormatError, match="8-byte"):
            chunk_from_bytes(b"\x00" * 13)


# ---------------------------------------------------------------------- #
# The service: scheduling, stress, quotas, deadlines
# ---------------------------------------------------------------------- #


class TestServiceSessions:
    def test_concurrent_mixed_priority_stress(self, tmp_path):
        """>= 8 concurrent sessions, mixed priorities and tenants, all
        complete; equal submissions produce equal digests."""

        async def scenario():
            service = EmulationService(
                tmp_path / "svc", ServiceConfig(max_workers=4)
            )
            await service.start()
            priorities = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW,
                          PRIORITY_NORMAL)
            sessions = [
                service.submit(request(
                    seed=index // 2,  # pairs share a seed → equal digests
                    priority=priorities[index % 4],
                    tenant=("acme", "globex")[index % 2],
                    label=f"stress-{index}",
                ))
                for index in range(8)
            ]
            await asyncio.gather(*(wait_done(s) for s in sessions))
            status = service.status()
            await service.stop()
            return sessions, status

        sessions, status = asyncio.run(scenario())
        assert all(s.state == SessionState.COMPLETED for s in sessions)
        assert status["metrics"]["admitted"] == 8
        assert status["metrics"]["completed"] == 8
        digests = [s.result.digest for s in sessions]
        assert all(d for d in digests)
        for index in range(0, 8, 2):
            assert digests[index] == digests[index + 1]
        # Different seeds genuinely differ.
        assert digests[0] != digests[2]
        # The manifest closed every session out.
        journal = RunJournal(tmp_path / "svc" / "service.jsonl")
        assert len(journal.entries("session_complete")) == 8
        journal.close()

    def test_priority_orders_queued_launches(self, tmp_path):
        async def scenario():
            service = EmulationService(
                tmp_path / "svc", ServiceConfig(max_workers=1)
            )
            await service.start()
            blocker = service.submit(request(seed=0, label="blocker"))
            # Wait until the single worker slot is taken, so the next two
            # submissions genuinely queue.
            while blocker.state == SessionState.QUEUED:
                await asyncio.sleep(0.01)
            low = service.submit(
                request(seed=1, priority=PRIORITY_LOW, label="low")
            )
            high = service.submit(
                request(seed=2, priority=PRIORITY_HIGH, label="high")
            )
            for session in (blocker, low, high):
                await wait_done(session)
            await service.stop()
            return blocker, low, high

        blocker, low, high = asyncio.run(scenario())
        assert all(s.state == SessionState.COMPLETED
                   for s in (blocker, low, high))
        journal = RunJournal(tmp_path / "svc" / "service.jsonl")
        started = [r["session"] for r in journal.entries("session_started")]
        journal.close()
        assert started == [blocker.id, high.id, low.id]

    def test_queue_full_rejection_counts_metric(self, tmp_path):
        async def scenario():
            service = EmulationService(
                tmp_path / "svc", ServiceConfig(max_queue_depth=2)
            )
            await service.start()
            # Stream sessions with no trace yet stay QUEUED indefinitely.
            for _ in range(2):
                service.submit(request(trace={"kind": "stream"}))
            with pytest.raises(AdmissionError) as info:
                service.submit(request(trace={"kind": "stream"}))
            metrics = dict(service.metrics)
            await service.stop()
            return info.value, metrics

        error, metrics = asyncio.run(scenario())
        assert error.reason == "queue-full"
        assert error.budget == "max_queue_depth"
        assert metrics["rejected.queue-full"] == 1
        assert metrics["admitted"] == 2

    def test_stream_ingest_backpressure_and_bit_identity(self, tmp_path):
        """A stream 8x the buffer bound stages under back-pressure and
        replays bit-identically to a direct supervised run."""
        spec = run_spec(seed=7)
        trace = {"kind": "synthetic", "records": 2000, "seed": 7}
        words = synthetic_words(request(trace=dict(trace)).trace)

        async def scenario():
            service = EmulationService(
                tmp_path / "svc", ServiceConfig(ingest_buffer_records=256)
            )
            await service.start()
            session = service.submit(SessionRequest(
                run_spec=spec, trace={"kind": "stream"}, label="stream",
            ))
            for start in range(0, 2000, 64):
                await service.ingest_chunk(session.id, words[start:start + 64])
            staged = await service.ingest_end(session.id)
            await wait_done(session)
            snapshot = service.ingest_snapshot()
            await service.stop()
            return session, staged, snapshot

        session, staged, snapshot = asyncio.run(scenario())
        assert staged == 2000
        assert session.state == SessionState.COMPLETED
        assert snapshot["high_water"] <= 256  # the bound held
        assert snapshot["producer_waits"] >= 1  # and was exercised
        assert session.result.digest == reference_digest(
            spec, words, tmp_path / "ref"
        )

    def test_wall_deadline_expires_queued_session(self, tmp_path):
        async def scenario():
            service = EmulationService(tmp_path / "svc", ServiceConfig())
            await service.start()
            # A stream session that never receives its trace can only
            # expire; the watchdog owes it a structured reason.
            session = service.submit(request(
                trace={"kind": "stream"}, wall_deadline=0.2,
            ))
            await wait_done(session, timeout=10.0)
            metrics = dict(service.metrics)
            await service.stop()
            return session, metrics

        session, metrics = asyncio.run(scenario())
        assert session.state == SessionState.EXPIRED
        assert session.reason == "wall-deadline"
        assert metrics["expired"] == 1
        with pytest.raises(DeadlineError, match="wall-deadline"):
            session.raise_for_state()

    def test_cycle_deadline_kills_running_session(self, tmp_path):
        async def scenario():
            service = EmulationService(tmp_path / "svc", ServiceConfig())
            await service.start()
            session = service.submit(request(
                seed=3, records=20_000, cycle_deadline=1.0,
            ))
            await wait_done(session)
            metrics = dict(service.metrics)
            await service.stop()
            return session, metrics

        session, metrics = asyncio.run(scenario())
        assert session.state == SessionState.EXPIRED
        assert session.reason == "cycle-deadline"
        assert metrics["expired"] == 1
        assert session.cycle > 1.0  # the heartbeat saw the overrun

    def test_worker_kill_chaos_stays_bit_identical(self, tmp_path):
        spec = run_spec(seed=11)
        words = synthetic_words(request(seed=11, records=2000).trace)

        async def scenario():
            service = EmulationService(
                tmp_path / "svc", ServiceConfig(),
                chaos=ServiceChaosPlan(kill_worker={"victim": 700}),
            )
            await service.start()
            session = service.submit(request(
                seed=11, records=2000, label="victim", run_spec=spec,
            ))
            await wait_done(session)
            metrics = dict(service.metrics)
            await service.stop()
            return session, metrics

        session, metrics = asyncio.run(scenario())
        assert session.state == SessionState.COMPLETED
        assert session.result.restarts == 1
        assert metrics["worker_restarts"] == 1
        assert session.result.digest == reference_digest(
            spec, words, tmp_path / "ref"
        )

    def test_stall_ingest_chaos_holds_bound_and_expires(self, tmp_path):
        """A stalled stager (chaos) fills the bounded buffer; the bound
        holds, back-pressure parks the producer, and the wall deadline
        resolves the stalemate with a structured expiry."""
        words = np.arange(640, dtype=np.uint64)

        async def scenario():
            service = EmulationService(
                tmp_path / "svc",
                ServiceConfig(ingest_buffer_records=64),
                chaos=ServiceChaosPlan(stall_ingest={"stalled": 2}),
            )
            await service.start()
            session = service.submit(request(
                trace={"kind": "stream"}, wall_deadline=0.5,
                label="stalled",
            ))

            async def produce():
                try:
                    for start in range(0, 640, 32):
                        await service.ingest_chunk(
                            session.id, words[start:start + 32]
                        )
                except IngestClosedError:
                    return "torn"
                return "fed-all"

            outcome = await produce()
            await wait_done(session, timeout=10.0)
            snapshot = service.ingest_snapshot()
            await service.stop()
            return session, outcome, snapshot

        session, outcome, snapshot = asyncio.run(scenario())
        assert outcome == "torn"  # deadline close released the producer
        assert session.state == SessionState.EXPIRED
        assert session.reason == "wall-deadline"
        assert snapshot["high_water"] <= 64  # the bound held under stall
        assert snapshot["producer_waits"] >= 1
        run_dir = tmp_path / "svc" / "runs" / session.id
        assert not (run_dir / "ingest.words").exists()
        assert not (run_dir / "ingest.words.part").exists()

    def test_stop_closes_telemetry_handle(self, tmp_path):
        async def scenario():
            service = EmulationService(tmp_path / "svc", ServiceConfig())
            await service.start()
            handle = service._telemetry_handle
            assert handle is not None and not handle.closed
            await service.stop()
            return service, handle

        service, handle = asyncio.run(scenario())
        assert handle.closed
        assert service._telemetry_handle is None

    def test_service_retry_resumes_after_budget_exhaustion(self, tmp_path):
        """When the *supervisor* gives up, the service-level retry
        re-opens the journal and finishes the same run bit-identically."""
        spec = run_spec(seed=5, max_restarts=0, backoff_base=0.01)
        words = synthetic_words(request(seed=5, records=2000).trace)

        async def scenario():
            service = EmulationService(
                tmp_path / "svc",
                ServiceConfig(retry_backoff_base=0.01),
                chaos=ServiceChaosPlan(kill_worker={"fragile": 700}),
            )
            await service.start()
            session = service.submit(request(
                seed=5, records=2000, label="fragile", run_spec=spec,
                max_attempts=2,
            ))
            await wait_done(session)
            metrics = dict(service.metrics)
            await service.stop()
            return session, metrics

        session, metrics = asyncio.run(scenario())
        assert session.state == SessionState.COMPLETED
        assert session.attempts == 2
        assert metrics["retries"] == 1
        assert session.result.digest == reference_digest(
            spec, words, tmp_path / "ref"
        )

    def test_finished_sessions_release_their_supervisor(
        self, tmp_path, monkeypatch
    ):
        """A finished session keeps its result, counter totals and
        histograms, not its supervisor; its pages render unchanged."""
        from repro.service.service import Session

        rendered = {}
        retire = Session.retire

        def recording_retire(session):
            def render():
                return (service.session_metrics_page(session.id),
                        session.view().to_dict())

            before = render()
            retire(session)
            rendered[session.id] = (before, render())

        monkeypatch.setattr(Session, "retire", recording_retire)

        async def scenario():
            await service.start()
            sessions = [
                service.submit(request(seed=index, label=f"done-{index}"))
                for index in range(3)
            ]
            await asyncio.gather(*(wait_done(s) for s in sessions))
            await service.stop()
            return sessions

        service = EmulationService(
            tmp_path / "svc", ServiceConfig(max_workers=2)
        )
        sessions = asyncio.run(scenario())
        for session in sessions:
            assert session.state == SessionState.COMPLETED
            assert session._supervisor is None
            assert session.counter_samples == {}
            assert session.result is not None and session.result.digest
            before, after = rendered[session.id]
            assert after == before
            page = before[0]
            assert "checkpoint_write" in page
            assert f'memories_samples_total{{label="{session.id}"}} 0' not in page


    def test_retired_pages_render_byte_identically(
        self, tmp_path, monkeypatch
    ):
        """Retirement drops the result's statistics (the result page reads
        them back from the run journal) and keeps counter totals as an
        int array against names shared across sessions; the metrics and
        result pages render the same bytes before and after."""
        from repro.service.service import Session

        rendered = {}
        retire = Session.retire

        def recording_retire(session):
            def render():
                result = service.session_result(session.id)
                return (
                    service.session_metrics_page(session.id).encode("utf-8"),
                    json.dumps(result, sort_keys=True).encode("utf-8"),
                )

            before = render()
            retire(session)
            rendered[session.id] = (before, render())

        monkeypatch.setattr(Session, "retire", recording_retire)

        async def scenario():
            await service.start()
            sessions = [
                service.submit(request(seed=index, label=f"page-{index}"))
                for index in range(2)
            ]
            await asyncio.gather(*(wait_done(s) for s in sessions))
            await service.stop()
            return sessions

        service = EmulationService(
            tmp_path / "svc", ServiceConfig(max_workers=2)
        )
        sessions = asyncio.run(scenario())
        for session in sessions:
            assert session.state == SessionState.COMPLETED
            (metrics_before, result_before), after = rendered[session.id]
            assert after == (metrics_before, result_before)
            assert json.loads(result_before)["result"]["statistics"]
            assert session.result.statistics == {}
            assert session.result.digest
        first, second = sessions
        assert first._retired_names is second._retired_names


# ---------------------------------------------------------------------- #
# The HTTP/WebSocket front end, end to end over real sockets
# ---------------------------------------------------------------------- #


class TestHttpApi:
    def test_submit_tail_result_metrics_roundtrip(self, tmp_path):
        from repro.service import ServiceClient, ServiceServer
        from repro.telemetry.prom import parse_exposition

        async def scenario():
            server = ServiceServer(
                EmulationService(tmp_path / "svc", ServiceConfig())
            )
            await server.start()
            client = ServiceClient(server.host, server.port)

            health = await client.healthz()
            ready, _ = await client.readyz()
            session_id = await client.submit({
                "run_spec": run_spec(seed=4).to_dict(),
                "trace": {"kind": "synthetic", "records": 1500, "seed": 4},
                "label": "wire",
            })
            view = await client.wait(session_id, timeout=60)
            result = await client.result(session_id)
            events = [e async for e in client.tail(session_id, limit=3)]
            metrics = parse_exposition(await client.metrics())
            await server.stop(drain=True)
            return health, ready, view, result, events, metrics

        health, ready, view, result, events, metrics = asyncio.run(scenario())
        assert health["state"] == "accept"
        assert ready
        assert view["state"] == "completed"
        assert result["result"]["digest"]
        assert events and all("event" in e for e in events)
        assert metrics[("memories_service_sessions",
                        (("state", "completed"),))] == 1.0

    def test_structured_refusal_crosses_the_wire(self, tmp_path):
        from repro.service import ServiceClient, ServiceServer

        async def scenario():
            server = ServiceServer(EmulationService(
                tmp_path / "svc", ServiceConfig(max_queue_depth=1)
            ))
            await server.start()
            client = ServiceClient(server.host, server.port)
            stream = {
                "run_spec": run_spec().to_dict(),
                "trace": {"kind": "stream"},
            }
            await client.submit(stream)
            with pytest.raises(AdmissionError) as info:
                await client.submit(stream)
            # Malformed requests map to validation, not a refusal.
            with pytest.raises(ValidationError):
                await client.submit({
                    "run_spec": run_spec().to_dict(),
                    "trace": {"kind": "synthetic", "records": 0},
                })
            await server.stop(drain=True)
            return info.value

        error = asyncio.run(scenario())
        assert error.reason == "queue-full"
        assert error.budget == "max_queue_depth"
        assert error.limit == 1

    def test_ws_ingest_streams_and_completes(self, tmp_path):
        from repro.service import ServiceClient, ServiceServer

        spec = run_spec(seed=6)
        words = synthetic_words(request(seed=6, records=2000).trace)

        async def scenario():
            server = ServiceServer(EmulationService(
                tmp_path / "svc", ServiceConfig(ingest_buffer_records=512)
            ))
            await server.start()
            client = ServiceClient(server.host, server.port)
            session_id = await client.submit({
                "run_spec": spec.to_dict(),
                "trace": {"kind": "stream"},
                "label": "ws-stream",
            })
            chunks = [words[i:i + 250] for i in range(0, 2000, 250)]
            staged = await client.ingest_ws(session_id, chunks)
            view = await client.wait(session_id, timeout=60)
            result = await client.result(session_id)
            await server.stop(drain=True)
            return staged, view, result

        staged, view, result = asyncio.run(scenario())
        assert staged == 2000
        assert view["state"] == "completed"
        assert result["result"]["digest"] == reference_digest(
            spec, words, tmp_path / "ref"
        )


    def test_torn_ws_ingest_expires_session_live(self, tmp_path):
        """A WS ingest stream severed without a close frame (TCP tear)
        must expire the session in place — structured reason, quota slot
        released — not leave it QUEUED forever."""
        from repro.service import ServiceClient, ServiceServer

        async def scenario():
            plan = ServiceChaosPlan(drop_ingest={"torn": 2})
            server = ServiceServer(EmulationService(
                tmp_path / "svc", ServiceConfig(), chaos=plan,
            ))
            await server.start()
            client = ServiceClient(server.host, server.port)
            session_id = await client.submit({
                "run_spec": run_spec().to_dict(),
                "trace": {"kind": "stream"},
                "label": "torn",
            })
            words = np.arange(96, dtype=np.uint64)
            chunks = [words[i:i + 32] for i in range(0, 96, 32)]
            staged = await client.ingest_ws(
                session_id, chunks,
                drop_after=plan.ingest_drop_after("torn"),
            )
            view = await client.wait(session_id, timeout=10)
            queued = server.service.admission.queued_total
            await server.stop(drain=True)
            return staged, view, queued

        staged, view, queued = asyncio.run(scenario())
        assert staged is None
        assert view["state"] == "expired"
        assert view["reason"] == "orphaned-ingest"
        assert queued == 0  # the tenant's queue-quota slot was released

    def test_torn_http_ingest_expires_session_live(self, tmp_path):
        """A client that dies mid-POST (fewer body bytes than promised)
        must not strand the session: the torn body aborts ingest and the
        session expires with a structured reason."""
        from repro.service import ServiceClient, ServiceServer

        async def scenario():
            server = ServiceServer(
                EmulationService(tmp_path / "svc", ServiceConfig())
            )
            await server.start()
            client = ServiceClient(server.host, server.port)
            session_id = await client.submit({
                "run_spec": run_spec().to_dict(),
                "trace": {"kind": "stream"},
                "label": "torn-http",
            })
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            head = (
                f"POST /sessions/{session_id}/ingest HTTP/1.1\r\n"
                f"Host: {server.host}:{server.port}\r\n"
                "Content-Type: application/octet-stream\r\n"
                "Content-Length: 1600\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("latin-1")
            writer.write(head + b"\x00" * 800)  # half the promised body
            await writer.drain()
            writer.close()
            view = await client.wait(session_id, timeout=10)
            queued = server.service.admission.queued_total
            await server.stop(drain=True)
            return view, queued

        view, queued = asyncio.run(scenario())
        assert view["state"] == "expired"
        assert view["reason"] == "orphaned-ingest"
        assert queued == 0


# ---------------------------------------------------------------------- #
# Drain and re-adoption (the SIGTERM contract)
# ---------------------------------------------------------------------- #


class TestDrainReAdopt:
    def test_drain_suspends_and_readopt_finishes_bit_identical(
        self, tmp_path
    ):
        spec = run_spec(seed=21, segment_records=2000, heartbeat_every=500)
        trace = {"kind": "synthetic", "records": 200_000, "seed": 21}
        words = synthetic_words(request(trace=dict(trace)).trace)

        async def first_server():
            service = EmulationService(tmp_path / "svc", ServiceConfig())
            await service.start()
            session = service.submit(SessionRequest(
                run_spec=spec, trace=dict(trace), label="longhaul",
            ))
            while session.state == SessionState.QUEUED:
                await asyncio.sleep(0.01)
            # Wait for the first heartbeat, not a fixed wall-clock sleep:
            # the replay engines keep getting faster, and a fixed sleep
            # would let a quick run complete before the drain lands.
            while (
                session.state == SessionState.RUNNING and session.cycle == 0
            ):
                await asyncio.sleep(0.005)
            await service.stop(drain=True)
            return session

        async def second_server():
            service = EmulationService(tmp_path / "svc", ServiceConfig())
            await service.start()
            session = service.get_session("s000000")
            assert session.adopted
            await wait_done(session)
            metrics = dict(service.metrics)
            await service.stop()
            return session, metrics

        drained = asyncio.run(first_server())
        assert drained.state == SessionState.SUSPENDED
        assert drained.cycle > 0  # it really was mid-run

        resumed, metrics = asyncio.run(second_server())
        assert metrics["adopted"] == 1
        assert resumed.state == SessionState.COMPLETED
        assert resumed.result.digest == reference_digest(
            spec, words, tmp_path / "ref"
        )

        rendered = render_service_manifest(tmp_path / "svc")
        assert "s000000" in rendered
        assert "completed" in rendered

    def test_orphaned_stream_session_expires_on_adopt(self, tmp_path):
        async def first_server():
            service = EmulationService(tmp_path / "svc", ServiceConfig())
            await service.start()
            session = service.submit(request(trace={"kind": "stream"}))
            # Feed a partial stream, then die without the end marker.
            await service.ingest_chunk(
                session.id, np.arange(64, dtype=np.uint64)
            )
            await service.stop(drain=True)
            return session.id

        async def second_server():
            service = EmulationService(tmp_path / "svc", ServiceConfig())
            await service.start()
            session = service.get_session(session_id)
            state, reason = session.state, session.reason
            await service.stop()
            return state, reason

        session_id = asyncio.run(first_server())
        # The torn partial stage must not survive as a complete trace.
        run_dir = tmp_path / "svc" / "runs" / session_id
        assert not (run_dir / "ingest.words").exists()

        state, reason = asyncio.run(second_server())
        assert state == SessionState.EXPIRED
        assert reason == "orphaned-ingest"
