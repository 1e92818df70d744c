"""The multi-session emulation service core (transport-independent).

:class:`EmulationService` turns the single-run machinery of six PRs —
the crash-safe supervisor, journaled checkpoints, telemetry — into a
multi-tenant facility: many sessions in flight at once, each one a
supervised run in its own directory under the service root::

    root/
      service.jsonl            — the service manifest (a RunJournal WAL)
      service-telemetry.jsonl  — shared event log (locked JsonlSink)
      runs/<session-id>/       — one supervised run directory per session

The robustness machinery is the architecture, not an afterthought:

* **Admission control** — every submission passes the bounded budgets of
  :class:`~repro.service.admission.AdmissionController`; refusals are
  structured (:class:`~repro.service.spec.AdmissionError`).
* **Deadlines** — a watchdog expires sessions that exceed their wall
  budget (queued or running); cycle budgets are enforced from worker
  heartbeats through the supervisor's ``heartbeat_hook``.
* **Retries** — a failed supervisor attempt is retried by *re-opening*
  the run journal (:meth:`RunSupervisor.open` + ``run()``), which is a
  bit-identical continuation, never a replay from zero; backoff jitter
  is seeded (:func:`~repro.supervisor.backoff_delay`, rule DT207).
* **Back-pressure** — streamed traces pass through each session's
  bounded :class:`~repro.service.ingest.IngestBuffer`.
* **Graceful shedding** — the service walks the ACCEPT → QUEUE_ONLY →
  DRAIN → REJECT ladder; a drain suspends in-flight runs at their next
  safe point and the manifest lets the next incarnation re-adopt and
  finish them, bit-identically.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import heapq
import threading
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Tuple, Union

import numpy as np

from repro.common.errors import ReproError, ValidationError
from repro.faults.service_chaos import ServiceChaosPlan
from repro.service.admission import (
    AdmissionController,
    ServiceConfig,
    ServiceState,
)
from repro.service.ingest import (
    IngestBuffer,
    IngestClosedError,
    load_staged,
    stage_stream,
)
from repro.service.spec import (
    DeadlineError,
    SessionRequest,
    SessionState,
    SessionView,
    synthetic_words,
)
from repro.supervisor import (
    ChaosPlan,
    RunJournal,
    RunSupervisor,
    SupervisedRunResult,
    SupervisorAbort,
    SupervisorError,
    backoff_delay,
)
from repro.telemetry.histogram import Histogram
from repro.telemetry.prom import histogram_exposition, render_exposition
from repro.telemetry.sink import JsonlSink
from repro.telemetry.spans import SPAN_VERSION, derive_trace_id

#: Scheduler/watchdog tick while idle, seconds.
_TICK = 0.05

#: Per-subscriber telemetry queue bound; the oldest record is shed when a
#: slow watcher falls behind (watching must never stall the watched).
_SUBSCRIBER_DEPTH = 256

#: Ingest staging file name inside a session's run directory.
INGEST_NAME = "ingest.words"


def _reap_stager_error(task: "asyncio.Task") -> None:
    """Consume an orphaned stager's exception (see ``_collect_stager``)."""
    if not task.cancelled():
        task.exception()


class Session:
    """One admitted session: request, lifecycle state, and run directory.

    ``counter_names`` is the service's table of counter-name tuples:
    :meth:`retire` keeps one tuple per distinct counter set there, shared
    by every session on the same programming.
    """

    def __init__(
        self,
        session_id: str,
        request: SessionRequest,
        run_dir: Path,
        counter_names: Dict[Tuple[str, ...], Tuple[str, ...]],
        adopted: bool = False,
    ) -> None:
        self.id = session_id
        self.request = request
        self.run_dir = run_dir
        self.label = request.label or session_id
        self.adopted = adopted
        self.state = SessionState.QUEUED
        self.reason = ""
        self.error = ""
        self.attempts = 0
        self.restarts = 0
        #: The run's outcome.  :meth:`retire` keeps only its digest,
        #: flags and restart count; :meth:`result_dict` serves the full
        #: record from the run journal.
        self.result: Optional[SupervisedRunResult] = None
        self.admitted_at = time.perf_counter()
        self.cycle = 0.0
        self.transactions = 0
        self.trace_staged = request.trace["kind"] != "stream"
        #: Deterministic trace identity: the same derivation the
        #: supervisor stamps into its journal (machine fingerprint, seed,
        #: run-dir name), so every process of this session shares it.
        self.trace_id = derive_trace_id(
            request.run_spec.machine.fingerprint(),
            request.run_spec.seed,
            session_id,
        )
        #: When the session became runnable (trace staged); None while a
        #: streamed trace is still arriving.
        self.runnable_at: Optional[float] = (
            self.admitted_at if self.trace_staged else None
        )
        self.started_at: Optional[float] = None
        #: Latest wrap-corrected counter deltas per sampler seq.  Keyed
        #: by seq so a worker restarted from a checkpoint (whose sampler
        #: cursor rewinds) replaces the redone stretch instead of
        #: double-counting it.
        self.counter_samples: Dict[int, dict] = {}
        #: Totals (names shared across sessions, values as an int array)
        #: and sample count folded out of ``counter_samples`` by
        #: :meth:`retire`, plus the latency histograms it kept.
        self._counter_names = counter_names
        self._retired_names: Tuple[str, ...] = ()
        self._retired_values = array("q")
        self._retired_samples = 0
        self._retired_histograms: List[Histogram] = []
        self.window: dict = {}
        self.ingest_bytes = 0
        self.ingest: Optional[IngestBuffer] = None
        self.stager: Optional[asyncio.Task] = None
        self.subscribers: List[asyncio.Queue] = []
        self._abort: Optional[threading.Event] = threading.Event()
        self._abort_reason = ""
        self._finalized = False
        self._retired = False
        self._supervisor: Optional[RunSupervisor] = None

    @property
    def root_span_id(self) -> str:
        """Span ID of this session's root span (parent of the run span)."""
        return f"service-{self.id}:0"

    def counter_totals(self) -> Dict[str, int]:
        """Accumulated board counters from the heartbeat delta stream."""
        totals = dict(zip(self._retired_names, self._retired_values))
        for deltas in list(self.counter_samples.values()):
            for name, delta in deltas.items():
                totals[name] = totals.get(name, 0) + int(delta)
        return totals

    @property
    def sample_count(self) -> int:
        """Heartbeat samples the counter totals rest on."""
        return self._retired_samples + len(self.counter_samples)

    def latency_histograms(self) -> List[Histogram]:
        """The supervisor's checkpoint-carried latency histograms."""
        supervisor = self._supervisor
        if supervisor is None:
            return self._retired_histograms
        return list(supervisor.histograms.values())

    def retire(self) -> None:
        """Keep only what the read APIs serve once the session is over.

        The metrics page needs the counter totals, the sample count and
        the latency histograms; the HTTP view needs the digest and
        flags of ``result``.  The supervisor (journal records, a copy of
        the result), the per-sample delta map and the result's
        statistics are dropped — :meth:`result_dict` reads the latter
        back from the run journal — so a long-lived service does not
        grow by one run's bookkeeping per finished session.
        """
        self._retired_histograms = self.latency_histograms()
        totals = self.counter_totals()
        names = tuple(totals)
        self._retired_names = self._counter_names.setdefault(names, names)
        self._retired_values = array("q", totals.values())
        self._retired_samples = self.sample_count
        self.counter_samples = {}
        self._supervisor = None
        # A retired session never runs again, so nothing waits on it.
        self._abort = None
        if self.result is not None:
            self.result = dataclasses.replace(
                self.result, statistics={}, miss_ratios={}, fault_counts={}
            )
        self._retired = True

    def result_dict(self) -> Optional[dict]:
        """The terminal result as ``/sessions/{id}/result`` serves it.

        Once retired, the session reads it back from its run journal's
        ``run_complete`` record: the same ``to_dict`` the supervisor made
        durable, so the page renders byte-identically.
        """
        if self.result is None:
            return None
        if not self._retired:
            return self.result.to_dict()
        journal = RunJournal(self.run_dir / RunSupervisor.JOURNAL_NAME)
        return journal.last("run_complete")["result"]

    def note_heartbeat_deltas(self, seq: int, deltas: dict) -> None:
        """Fold one heartbeat's deltas in, rewinding redone samples."""
        if not deltas:
            return
        for stale in [s for s in self.counter_samples if s >= seq]:
            self.counter_samples.pop(stale, None)
        self.counter_samples[seq] = dict(deltas)

    @property
    def wall_deadline(self) -> Optional[float]:
        return self.request.wall_deadline

    def view(self) -> SessionView:
        digest = self.result.digest if self.result is not None else ""
        degraded = bool(self.result and self.result.degraded)
        return SessionView(
            session_id=self.id,
            tenant=self.request.tenant,
            label=self.label,
            priority=self.request.priority,
            state=self.state.value,
            reason=self.reason,
            error=self.error,
            attempts=self.attempts,
            restarts=self.restarts,
            cycle=self.cycle,
            transactions=self.transactions,
            digest=digest,
            degraded=degraded,
            adopted=self.adopted,
        )

    def raise_for_state(self) -> None:
        """Surface a terminal refusal as its structured exception."""
        if self.state == SessionState.EXPIRED:
            raise DeadlineError(self.reason or "wall-deadline",
                                detail=f"session {self.id}")
        if self.state == SessionState.FAILED:
            raise ValidationError(
                f"session {self.id} failed: {self.error}"
            )

    # -- called from the supervisor thread --------------------------------

    def request_abort(self, reason: str) -> None:
        self._abort_reason = reason
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.abort_reason = reason
        if self._abort is not None:
            self._abort.set()


class EmulationService:
    """Admission, scheduling, execution and shedding for many sessions.

    Drive it directly from asyncio (tests) or behind the HTTP/WebSocket
    front end (:mod:`repro.service.http`).  All public methods are event-
    loop-side; the blocking supervisor work runs in worker threads (the
    replay itself is in child processes either way).
    """

    MANIFEST_NAME = "service.jsonl"
    TELEMETRY_NAME = "service-telemetry.jsonl"

    def __init__(
        self,
        root: Union[str, Path],
        config: Optional[ServiceConfig] = None,
        chaos: Optional[ServiceChaosPlan] = None,
    ) -> None:
        self.root = Path(root)
        self.config = config or ServiceConfig()
        self.chaos = chaos or ServiceChaosPlan()
        self.state = ServiceState.ACCEPT
        self.admission = AdmissionController(self.config)
        self.sessions: Dict[str, Session] = {}
        self.history: Dict[str, dict] = {}
        #: Counter-name tuples shared by retired sessions (see Session).
        self._counter_names: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self.metrics: Dict[str, int] = {
            "admitted": 0,
            "adopted": 0,
            "completed": 0,
            "failed": 0,
            "expired": 0,
            "suspended": 0,
            "retries": 0,
            "worker_restarts": 0,
            "rejected.queue-full": 0,
            "rejected.tenant-queue-quota": 0,
            "rejected.draining": 0,
            "rejected.shedding": 0,
        }
        self.ingest_stats: Dict[str, int] = {
            "high_water": 0,
            "producer_waits": 0,
        }
        #: Service-plane latency histograms (wall domain): where control
        #: time goes before and between supervisor attempts.
        self.histograms: Dict[str, Histogram] = {
            name: Histogram(name, domain="wall")
            for name in (
                "admission_wait", "queue_wait", "ingest_stall",
                "retry_backoff",
            )
        }
        #: Per-tenant resource accounting (see :meth:`_account_session`).
        self.tenants: Dict[str, Dict[str, float]] = {}
        self._queue: List = []  # heap of (priority, seq, session_id)
        self._seq = 0
        self._manifest: Optional[RunJournal] = None
        self._sink: Optional[JsonlSink] = None
        self._telemetry_handle: Optional[TextIO] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake = asyncio.Event()
        self._tasks: List[asyncio.Task] = []
        self._runners: Dict[str, asyncio.Task] = {}
        #: Every live stager task, reaped in stop() — a stager detached
        #: from its session mid-collect (watchdog cancelled while
        #: awaiting it) must still finish its .part cleanup before the
        #: loop closes underneath it.
        self._stagers: set = set()
        self._stopping = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Open the manifest, re-adopt orphaned runs, start the loops."""
        self._loop = asyncio.get_running_loop()
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "runs").mkdir(exist_ok=True)
        self._manifest = RunJournal(self.root / self.MANIFEST_NAME)
        # Opened in append mode (the shared log survives restarts), so
        # the sink cannot own it via a path; the service closes it in
        # stop() — JsonlSink.close() only flushes handles it borrows.
        self._telemetry_handle = open(self.root / self.TELEMETRY_NAME, "a")
        self._sink = JsonlSink(self._telemetry_handle)
        self._adopt_from_manifest()
        self._manifest.append("service_start", adopted=self.metrics["adopted"])
        self._tasks = [
            asyncio.create_task(self._scheduler()),
            asyncio.create_task(self._watchdog()),
        ]

    def _adopt_from_manifest(self) -> None:
        """Re-queue every journaled session without a terminal record.

        The manifest is the service's WAL: ``session_queued`` carries the
        full request, terminal records close a session out.  Anything in
        between — queued at the old server's death, suspended by its
        drain, or mid-run when it was killed — is re-admitted here and
        then resumed through the per-run journal, so the continuation is
        bit-identical to an uninterrupted run.
        """
        assert self._manifest is not None
        terminal: Dict[str, dict] = {}
        for kind in ("session_complete", "session_failed", "session_expired"):
            for record in self._manifest.entries(kind):
                terminal[str(record["session"])] = record
        self.history = terminal
        for record in self._manifest.entries("tenant_usage"):
            usage = self._tenant_usage(str(record.get("tenant", "default")))
            for key in usage:
                usage[key] += float(record.get(key, 0.0))
        for record in self._manifest.entries("session_queued"):
            session_id = str(record["session"])
            self._seq = max(self._seq, int(record["seq_no"]) + 1)
            if session_id in terminal:
                continue
            request = SessionRequest.from_dict(record["request"])
            run_dir = self.root / "runs" / session_id
            session = Session(
                session_id, request, run_dir, self._counter_names,
                adopted=True,
            )
            staged = (
                request.trace["kind"] != "stream"
                or (run_dir / RunSupervisor.JOURNAL_NAME).exists()
                or (run_dir / INGEST_NAME).exists()
            )
            self.sessions[session_id] = session
            if not staged:
                # A streamed trace that never finished arriving cannot be
                # reconstructed; close the session out explicitly.
                session.state = SessionState.EXPIRED
                session.reason = "orphaned-ingest"
                self._manifest.append(
                    "session_expired", session=session_id,
                    reason="orphaned-ingest",
                )
                self.metrics["expired"] += 1
                self._finalize_session(session)
                continue
            session.trace_staged = True
            session.runnable_at = session.admitted_at
            self.admission.queued_total += 1
            self.admission.queued_by_tenant[request.tenant] = (
                self.admission.queued_by_tenant.get(request.tenant, 0) + 1
            )
            self._push(session, int(record["seq_no"]))
            self.metrics["adopted"] += 1

    async def stop(self, drain: bool = True) -> None:
        """Walk to DRAIN, suspend in-flight runs, close the manifest.

        A drained session's worker checkpoints at its last committed
        segment (the supervisor aborts at the next poll slice and the
        commit protocol guarantees durability); the manifest keeps its
        ``session_queued`` record open, so the next ``start()`` on the
        same root re-adopts and finishes it.
        """
        if self._manifest is None:
            return
        self._stopping = True
        self.state = ServiceState.DRAIN
        self._manifest.append("drain")
        self._emit_service_event("drain")
        for session in list(self.sessions.values()):
            if session.state == SessionState.RUNNING:
                session.request_abort("drain")
            if session.ingest is not None:
                await session.ingest.close()
                await self._collect_stager(session)
        if self._stagers:
            # Stagers detached from their sessions (a watchdog expiry
            # interrupted mid-collect) still owe their torn-stage
            # cleanup; every buffer is closed by now, so they all
            # terminate promptly.
            await asyncio.gather(
                *list(self._stagers), return_exceptions=True
            )
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._runners and drain:
            done, pending = await asyncio.wait(
                list(self._runners.values()),
                timeout=self.config.drain_grace,
            )
            for task in pending:
                task.cancel()
        self._manifest.append("drain_complete")
        self._manifest.close()
        self._manifest = None
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        if self._telemetry_handle is not None:
            self._telemetry_handle.close()
            self._telemetry_handle = None

    # ------------------------------------------------------------------ #
    # Submission / admission
    # ------------------------------------------------------------------ #

    def submit(self, request: SessionRequest) -> Session:
        """Admit one session or raise a structured refusal.

        Raises:
            AdmissionError: a budget is exhausted or the service is
                draining/shedding — ``reason`` and the budget name ride
                on the exception (HTTP 429/503, CLI exit code 5).
        """
        if self._manifest is None:
            raise ValidationError("service is not started")
        try:
            self.admission.admit(request, self.state)
        except ReproError as error:
            reason = getattr(error, "reason", "rejected")
            key = f"rejected.{reason}"
            self.metrics[key] = self.metrics.get(key, 0) + 1
            raise
        if request.wall_deadline is None and (
            self.config.default_wall_deadline is not None
        ):
            request = SessionRequest.from_dict(
                {**request.to_dict(),
                 "wall_deadline": self.config.default_wall_deadline}
            )
        session_id = f"s{self._seq:06d}"
        seq_no = self._seq
        self._seq += 1
        run_dir = self.root / "runs" / session_id
        run_dir.mkdir(parents=True, exist_ok=True)
        session = Session(session_id, request, run_dir, self._counter_names)
        if request.trace["kind"] == "stream":
            buffer = IngestBuffer(self.config.ingest_buffer_records)
            buffer.on_wait = self.histograms["ingest_stall"].observe
            session.ingest = buffer
            # The consumer half of the back-pressure pair runs for the
            # whole stream, so producers only ever wait on the *bound*,
            # never on end-of-stream staging.
            assert self._loop is not None
            session.stager = self._loop.create_task(
                self._stage_session(
                    session, buffer,
                    stall_after=self.chaos.ingest_stall_after(session.label),
                )
            )
            self._stagers.add(session.stager)
            session.stager.add_done_callback(self._stagers.discard)
        self.sessions[session_id] = session
        self._manifest.append(
            "session_queued",
            session=session_id,
            seq_no=seq_no,
            request=request.to_dict(),
        )
        self.metrics["admitted"] += 1
        self._push(session, seq_no)
        self._emit(session, "queued")
        self._reconsider_state()
        self._wake.set()
        return session

    def _push(self, session: Session, seq_no: int) -> None:
        heapq.heappush(
            self._queue, (session.request.priority, seq_no, session.id)
        )

    def get_session(self, session_id: str) -> Session:
        session = self.sessions.get(session_id)
        if session is None:
            raise ValidationError(f"unknown session {session_id!r}")
        return session

    def status(self) -> dict:
        """Service-level status snapshot (also ``/readyz``'s body)."""
        states: Dict[str, int] = {}
        for session in self.sessions.values():
            states[session.state.value] = states.get(session.state.value, 0) + 1
        return {
            "state": self.state.value,
            "ready": self.state == ServiceState.ACCEPT,
            "queued": self.admission.queued_total,
            "running": self.admission.running_total,
            "sessions": {key: states[key] for key in sorted(states)},
            "metrics": {key: self.metrics[key] for key in sorted(self.metrics)},
            "tenants": {
                tenant: dict(usage)
                for tenant, usage in sorted(self.tenants.items())
            },
        }

    # ------------------------------------------------------------------ #
    # Ingest (streamed traces)
    # ------------------------------------------------------------------ #

    async def ingest_chunk(self, session_id: str, chunk: np.ndarray) -> None:
        """Feed one chunk of a streamed trace, honouring back-pressure.

        The await does not return while the session's bounded buffer is
        full — the transport layer must therefore stop reading its
        socket, which is exactly the pause that protects the service.
        """
        session = self.get_session(session_id)
        if session.ingest is None:
            raise ValidationError(
                f"session {session_id} does not take streamed ingest"
            )
        await session.ingest.put(chunk)

    async def ingest_end(self, session_id: str) -> int:
        """Finish a streamed trace: drain, stage, mark runnable."""
        session = self.get_session(session_id)
        if session.ingest is None:
            raise ValidationError(
                f"session {session_id} does not take streamed ingest"
            )
        buffer = session.ingest
        await buffer.end()
        assert session.stager is not None
        staged = await session.stager
        session.stager = None
        self._absorb_ingest(buffer, session)
        session.trace_staged = True
        session.runnable_at = time.perf_counter()
        session.ingest = None
        if self._manifest is not None:
            self._manifest.append(
                "trace_staged", session=session_id, records=staged
            )
        self._emit(
            session, "trace-staged", records=staged,
            wall_fields={"stalled": round(buffer.wait_seconds, 6)},
        )
        self._wake.set()
        return staged

    async def _stage_session(self, session: Session,
                             buffer: IngestBuffer,
                             stall_after: Optional[int] = None) -> int:
        """Drain one session's ingest buffer to disk as chunks arrive.

        Writes to a ``.part`` file and renames on clean end-of-stream, so
        a server killed mid-ingest never leaves a torn staging file that
        adoption would mistake for a complete trace.  ``stall_after`` is
        the chaos plan's stalled-consumer schedule (see
        :func:`~repro.service.ingest.stage_stream`).
        """
        part = session.run_dir / (INGEST_NAME + ".part")
        try:
            staged = await stage_stream(
                buffer, part, stall_after_chunks=stall_after
            )
        except ReproError:
            try:
                part.unlink()
            except OSError:
                pass
            raise
        part.replace(session.run_dir / INGEST_NAME)
        return staged

    async def _collect_stager(self, session: Session) -> None:
        """Reap an aborted session's stager, swallowing the torn-stream
        error it raises once its buffer is closed under it.

        Only the *stager's* demise is swallowed: a ``CancelledError``
        raised because the caller itself was cancelled (the watchdog or
        an ingest handler torn down by ``stop()``) must propagate, or the
        caller's loop would keep running after its cancellation and
        ``stop()``'s gather would wait on it forever.
        """
        task = session.stager
        session.stager = None
        if task is None:
            return
        try:
            await task
        except ReproError:
            pass
        except asyncio.CancelledError:
            # Awaiting a task forwards our own cancellation into it, so
            # ``task.cancelled()`` cannot tell whose cancel this is; the
            # caller's pending-cancel count can.
            current = asyncio.current_task()
            if current is not None and current.cancelling():
                # We are being cancelled mid-reap; detach the stager so
                # whatever it still raises on its closed buffer is
                # consumed instead of logged as never-retrieved.
                task.add_done_callback(_reap_stager_error)
                raise
            # Only the stager was cancelled; nothing left to reap.

    def _absorb_ingest(
        self, buffer: IngestBuffer, session: Optional[Session] = None
    ) -> None:
        if buffer.high_water > self.ingest_stats["high_water"]:
            self.ingest_stats["high_water"] = buffer.high_water
        self.ingest_stats["producer_waits"] += buffer.producer_waits
        if session is not None:
            accepted = buffer.records_in * 8  # packed 8-byte bus words
            session.ingest_bytes += accepted
            usage = self._tenant_usage(session.request.tenant)
            usage["ingest_bytes"] += accepted

    def ingest_snapshot(self) -> Dict[str, int]:
        """Aggregate back-pressure stats over finished and live buffers."""
        high_water = self.ingest_stats["high_water"]
        waits = self.ingest_stats["producer_waits"]
        for session in self.sessions.values():
            buffer = session.ingest
            if buffer is not None:
                high_water = max(high_water, buffer.high_water)
                waits += buffer.producer_waits
        return {"high_water": high_water, "producer_waits": waits}

    async def ingest_abort(self, session_id: str) -> None:
        """The ingest connection died before its end marker.

        A torn stream cannot be reconstructed — re-streaming into the
        same session is impossible once the buffer is closed — so the
        session is expired *in place* with the same structured reason
        the adoption path uses (``orphaned-ingest``), releasing its
        tenant queue-quota slot.  Leaving it QUEUED would let it hang
        forever whenever no wall deadline is set.
        """
        session = self.sessions.get(session_id)
        if session is None or session.ingest is None:
            return
        buffer = session.ingest
        await buffer.close()
        await self._collect_stager(session)
        self._absorb_ingest(buffer, session)
        session.ingest = None
        self._emit(session, "ingest-lost")
        if session.state == SessionState.QUEUED:
            session.state = SessionState.EXPIRED
            session.reason = "orphaned-ingest"
            self.admission.forget_queued(session.request.tenant)
            self.metrics["expired"] += 1
            self._manifest_safe(
                "session_expired", session=session.id,
                reason="orphaned-ingest",
            )
            self._emit(session, "expired", reason="orphaned-ingest")
            self._finalize_session(session)
            self._close_subscribers(session)
            self._reconsider_state()

    # ------------------------------------------------------------------ #
    # Scheduler
    # ------------------------------------------------------------------ #

    async def _scheduler(self) -> None:
        # ``not self._stopping`` rather than ``True``: on Python <= 3.11,
        # ``wait_for`` can swallow a cancellation that lands just as the
        # wake event fires (and ``_run_session`` fires it right before
        # ``stop()`` cancels us) — the flag guarantees the loop still
        # terminates so ``stop()``'s gather cannot hang on it.
        while not self._stopping:
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=_TICK)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            if not self.state.launches:
                continue
            deferred = []
            while self._queue:
                priority, seq_no, session_id = heapq.heappop(self._queue)
                session = self.sessions.get(session_id)
                if session is None or session.state != SessionState.QUEUED:
                    continue  # expired or otherwise resolved while queued
                if not session.trace_staged:
                    deferred.append((priority, seq_no, session_id))
                    continue
                if not self.admission.may_launch(session.request.tenant):
                    deferred.append((priority, seq_no, session_id))
                    if self.admission.running_total >= self.config.max_workers:
                        break  # no global slot; stop scanning
                    continue  # tenant-local cap; lower priorities may run
                self._launch(session)
            for entry in deferred:
                heapq.heappush(self._queue, entry)

    def _launch(self, session: Session) -> None:
        self.admission.launch(session.request.tenant)
        session.state = SessionState.RUNNING
        now = time.perf_counter()
        session.started_at = now
        runnable_at = session.runnable_at
        if runnable_at is None:
            runnable_at = now
        self.histograms["admission_wait"].observe(
            max(0.0, runnable_at - session.admitted_at)
        )
        self.histograms["queue_wait"].observe(max(0.0, now - runnable_at))
        assert self._manifest is not None
        self._manifest.append("session_started", session=session.id)
        self._emit(session, "started")
        self._reconsider_state()
        self._runners[session.id] = asyncio.create_task(
            self._run_session(session)
        )

    def _reconsider_state(self) -> None:
        suggested = self.admission.suggested_state(self.state)
        if suggested != self.state:
            self.state = suggested
            self._emit_service_event("state", state=self.state.value)

    # ------------------------------------------------------------------ #
    # Session execution
    # ------------------------------------------------------------------ #

    async def _run_session(self, session: Session) -> None:
        try:
            result = await asyncio.to_thread(self._drive_session, session)
            session.result = result
            session.restarts = result.restarts
            session.state = SessionState.COMPLETED
            self.metrics["completed"] += 1
            self.metrics["worker_restarts"] += result.restarts
            self._manifest_safe(
                "session_complete",
                session=session.id,
                digest=result.digest,
                restarts=result.restarts,
                degraded=result.degraded,
            )
            self._emit(
                session, "completed",
                digest=result.digest, degraded=result.degraded,
            )
        except SupervisorAbort as abort:
            if abort.reason == "drain":
                session.state = SessionState.SUSPENDED
                self.metrics["suspended"] += 1
                self._manifest_safe("session_suspended", session=session.id)
                self._emit(session, "suspended")
            else:
                session.state = SessionState.EXPIRED
                session.reason = abort.reason
                self.metrics["expired"] += 1
                self._manifest_safe(
                    "session_expired", session=session.id,
                    reason=abort.reason,
                )
                self._emit(session, "expired", reason=abort.reason)
        except ReproError as error:
            session.state = SessionState.FAILED
            session.error = str(error)
            self.metrics["failed"] += 1
            self._manifest_safe(
                "session_failed", session=session.id, error=str(error)
            )
            self._emit(session, "failed", error=str(error))
        finally:
            self.admission.release(session.request.tenant)
            self._runners.pop(session.id, None)
            if session.state.terminal or (
                session.state == SessionState.SUSPENDED
            ):
                self._finalize_session(session)
            self._close_subscribers(session)
            self._reconsider_state()
            self._wake.set()

    def _drive_session(self, session: Session) -> SupervisedRunResult:
        """Worker-thread body: create-or-resume under bounded retries.

        Every retry *re-opens* the run directory: the journal proves what
        committed, the checkpoint restores it, and the continuation is
        bit-identical to a run that never failed.  Chaos (worker kills)
        applies only to a fresh first attempt, mirroring the supervisor's
        own first-launch-only rule.
        """
        spec = session.request.run_spec
        journal_path = session.run_dir / RunSupervisor.JOURNAL_NAME
        if journal_path.exists():
            supervisor = RunSupervisor.open(session.run_dir)
        else:
            supervisor = RunSupervisor.create(
                spec, self._stage_words(session), session.run_dir
            )
        attempt = 0
        while True:
            attempt += 1
            session.attempts = attempt
            self._arm(session, supervisor)
            chaos = None
            if attempt == 1 and not session.adopted:
                kill_after = self.chaos.kill_after_records(session.label)
                if kill_after is not None:
                    chaos = ChaosPlan(kill_after_records=kill_after)
            try:
                return supervisor.run(chaos=chaos)
            except SupervisorError as failure:
                if attempt >= session.request.max_attempts:
                    raise
                self.metrics["retries"] += 1
                delay = backoff_delay(
                    spec.seed, self.config.retry_backoff_base, attempt
                )
                self.histograms["retry_backoff"].observe(delay)
                self._emit_threadsafe(
                    session, "retry",
                    attempt=attempt, delay=delay, error=str(failure),
                )
                self._abortable_sleep(session, delay)
                supervisor = RunSupervisor.open(session.run_dir)

    def _arm(self, session: Session, supervisor: RunSupervisor) -> None:
        """Wire service plumbing into one supervisor attempt."""
        session._supervisor = supervisor
        # The supervisor derived the same trace ID from its journal; its
        # run span hangs under this session's root span.
        session.trace_id = supervisor.trace_id
        supervisor.trace_parent = session.root_span_id
        supervisor.abort_event = session._abort
        if session._abort_reason:
            supervisor.abort_reason = session._abort_reason
        supervisor.heartbeat_hook = functools.partial(
            self._heartbeat, session
        )
        if session._abort.is_set():
            raise SupervisorAbort(session._abort_reason or "abort")

    def _abortable_sleep(self, session: Session, delay: float) -> None:
        slept = 0.0
        while slept < delay:
            if session._abort.is_set():
                raise SupervisorAbort(session._abort_reason or "abort")
            step = min(_TICK, delay - slept)
            time.sleep(step)
            slept += step

    def _stage_words(self, session: Session) -> np.ndarray:
        trace = session.request.trace
        if trace["kind"] == "synthetic":
            return synthetic_words(trace)
        if trace["kind"] == "file":
            from repro.bus.trace import TraceReader

            return TraceReader(trace["path"]).load().words
        staged = session.run_dir / INGEST_NAME
        if not staged.exists():
            raise IngestClosedError(
                f"session {session.id}: streamed trace was never staged"
            )
        return load_staged(staged)

    # -- heartbeats (supervisor thread) ----------------------------------

    def _heartbeat(self, session: Session, payload: dict) -> None:
        session.cycle = float(payload.get("cycle", 0.0))
        session.transactions = int(payload.get("transactions", 0))
        session.note_heartbeat_deltas(
            int(payload.get("seq", 0)), payload.get("deltas") or {}
        )
        window = payload.get("window")
        if window:
            session.window = dict(window)
        deadline = session.request.cycle_deadline
        if deadline is not None and session.cycle > deadline:
            session.request_abort("cycle-deadline")
        self._emit_threadsafe(
            session, "heartbeat",
            cycle=session.cycle, transactions=session.transactions,
        )

    # ------------------------------------------------------------------ #
    # Accounting, trace roots, per-session metrics
    # ------------------------------------------------------------------ #

    def _tenant_usage(self, tenant: str) -> Dict[str, float]:
        usage = self.tenants.get(tenant)
        if usage is None:
            usage = {
                "cycles": 0.0,
                "records": 0.0,
                "worker_seconds": 0.0,
                "ingest_bytes": 0.0,
            }
            self.tenants[tenant] = usage
        return usage

    def _finalize_session(self, session: Session) -> None:
        """Close a session out exactly once: accounting + the root span.

        Called from every terminal transition (and suspension).  Emits
        the session's root span record — the parent every supervisor and
        worker span of this trace resolves to — journals the session's
        resource usage under its tenant, and retires the session's
        run-time state (see :meth:`Session.retire`).
        """
        if session._finalized:
            return
        session._finalized = True
        self._account_session(session)
        if self._sink is not None:
            self._sink.emit(self._session_span(session))
        session.retire()

    def _account_session(self, session: Session) -> None:
        """Aggregate one closing session's usage under its tenant.

        An operational meter, not a billing ledger: a session resumed in
        a later service incarnation reports its absolute totals again
        (the per-incarnation ``worker_seconds`` stays accurate).
        """
        now = time.perf_counter()
        worker_seconds = (
            now - session.started_at if session.started_at is not None
            else 0.0
        )
        tenant = session.request.tenant
        usage = self._tenant_usage(tenant)
        usage["cycles"] += session.cycle
        usage["records"] += float(session.transactions)
        usage["worker_seconds"] += worker_seconds
        self._manifest_safe(
            "tenant_usage",
            session=session.id,
            tenant=tenant,
            cycles=session.cycle,
            records=session.transactions,
            worker_seconds=round(worker_seconds, 6),
            ingest_bytes=session.ingest_bytes,
        )

    def _session_span(self, session: Session) -> dict:
        """The session's root span record (service-plane lifetime)."""
        return {
            "type": "span",
            "v": SPAN_VERSION,
            "label": "service",
            "seq": 0,
            "name": "session",
            "path": "session",
            "depth": 0,
            "begin_cycle": 0.0,
            "end_cycle": session.cycle,
            "trace_id": session.trace_id,
            "span_id": session.root_span_id,
            "parent_id": None,
            "session": session.id,
            "tenant": session.request.tenant,
            "wall": {
                "seconds": round(
                    time.perf_counter() - session.admitted_at, 6
                )
            },
        }

    def session_metrics_page(self, session_id: str) -> str:
        """Prometheus exposition for one session: counters + histograms.

        Board counters come from the heartbeat delta stream (rewound on
        worker restarts, so redone work is never double-counted); the
        latency histograms are the supervisor's checkpoint-carried set.

        Raises:
            ValidationError: the session is unknown (evicted sessions
                get a structured 404 from the HTTP layer).
        """
        session = self.get_session(session_id)
        page = render_exposition(
            session.counter_totals(),
            label=session.id,
            cycle=session.cycle,
            transactions=session.transactions,
            samples=session.sample_count,
            window=session.window or None,
        )
        return page + histogram_exposition(
            session.latency_histograms(), label=session.id
        )

    def session_result(self, session_id: str) -> dict:
        """The ``/sessions/{id}/result`` body: the view plus the result.

        Raises:
            ValidationError: the session is unknown.
        """
        session = self.get_session(session_id)
        page = session.view().to_dict()
        result = session.result_dict()
        if result is not None:
            page["result"] = result
        return page

    # ------------------------------------------------------------------ #
    # Watchdog (wall deadlines)
    # ------------------------------------------------------------------ #

    async def _watchdog(self) -> None:
        # Same stop-flag guard as ``_scheduler``: a cancellation swallowed
        # by the expiry path's awaits must not leave this loop running.
        while not self._stopping:
            await asyncio.sleep(_TICK)
            now = time.perf_counter()
            for session in list(self.sessions.values()):
                deadline = session.wall_deadline
                if deadline is None or session.state.terminal:
                    continue
                if session.state == SessionState.SUSPENDED:
                    continue
                if now - session.admitted_at <= deadline:
                    continue
                if session.state == SessionState.QUEUED:
                    session.state = SessionState.EXPIRED
                    session.reason = "wall-deadline"
                    self.admission.forget_queued(session.request.tenant)
                    self.metrics["expired"] += 1
                    self._manifest_safe(
                        "session_expired", session=session.id,
                        reason="wall-deadline",
                    )
                    self._emit(session, "expired", reason="wall-deadline")
                    if session.ingest is not None:
                        await session.ingest.close()
                        await self._collect_stager(session)
                        self._absorb_ingest(session.ingest, session)
                        session.ingest = None
                    self._finalize_session(session)
                    self._close_subscribers(session)
                    self._reconsider_state()
                elif session.state == SessionState.RUNNING:
                    session.request_abort("wall-deadline")

    # ------------------------------------------------------------------ #
    # Telemetry fan-out
    # ------------------------------------------------------------------ #

    def subscribe(self, session_id: str) -> asyncio.Queue:
        """A live event feed for one session (drop-oldest on overflow)."""
        session = self.get_session(session_id)
        queue: asyncio.Queue = asyncio.Queue(maxsize=_SUBSCRIBER_DEPTH)
        if session.state.terminal or session.state == SessionState.SUSPENDED:
            queue.put_nowait(self._event_record(session, session.state.value))
            queue.put_nowait(None)
        else:
            session.subscribers.append(queue)
        return queue

    def unsubscribe(self, session_id: str, queue: asyncio.Queue) -> None:
        session = self.sessions.get(session_id)
        if session is not None and queue in session.subscribers:
            session.subscribers.remove(queue)

    def _event_record(
        self,
        session: Session,
        event: str,
        wall_fields: Optional[dict] = None,
        **fields,
    ) -> dict:
        # Wall offset since admission, segregated under the reserved
        # key: the flight recorder uses it to time the control-plane
        # phases (queued, staging) that have no cycle clock.
        wall = {
            "elapsed": round(time.perf_counter() - session.admitted_at, 6)
        }
        if wall_fields:
            wall.update(wall_fields)
        return {
            "type": "service",
            "event": event,
            "session": session.id,
            "tenant": session.request.tenant,
            "state": session.state.value,
            **fields,
            "wall": wall,
        }

    def _emit(self, session: Session, event: str, **fields) -> None:
        record = self._event_record(session, event, **fields)
        if self._sink is not None:
            self._sink.emit(record)
        for queue in list(session.subscribers):
            self._offer(queue, record)

    def _emit_threadsafe(self, session: Session, event: str, **fields) -> None:
        """Emit from a supervisor thread: sink directly (it locks),
        subscriber queues via the event loop."""
        record = self._event_record(session, event, **fields)
        if self._sink is not None:
            self._sink.emit(record)
        loop = self._loop
        if loop is not None and session.subscribers:
            loop.call_soon_threadsafe(self._fan_out, session, record)

    def _fan_out(self, session: Session, record: dict) -> None:
        for queue in list(session.subscribers):
            self._offer(queue, record)

    @staticmethod
    def _offer(queue: asyncio.Queue, record: Optional[dict]) -> None:
        if queue.full():
            try:
                queue.get_nowait()  # shed the oldest; watchers never stall us
            except asyncio.QueueEmpty:
                pass
        queue.put_nowait(record)

    def _close_subscribers(self, session: Session) -> None:
        for queue in list(session.subscribers):
            self._offer(queue, None)
        session.subscribers = []

    def _emit_service_event(self, event: str, **fields) -> None:
        if self._sink is not None:
            self._sink.emit({"type": "service", "event": event, **fields})

    def _manifest_safe(self, record_type: str, **fields) -> None:
        """Journal from a runner task; tolerate a manifest closed by stop().

        A runner finishing between ``stop()``'s journal close and its own
        cancellation must not crash — its session outcome is already
        recoverable from the per-run journal on re-adoption.
        """
        manifest = self._manifest
        if manifest is not None:
            manifest.append(record_type, **fields)


def render_service_manifest(root: Union[str, Path]) -> str:
    """Offline view of a service root's manifest (console ``service``).

    Reads ``service.jsonl`` without starting a server: which sessions the
    manifest records, which are closed out, and which a restarted server
    would re-adopt.
    """
    path = Path(root) / EmulationService.MANIFEST_NAME
    if not path.exists():
        raise ValidationError(f"{root} has no service manifest")
    journal = RunJournal(path)
    try:
        latest: Dict[str, Tuple[str, str]] = {}
        requests: Dict[str, dict] = {}
        for record in journal.entries():
            kind = record.get("type", "")
            session = str(record.get("session", ""))
            if kind == "session_queued":
                requests[session] = record.get("request", {})
                latest[session] = ("queued", "")
            elif kind == "session_started":
                latest[session] = ("running", "")
            elif kind == "session_suspended":
                latest[session] = ("suspended", "")
            elif kind == "session_complete":
                latest[session] = (
                    "completed", str(record.get("digest", ""))[:16]
                )
            elif kind == "session_failed":
                latest[session] = ("failed", str(record.get("error", "")))
            elif kind == "session_expired":
                latest[session] = ("expired", str(record.get("reason", "")))
        drained = journal.last("drain_complete") is not None
        lines = [f"=== service manifest: {path} ==="]
        adoptable = 0
        for session in sorted(latest):
            state, note = latest[session]
            request = requests.get(session, {})
            label = str(request.get("label", "")) or session
            tenant = str(request.get("tenant", "default"))
            if state in ("queued", "running", "suspended"):
                adoptable += 1
            suffix = f"  {note}" if note else ""
            lines.append(
                f"{session}  {state:9s}  tenant={tenant}  "
                f"label={label}{suffix}"
            )
        lines.append(
            f"{len(latest)} session(s); {adoptable} would be re-adopted; "
            f"last drain {'completed' if drained else 'not recorded'}"
        )
        return "\n".join(lines)
    finally:
        journal.close()
