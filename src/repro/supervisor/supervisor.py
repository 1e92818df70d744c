"""The run supervisor: watchdog, restarts, degradation, and the journal.

:class:`RunSupervisor` owns one *run directory*::

    run_dir/
      spec.json        — the SupervisedRunSpec (rebuilt on every resume)
      trace.seg.mies   — the staged v5 segmented trace (per-segment CRCs)
      journal.jsonl    — the append-only run journal (the WAL)
      checkpoints/     — rotated atomic checkpoints (ckpt-<segment>.json)
      supervisor.jsonl — telemetry spans + supervisor events (append-only)

The commit protocol: the worker makes a segment's checkpoint durable
*before* reporting it, and the supervisor journals the commit *after*
receiving the report — so the journal never references state that could
be lost, and anything after the last journaled commit is redone
deterministically on resume.  ``run()`` is therefore idempotent: kill the
process anywhere (including SIGKILL, including mid-checkpoint), call
``run()`` again, and the final counters are bit-identical to an
uninterrupted run.

The degradation ladder, in order of escalation:

1. **restart** — worker hang (watchdog deadline) or crash: kill, restore
   the last committed checkpoint, exponential backoff, bounded by
   ``max_restarts``.
2. **quarantine** — a trace segment failing its CRC is accounted as
   skipped (``board.segments_quarantined`` / ``records_skipped``) and the
   run continues; the gap is explicit in the journal and statistics.
3. **offline** — a node failing its ECC directory self-check is taken out
   of service (``board.offline_node``), bounded by ``max_offline_nodes``.
4. **fail** — anything beyond those budgets raises
   :class:`SupervisorError`; the journal still records how far the run got.

Watchdog deadlines are derived from emulated-cycle throughput: the
supervisor tracks cycles/second from worker heartbeats (sent by the
telemetry sampler) and allows each segment a generous multiple of its
expected time, floored by the spec's hard ``segment_deadline``.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.bus.trace import BusTrace, TraceReader, TraceWriter
from repro.common.errors import ReproError, TraceFormatError, ValidationError
from repro.faults.checkpoint import (
    checkpoint_generation,
    load_checkpoint_payload,
)
from repro.supervisor.journal import RunJournal
from repro.supervisor.spec import (
    ChaosPlan,
    SupervisedRunSpec,
)
from repro.supervisor.worker import worker_main
from repro.telemetry.histogram import Histogram
from repro.telemetry.sink import JsonlSink
from repro.telemetry.spans import RunTrace, derive_trace_id

#: Watchdog slack: a segment may take this multiple of its expected wall
#: time (from the cycle-throughput EMA) before the worker is declared hung.
DEADLINE_SCALE = 4.0

#: Throughput EMA smoothing (weight of the newest observation).
_EMA_ALPHA = 0.3

#: Poll slice while an abort event is armed: the supervisor notices an
#: abort request within this many seconds even mid-watchdog-wait.
_ABORT_POLL = 0.05

#: Fractional spread of the seeded restart-backoff jitter: the n-th
#: restart sleeps ``base * 2**(n-1) * (1 + JITTER * u)`` with ``u`` drawn
#: from the run's seed (see :func:`backoff_delay`).
BACKOFF_JITTER = 0.25

#: Domain tag separating the backoff jitter stream from every other
#: consumer of the run seed (workloads, replacement policy, faults).
_BACKOFF_STREAM_TAG = 0xB0FF


class SupervisorError(ReproError):
    """A supervised run failed beyond its degradation budgets."""


class SupervisorAbort(ReproError):
    """The run was aborted by its controlling service (drain/deadline).

    Not a failure of the run itself: everything up to the last journaled
    commit stays durable, and ``RunSupervisor.open(run_dir).run()``
    continues the run bit-identically.  ``reason`` carries the structured
    cause (``"drain"``, ``"wall-deadline"``, ``"cycle-deadline"``).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"run aborted: {reason}")
        self.reason = reason


def backoff_delay(
    seed: int,
    base: float,
    attempt: int,
    jitter: float = BACKOFF_JITTER,
) -> float:
    """Deterministic exponential backoff with seed-derived jitter.

    Jitter decorrelates retry storms when many sessions share a host, but
    it must never make a kill-resume chaos run diverge — so the jitter for
    restart ``attempt`` of a run is a pure function of (run seed, attempt)
    and is captured in the journal's ``restart`` record.  Unseeded
    ``random`` in a backoff path is flagged by determinism rule DT207.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0x7FFF_FFFF,
                                _BACKOFF_STREAM_TAG, int(attempt)])
    )
    return float(base * 2 ** (attempt - 1) * (1.0 + jitter * rng.random()))


class _WorkerFailure(Exception):
    """Internal: the worker crashed or hung; restartable."""


@dataclass
class SupervisedRunResult:
    """Outcome of a completed supervised run.

    ``degraded`` is the flag analysis must check before trusting absolute
    counts: a degraded run completed, but its counters under-represent
    the trace (quarantined segments) or the machine (offlined nodes).
    """

    digest: str
    statistics: dict
    offline_nodes: List[int] = field(default_factory=list)
    segments_quarantined: int = 0
    records_skipped: int = 0
    emulated_seconds: float = 0.0
    miss_ratios: dict = field(default_factory=dict)
    fault_counts: dict = field(default_factory=dict)
    restarts: int = 0

    @property
    def degraded(self) -> bool:
        return self.segments_quarantined > 0 or bool(self.offline_nodes)

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "statistics": self.statistics,
            "offline_nodes": list(self.offline_nodes),
            "segments_quarantined": self.segments_quarantined,
            "records_skipped": self.records_skipped,
            "emulated_seconds": self.emulated_seconds,
            "miss_ratios": {str(k): v for k, v in self.miss_ratios.items()},
            "fault_counts": dict(self.fault_counts),
            "restarts": self.restarts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SupervisedRunResult":
        return cls(
            digest=data["digest"],
            statistics=data["statistics"],
            offline_nodes=[int(n) for n in data.get("offline_nodes", [])],
            segments_quarantined=int(data.get("segments_quarantined", 0)),
            records_skipped=int(data.get("records_skipped", 0)),
            emulated_seconds=float(data.get("emulated_seconds", 0.0)),
            miss_ratios={
                int(k): float(v)
                for k, v in data.get("miss_ratios", {}).items()
            },
            fault_counts=data.get("fault_counts", {}),
            restarts=int(data.get("restarts", 0)),
        )


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class RunSupervisor:
    """Crash-safe orchestration of one segmented replay run.

    Build with :meth:`create` (stages a new run directory) or :meth:`open`
    (attaches to an existing one — the resume path).  :meth:`run` always
    continues from whatever the journal proves was committed, so "resume"
    is simply ``open`` + ``run``.
    """

    TRACE_NAME = "trace.seg.mies"
    SPEC_NAME = "spec.json"
    JOURNAL_NAME = "journal.jsonl"
    EVENTS_NAME = "supervisor.jsonl"

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.spec = SupervisedRunSpec.load(self.run_dir / self.SPEC_NAME)
        self.journal = RunJournal(self.run_dir / self.JOURNAL_NAME)
        start = self.journal.last("run_start")
        if start is None:
            raise ValidationError(
                f"{self.run_dir}: journal has no run_start record; "
                f"not a supervised run directory"
            )
        self.n_segments = int(start["segments"])
        self.total_records = int(start["records"])
        #: Deterministic trace identity: stamped into the journal's
        #: run_start by :meth:`create`; older journals fall back to the
        #: same derivation, so resumed runs rejoin their original trace.
        self.trace_id: str = str(
            start.get("trace")
            or derive_trace_id(
                start.get("machine", ""), self.spec.seed, self.run_dir.name
            )
        )
        #: Span ID of the enclosing service-session span, when this run
        #: belongs to a service (set by the service, never serialized).
        self.trace_parent: Optional[str] = None
        #: Latency histograms at the run's choke points.  Cycle-domain
        #: entries ride worker checkpoints (sampler-cursor style) so they
        #: stay bit-identical across kill/resume; restart backoff is
        #: rebuilt from the journal's deterministic ``delay`` records.
        self.histograms: Dict[str, Histogram] = {
            "restart_backoff": Histogram("restart_backoff", domain="wall"),
        }
        for record in self.journal.entries("restart"):
            self.histograms["restart_backoff"].observe(
                float(record.get("delay", 0.0))
            )
        self._launches = 0
        self._bad_generations: set = set()
        self._cycle = 0.0
        self._cycles_per_sec: Optional[float] = None
        self._last_cycle_wall: Optional[float] = None
        self._events: Optional[JsonlSink] = None
        self._trace: Optional[RunTrace] = None
        #: Service plumbing (set by the owning service, never serialized):
        #: when ``abort_event`` is set the supervisor reaps its worker at
        #: the next poll slice and raises :class:`SupervisorAbort` with
        #: ``abort_reason``; ``heartbeat_hook`` sees every worker
        #: heartbeat payload (cycle, transactions) — the service uses it
        #: for cycle-deadline enforcement and live telemetry fan-out.
        self.abort_event: Optional[threading.Event] = None
        self.abort_reason: str = "abort"
        self.heartbeat_hook: Optional[Callable[[dict], None]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        spec: SupervisedRunSpec,
        trace: Union[np.ndarray, BusTrace, str, Path],
        run_dir: Union[str, Path],
    ) -> "RunSupervisor":
        """Stage a new run directory and journal its start.

        ``trace`` may be packed words, a :class:`BusTrace`, or a path to
        any readable trace file — it is re-staged into the run directory
        as a v5 segmented file so every segment is independently
        CRC-checked and random-accessible.
        """
        run_dir = Path(run_dir)
        if (run_dir / cls.JOURNAL_NAME).exists():
            raise ValidationError(
                f"{run_dir} already holds a supervised run; "
                f"open() it instead of create()"
            )
        run_dir.mkdir(parents=True, exist_ok=True)
        if isinstance(trace, (str, Path)):
            words = TraceReader(trace).load().words
        elif isinstance(trace, BusTrace):
            words = trace.words
        else:
            words = trace
        writer = TraceWriter(capacity=max(1, int(words.shape[0])))
        writer.extend_words(words)
        writer.save(
            run_dir / cls.TRACE_NAME,
            segment_records=spec.segment_records,
        )
        spec.save(run_dir / cls.SPEC_NAME)
        journal = RunJournal(run_dir / cls.JOURNAL_NAME)
        count = int(words.shape[0])
        segments = -(-count // spec.segment_records) if count else 0
        fingerprint = spec.machine.fingerprint()
        journal.append(
            "run_start",
            machine=fingerprint,
            records=count,
            segments=segments,
            segment_records=spec.segment_records,
            trace=derive_trace_id(fingerprint, spec.seed, run_dir.name),
        )
        journal.close()
        return cls(run_dir)

    @classmethod
    def open(cls, run_dir: Union[str, Path]) -> "RunSupervisor":
        """Attach to an existing run directory (the resume path)."""
        return cls(run_dir)

    def close(self) -> None:
        """Release the journal handle (safe after run(), which closes it)."""
        self.journal.close()

    # ------------------------------------------------------------------ #
    # Status
    # ------------------------------------------------------------------ #

    def committed_segment(self) -> int:
        """Highest journaled segment commit, or -1 before the first."""
        newest = -1
        for record in self.journal.entries("segment_commit"):
            newest = max(newest, int(record["segment"]))
        return newest

    def status(self) -> dict:
        """Journal-derived progress summary (also the CLI's ``status``)."""
        commits = self.journal.entries("segment_commit")
        quarantined = {
            int(r["segment"]) for r in commits if r.get("quarantined")
        }
        offlined = sorted(
            {int(r["node"]) for r in self.journal.entries("node_offlined")}
        )
        complete = self.journal.last("run_complete")
        return {
            "run_dir": str(self.run_dir),
            "segments": self.n_segments,
            "records": self.total_records,
            "committed": self.committed_segment() + 1,
            "quarantined_segments": sorted(quarantined),
            "offline_nodes": offlined,
            "restarts": len(self.journal.entries("restart")),
            "complete": complete is not None,
            "degraded": bool(quarantined or offlined),
            "torn_tail_recovered": self.journal.torn_tail,
        }

    # ------------------------------------------------------------------ #
    # The run loop
    # ------------------------------------------------------------------ #

    def run(self, chaos: Optional[ChaosPlan] = None) -> SupervisedRunResult:
        """Execute (or resume) the run to completion; returns the result.

        Idempotent: a completed run returns its journaled result without
        spawning anything.  ``chaos`` applies to the first worker launch
        only — restarted workers always run clean.
        """
        existing = self.journal.last("run_complete")
        if existing is not None:
            return SupervisedRunResult.from_dict(existing["result"])

        events_handle = open(self.run_dir / self.EVENTS_NAME, "a")
        self._events = JsonlSink(events_handle)
        # The journal seq at entry is a deterministic, strictly growing
        # incarnation tag: span IDs from a resumed supervisor never
        # collide with those an earlier (killed) incarnation emitted.
        epoch = self.journal.next_seq
        self._trace = RunTrace(
            sink=self._events,
            clock=lambda: self._cycle,
            label="supervisor",
            trace_id=self.trace_id,
            parent_id=self.trace_parent,
            span_prefix=f"supervisor-e{epoch}",
        )
        chaos = chaos if chaos is not None else self.spec.chaos
        restarts = len(self.journal.entries("restart"))
        try:
            with self._trace.span("run", epoch=epoch):
                while True:
                    try:
                        result = self._drive(chaos)
                        result.restarts = restarts
                        self.journal.append(
                            "run_complete", result=result.to_dict()
                        )
                        return result
                    except _WorkerFailure as failure:
                        chaos = None
                        restarts += 1
                        delay = backoff_delay(
                            self.spec.seed, self.spec.backoff_base, restarts
                        )
                        self._event(
                            "restart", reason=str(failure), n=restarts,
                            delay=delay,
                        )
                        self.journal.append(
                            "restart", reason=str(failure), n=restarts,
                            delay=delay,
                        )
                        self.histograms["restart_backoff"].observe(delay)
                        if restarts > self.spec.max_restarts:
                            raise SupervisorError(
                                f"restart budget exhausted after "
                                f"{restarts - 1} restarts: {failure}"
                            ) from failure
                        with self._trace.span("restart_backoff", n=restarts):
                            self._sleep(delay)
        finally:
            self._events.close()
            events_handle.close()
            self._events = None
            self._trace = None
            self.journal.close()

    # -- one worker lifetime ------------------------------------------- #

    def _drive(self, chaos: Optional[ChaosPlan]) -> SupervisedRunResult:
        start_segment, checkpoint = self._resume_point()
        proc, conn = self._spawn(chaos, start_segment, checkpoint)
        self._event(
            "worker_started",
            pid=proc.pid,
            start_segment=start_segment,
            checkpoint=str(checkpoint) if checkpoint else None,
        )
        try:
            ready = self._await(conn, proc, ("ready",))
            self._check_ready_digest(checkpoint, ready[2])
            self._reapply_offline(conn, proc)
            segment = start_segment
            while segment < self.n_segments:
                with self._trace.span("segment", index=segment):
                    self._run_segment(conn, proc, segment)
                segment += 1
            self._send(conn, ("finish",))
            final = self._await(conn, proc, ("final",))
            return SupervisedRunResult.from_dict(final[1])
        finally:
            self._reap(conn, proc)

    def _resume_point(self):
        """(start segment, checkpoint path) proven safe by the journal.

        Prefers the newest on-disk checkpoint generation that (a) fully
        validates, (b) has a matching journaled commit, and (c) has not
        been condemned by a ready-digest mismatch this run.  With no such
        generation the run restarts from scratch — the journal keeps the
        full history either way.
        """
        commits = {
            int(r["segment"]): r
            for r in self.journal.entries("segment_commit")
        }
        directory = self.run_dir / "checkpoints"
        candidates = sorted(directory.glob("ckpt-*.json"), reverse=True)
        for path in candidates:
            generation = checkpoint_generation(path)
            if generation is None or generation in self._bad_generations:
                continue
            if generation not in commits:
                # Durable but never journaled: the crash hit between
                # checkpoint write and journal append.  The commit never
                # happened; the segment will be redone.
                continue
            try:
                load_checkpoint_payload(path)
            except TraceFormatError:
                continue
            return generation + 1, path
        return 0, None

    def _check_ready_digest(self, checkpoint, digest: str) -> None:
        """Cross-check a restored worker against the journaled commit."""
        if checkpoint is None:
            return
        generation = checkpoint_generation(checkpoint)
        commit = None
        for record in reversed(self.journal.entries("segment_commit")):
            if int(record["segment"]) == generation:
                commit = record
                break
        if commit is not None and commit["digest"] != digest:
            self._bad_generations.add(generation)
            self._event(
                "checkpoint_digest_mismatch",
                segment=generation,
                expected=commit["digest"],
                got=digest,
            )
            raise _WorkerFailure(
                f"checkpoint ckpt-{generation:08d} restored to different "
                f"counters than journaled; falling back a generation"
            )

    def _reapply_offline(self, conn, proc) -> None:
        """Re-assert journaled node offlines (idempotent on the board).

        Covers the crash window between a journaled ``node_offlined`` and
        the next committed checkpoint: the WAL wins.
        """
        for record in self.journal.entries("node_offlined"):
            self._send(conn, ("offline", int(record["node"])))
            self._await(conn, proc, ("offlined",))

    def _run_segment(self, conn, proc, segment: int) -> None:
        """Drive one segment to its journaled commit (degrading as needed)."""
        parent_span = self._current_span_id()
        self._send(conn, ("segment", segment, False, parent_span))
        while True:
            message = self._await(conn, proc, ("commit", "error"))
            if message[0] == "commit":
                _, index, path, digest, info = message
                self.journal.append(
                    "segment_commit",
                    segment=int(index),
                    checkpoint=str(path),
                    digest=digest,
                    records=int(info.get("records", 0)),
                    quarantined=bool(info.get("quarantined", False)),
                    span=parent_span,
                )
                self._absorb_histograms(info.get("histograms"))
                return
            _, index, kind, detail = message
            if kind == "trace":
                self._quarantine(conn, int(index), str(detail))
            elif kind == "node":
                self._offline(conn, proc, int(index), detail)
                self._send(conn, ("segment", segment, False, parent_span))
            else:
                raise SupervisorError(
                    f"worker reported unknown error kind {kind!r}"
                )

    def _quarantine(self, conn, segment: int, detail: str) -> None:
        """Degradation rung 2: skip a trace segment that failed its CRC."""
        already = any(
            int(r["segment"]) == segment
            for r in self.journal.entries("quarantine")
        )
        if not already:
            self.journal.append("quarantine", segment=segment, reason=detail)
        self._event("quarantine", segment=segment, reason=detail)
        self._send(conn, ("segment", segment, True, self._current_span_id()))

    def _offline(self, conn, proc, segment: int, nodes) -> None:
        """Degradation rung 3: take ECC-failing nodes out of service."""
        offlined = {
            int(r["node"]) for r in self.journal.entries("node_offlined")
        }
        for node in nodes:
            node = int(node)
            if node in offlined:
                continue
            if len(offlined) >= self.spec.max_offline_nodes:
                raise SupervisorError(
                    f"node {node} failed its ECC self-check but the "
                    f"offline budget ({self.spec.max_offline_nodes}) is "
                    f"spent; run failed at segment {segment}"
                )
            self.journal.append("node_offlined", node=node, segment=segment)
            self._event("node_offlined", node=node, segment=segment)
            offlined.add(node)
            self._send(conn, ("offline", node))
            self._await(conn, proc, ("offlined",))

    # -- plumbing ------------------------------------------------------- #

    def _current_span_id(self) -> Optional[str]:
        return self._trace.current_span_id if self._trace else None

    def _absorb_histograms(self, states: Optional[dict]) -> None:
        """Adopt the worker's checkpoint-carried histogram snapshots."""
        if not states:
            return
        for domain in ("cycle", "wall"):
            for name, state in (states.get(domain) or {}).items():
                self.histograms[str(name)] = Histogram.from_state(state)

    def _spawn(self, chaos, start_segment: int, checkpoint):
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe()
        # Unique per worker lifetime (epoch x launch): a restarted
        # worker's span IDs never collide with its predecessor's.
        self._launches += 1
        prefix = f"worker-e{self.journal.next_seq}-{self._launches}"
        proc = ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                str(self.run_dir),
                self.spec.to_dict(),
                chaos.to_dict() if chaos else None,
                start_segment,
                str(checkpoint) if checkpoint else None,
                self.trace_id,
                prefix,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _send(self, conn, message) -> None:
        """Send one directive; a dead worker becomes a restartable failure.

        A SIGKILLed worker can be noticed either here (broken pipe on the
        next directive) or in :meth:`_await` (EOF on the reply) depending
        on timing; both must fold into the same restart path.
        """
        try:
            conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerFailure(f"worker died: {exc}") from exc

    def _await(self, conn, proc, kinds):
        """Next message of one of ``kinds``, absorbing heartbeats.

        Raises :class:`_WorkerFailure` when the worker dies or stays
        silent past the watchdog deadline, and :class:`SupervisorError`
        when it reports a fatal (deterministic, non-restartable) error.
        """
        while True:
            deadline = self._deadline()
            try:
                if not self._poll(conn, deadline):
                    raise _WorkerFailure(
                        f"watchdog: no worker progress within "
                        f"{deadline:.1f}s"
                    )
                message = conn.recv()
            except (EOFError, OSError) as exc:
                raise _WorkerFailure(f"worker died: {exc}") from exc
            tag = message[0]
            if tag == "heartbeat":
                self._note_heartbeat(message[1])
                continue
            if tag == "span":
                # A worker child span closed: persist it alongside the
                # supervisor's own spans so the run's whole tree lives in
                # one events file.
                if self._events is not None:
                    self._events.emit(message[1])
                continue
            if tag == "fatal":
                raise SupervisorError(
                    f"worker fatal error {message[1]}: {message[2]}"
                )
            if tag in kinds:
                return message
            raise _WorkerFailure(
                f"protocol error: unexpected worker message {tag!r}"
            )

    def _poll(self, conn, deadline: float) -> bool:
        """``conn.poll(deadline)``, sliced so an armed abort fires promptly.

        Without an abort event this is a single poll — byte-identical
        behaviour to the pre-service supervisor.  With one, the wait is
        chopped into :data:`_ABORT_POLL` slices and a set event raises
        :class:`SupervisorAbort` (the caller's ``finally`` reaps the
        worker; everything after the last journaled commit is redone on
        resume, deterministically).
        """
        if self.abort_event is None:
            return conn.poll(deadline)
        waited = 0.0
        while True:
            if self.abort_event.is_set():
                raise SupervisorAbort(self.abort_reason)
            remaining = deadline - waited
            if remaining <= 0:
                return False
            step = min(_ABORT_POLL, remaining)
            if conn.poll(step):
                return True
            waited += step

    def _sleep(self, delay: float) -> None:
        """Backoff sleep that an armed abort event can interrupt."""
        if self.abort_event is None:
            time.sleep(delay)
            return
        slept = 0.0
        while slept < delay:
            if self.abort_event.is_set():
                raise SupervisorAbort(self.abort_reason)
            step = min(_ABORT_POLL, delay - slept)
            time.sleep(step)
            slept += step

    def _note_heartbeat(self, payload: dict) -> None:
        if self.heartbeat_hook is not None:
            self.heartbeat_hook(payload)
        cycle = float(payload.get("cycle", 0.0))
        now = time.perf_counter()
        if (
            self._last_cycle_wall is not None
            and cycle > self._cycle
            and now > self._last_cycle_wall
        ):
            rate = (cycle - self._cycle) / (now - self._last_cycle_wall)
            if self._cycles_per_sec is None:
                self._cycles_per_sec = rate
            else:
                self._cycles_per_sec = (
                    _EMA_ALPHA * rate
                    + (1.0 - _EMA_ALPHA) * self._cycles_per_sec
                )
        self._cycle = max(self._cycle, cycle)
        self._last_cycle_wall = now

    def _deadline(self) -> float:
        """Per-segment watchdog deadline, throughput-derived when possible.

        Expected segment wall time = segment cycles / observed cycles per
        second; the worker gets :data:`DEADLINE_SCALE` times that, floored
        by the spec's hard ``segment_deadline`` so a cold EMA or a tiny
        segment never produces a hair-trigger kill.
        """
        base = self.spec.segment_deadline
        if self._cycles_per_sec and self._cycles_per_sec > 0:
            from repro.bus.bus import ADDRESS_TENURE_CYCLES

            cycles_per_tenure = (
                ADDRESS_TENURE_CYCLES / self.spec.assumed_utilization
            )
            expected = (
                self.spec.segment_records * cycles_per_tenure
                / self._cycles_per_sec
            )
            return max(base, DEADLINE_SCALE * expected)
        return base

    def _event(self, event: str, **fields) -> None:
        if self._events is not None:
            self._events.emit(
                {
                    "type": "supervisor",
                    "event": event,
                    "cycle": self._cycle,
                    **fields,
                }
            )

    def _reap(self, conn, proc) -> None:
        try:
            conn.close()
        except OSError:
            pass
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)


def render_status(status: dict) -> str:
    """Console rendering of :meth:`RunSupervisor.status`."""
    lines = [
        f"supervised run {status['run_dir']}",
        f"  progress : {status['committed']}/{status['segments']} segments "
        f"({status['records']} records)",
        f"  restarts : {status['restarts']}",
    ]
    state = "complete" if status["complete"] else "in progress"
    if status["degraded"]:
        state += " (DEGRADED)"
    lines.append(f"  state    : {state}")
    if status["quarantined_segments"]:
        lines.append(
            f"  quarantined segments: "
            f"{', '.join(str(s) for s in status['quarantined_segments'])}"
        )
    if status["offline_nodes"]:
        lines.append(
            f"  offline nodes: "
            f"{', '.join(str(n) for n in status['offline_nodes'])}"
        )
    if status["torn_tail_recovered"]:
        lines.append("  journal  : torn tail dropped (crash mid-append)")
    return "\n".join(lines)
