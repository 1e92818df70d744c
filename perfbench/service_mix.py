"""service-mix: two closed-loop clients driving an in-process service.

Each client submits a session, subscribes to its events, waits for the
terminal event, then submits its next session (a closed loop: a slow
service receives less load).  Client 0 is tenant ``alpha`` and client 1
tenant ``beta``; each alternates a synthetic-trace session with a
streamed one whose words go through ``ingest_chunk``/``ingest_end``.
Every session is a 20k-record, 4-segment supervised run on the split4
machine, and its digest must equal a direct supervised run of the same
work, made before timing starts.  The loop runs in short phases; between
them no session runs, and the host-speed calibration (``hostspeed``) and
the service set-up samples are taken there, outside the timed loop.
Every timing is reported in reference seconds.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import re
import shutil
import statistics
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.service import (
    AdmissionError,
    EmulationService,
    ServiceConfig,
    SessionRequest,
    synthetic_words,
    validate_trace_spec,
)
from repro.supervisor import RunSupervisor, SupervisedRunSpec
from repro.telemetry.prom import LATENCY_WALL_METRIC

import replay
from hostspeed import HostClock
from inputs import N_CPUS, oltp_words, split4_machine, sub_seed

SESSION_RECORDS = 20_000
SEGMENT_RECORDS = 5_000
#: Synthetic sessions draw from 2 MB of lines, twice one node cache.
SYNTHETIC_LINES = 16_384
#: One client per core of the 2-core host the benchmark was tuned on; the
#: service runs at most as many workers, so no more processes replay at
#: once than there are cores.
CLIENTS = 2
INGEST_CHUNK = 1_024
#: Four chunks of buffer: streamed sessions meet back-pressure.
CONFIG = ServiceConfig(max_workers=CLIENTS, ingest_buffer_records=4_096)
#: (tenant, trace kind) of the four sessions each run cycles through.
POOL = (("alpha", "synthetic"), ("beta", "synthetic"),
        ("alpha", "stream"), ("beta", "stream"))
#: The closed loop runs in phases of about this many seconds.  At the
#: barrier after each phase no session is running: the host speed is
#: calibrated there, and SETUPS_PER_BARRIER service set-ups are timed.
PHASE_S = 5.0
#: start() costs a few milliseconds, mostly mkdir, open and fsync; the
#: median over all barriers is kept.
SETUPS_PER_BARRIER = 8
#: A run makes at least this many timed sessions, so that a quarter of
#: them (ten) lie beyond the p75.
MIN_SESSIONS = 40
STAGE_REPEATS = 3
DIRECT_REPEATS = 3
#: A session still running after this long counts as failed.
SESSION_TIMEOUT = 120.0
TERMINAL = ("completed", "failed", "expired", "suspended")


@dataclass
class Work:
    tenant: str
    trace: dict
    words: np.ndarray
    spec: SupervisedRunSpec
    digest: str = ""
    emulated_s: float = 0.0
    stage_s: float = 0.0
    direct_s: float = 0.0


@dataclass
class Outcome:
    work: Work
    ok: bool
    latency_s: float = 0.0
    submit_s: float = 0.0
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    ingest_s: float = 0.0
    histograms: Optional[dict] = None
    #: Reference seconds per wall second during the session's phase.
    scale: float = 1.0


def make_pool(seed: int, scratch: Path) -> List[Work]:
    """The four session kinds, each with its direct supervised reference.

    ``RunSupervisor.create`` is timed here, directly, on each trace.
    """
    machine = split4_machine()
    pool = []
    clock = HostClock()
    for index, (tenant, kind) in enumerate(POOL):
        trace_seed = sub_seed(seed, index)
        spec = SupervisedRunSpec(
            machine=machine, seed=trace_seed, segment_records=SEGMENT_RECORDS
        )
        if kind == "synthetic":
            trace = validate_trace_spec({
                "kind": "synthetic", "records": SESSION_RECORDS,
                "seed": trace_seed, "n_cpus": N_CPUS,
                "n_lines": SYNTHETIC_LINES,
            })
            words = synthetic_words(trace)
        else:
            trace = {"kind": "stream"}
            words = oltp_words(SESSION_RECORDS, trace_seed)
        work = Work(tenant, trace, words, spec)
        stage = []
        for repeat in range(STAGE_REPEATS):
            start = time.perf_counter()
            supervisor = RunSupervisor.create(
                spec, words, scratch / f"reference{index}-{repeat}"
            )
            stage.append(time.perf_counter() - start)
        work.stage_s = statistics.median(stage) * clock.scale()
        result = supervisor.run()
        work.digest = result.digest
        work.emulated_s = result.emulated_seconds
        pool.append(work)
    return pool


async def time_setup(root: Path) -> float:
    """Construction plus ``start()`` of a service on a fresh root."""
    start = time.perf_counter()
    service = EmulationService(root, CONFIG)
    await service.start()
    elapsed = time.perf_counter() - start
    await service.stop()
    return elapsed


_HISTOGRAM_LINE = re.compile(
    re.escape(LATENCY_WALL_METRIC)
    + r'_(sum|count)\{[^}]*stage="(\w+)"[^}]*\} (\S+)'
)


def wall_histograms(page: str) -> dict:
    """``{(stage, "sum"|"count"): value}`` from a session metrics page."""
    return {
        (stage, field): float(value)
        for field, stage, value in _HISTOGRAM_LINE.findall(page)
    }


async def one_session(service, work: Work, traced: bool) -> Outcome:
    """One session, timed at the service's public calls and events.

    Those timestamps cost nothing, so both runs take them; the traced
    run also reads the session's metrics page."""
    request = SessionRequest(run_spec=work.spec, trace=work.trace,
                             tenant=work.tenant)
    submitted = time.perf_counter()
    try:
        session = service.submit(request)
    except AdmissionError:
        return Outcome(work, ok=False)
    submit_s = time.perf_counter() - submitted
    events = service.subscribe(session.id)
    ingest_s = 0.0
    if work.trace["kind"] == "stream":
        ingest_start = time.perf_counter()
        for start in range(0, len(work.words), INGEST_CHUNK):
            await service.ingest_chunk(
                session.id, work.words[start:start + INGEST_CHUNK]
            )
        await service.ingest_end(session.id)
        ingest_s = time.perf_counter() - ingest_start
    started = submitted
    final = None
    try:
        while final is None:
            record = await asyncio.wait_for(events.get(), SESSION_TIMEOUT)
            if record is None:
                break
            if record["event"] == "started":
                started = time.perf_counter()
            elif record["event"] in TERMINAL:
                final = record
    except asyncio.TimeoutError:
        pass
    done = time.perf_counter()
    service.unsubscribe(session.id, events)
    ok = (final is not None and final["event"] == "completed"
          and final.get("digest") == work.digest)
    return Outcome(
        work, ok, latency_s=done - submitted, submit_s=submit_s,
        queue_wait_s=started - submitted, run_s=done - started,
        ingest_s=ingest_s,
        histograms=(wall_histograms(service.session_metrics_page(session.id))
                    if traced else None),
    )


async def closed_loop(service, pool, seconds: float, traced: bool = False,
                      setups: Optional[Path] = None):
    """Every client runs sessions back to back, in phases, until
    ``seconds`` pass and at least ``MIN_SESSIONS`` have run (with
    ``seconds`` 0: one session each).  With ``setups``, service set-ups
    are timed under that directory at each barrier between phases.
    Returns the outcomes, the phases' total time and the set-up times,
    all in reference seconds."""
    outcomes: List[Outcome] = []
    setup_times: List[float] = []
    turns = [0] * CLIENTS
    elapsed = 0.0
    phases = max(1, round(seconds / PHASE_S))
    clock = HostClock()

    async def client(index: int, deadline: float) -> List[Outcome]:
        done = []
        while True:
            work = pool[index + CLIENTS * (turns[index] % 2)]
            turns[index] += 1
            done.append(await one_session(service, work, traced))
            if time.perf_counter() >= deadline:
                return done

    for count in itertools.count(1):
        phase_start = time.perf_counter()
        deadline = phase_start + seconds / phases
        phase = await asyncio.gather(
            *(client(index, deadline) for index in range(CLIENTS))
        )
        wall = time.perf_counter() - phase_start
        if setups:
            # Write back the phase's checkpoints and journals first, so
            # that the set-ups' own fsyncs do not wait behind them.
            os.sync()
        raw_setups = [
            await time_setup(setups / f"setup{len(setup_times)}-{index}")
            for index in range(SETUPS_PER_BARRIER if setups else 0)
        ]
        scale = clock.scale()
        elapsed += wall * scale
        setup_times.extend(value * scale for value in raw_setups)
        for item in (item for done in phase for item in done):
            item.scale = scale
            outcomes.append(item)
        if count >= phases and (seconds == 0
                                or len(outcomes) >= MIN_SESSIONS):
            return outcomes, elapsed, setup_times


def end_to_end(outcomes, elapsed: float) -> dict:
    done = [item for item in outcomes if item.ok]
    latencies = [item.latency_s * item.scale for item in done]
    return {
        "records_per_s": len(done) * SESSION_RECORDS / elapsed,
        "realtime_factor": sum(item.work.emulated_s for item in done) / elapsed,
        "sessions_per_s": len(done) / elapsed,
        "session_p50_s": statistics.median(latencies),
        "session_p75_s": statistics.quantiles(latencies, n=4)[2],
    }


def service_layers(outcomes, stalls: int) -> dict:
    done = [item for item in outcomes if item.ok]
    streamed = [item for item in done if item.work.trace["kind"] == "stream"]

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    def histogram(item, stage, field):
        return item.histograms.get((stage, field), 0.0)

    def seconds(items, field):
        """Median of a per-session time, in reference seconds."""
        return median(getattr(item, field) * item.scale for item in items)

    return {
        "supervisor.stage_s": median(item.work.stage_s for item in done),
        "supervisor.segment_replay_s": median(
            histogram(item, "segment_replay", "sum") * item.scale
            for item in done),
        "supervisor.checkpoint_write_s": median(
            histogram(item, "checkpoint_write", "sum") * item.scale
            for item in done),
        "supervisor.segments": median(
            histogram(item, "segment_replay", "count") for item in done),
        "supervisor.checkpoints": median(
            histogram(item, "checkpoint_write", "count") for item in done),
        "service.submit_s": seconds(done, "submit_s"),
        "service.queue_wait_s": seconds(done, "queue_wait_s"),
        "service.run_s": seconds(done, "run_s"),
        "service.ingest_s": seconds(streamed, "ingest_s"),
        "service.ingest_stalls": stalls / len(streamed) if streamed else 0.0,
        "service.emulation_share": median(
            item.work.direct_s / (item.latency_s * item.scale)
            for item in done),
    }


async def measure(pool, seconds: float, trace: bool, scratch: Path) -> dict:
    service = EmulationService(scratch / "service", CONFIG)
    await service.start()
    try:
        warmup, _, _ = await closed_loop(service, pool, 0.0)
        plain, elapsed, setup_times = await closed_loop(
            service, pool, seconds / 2 if trace else seconds, setups=scratch
        )
        traced, traced_elapsed, stalls = [], 0.0, 0
        if trace:
            waits = service.ingest_snapshot()["producer_waits"]
            # The same barriers as the untraced half, set-ups included,
            # so that trace.overhead_frac compares like with like.
            traced, traced_elapsed, _ = await closed_loop(
                service, pool, seconds / 2, traced=True,
                setups=scratch / "traced",
            )
            stalls = service.ingest_snapshot()["producer_waits"] - waits
    finally:
        await service.stop()
    everything = warmup + plain + traced
    streamed = sum(item.work.trace["kind"] == "stream" for item in plain)
    result = {
        "attempted": len(everything),
        "failed": sum(not item.ok for item in everything),
        "summary": (
            f"service-mix: {len(plain)} timed sessions ({streamed} "
            f"streamed) from {CLIENTS} closed-loop clients, "
            f"{len(traced)} traced; p50/p75 over {len(plain)} sessions, "
            f"set-up over {len(setup_times)} samples taken between phases; "
            f"host at {statistics.median(i.scale for i in plain):.2f} "
            f"of reference speed"
        ),
        "end_to_end": {**end_to_end(plain, elapsed),
                       "setup_s": statistics.median(setup_times)},
    }
    if trace:
        layers = service_layers(traced, stalls)
        traced_rate = end_to_end(traced, traced_elapsed)["records_per_s"]
        layers["trace.overhead_frac"] = (
            1.0 - traced_rate / result["end_to_end"]["records_per_s"]
        )
        result["per_layer"] = layers
    return result


def direct_replays(pool) -> tuple:
    """Replay each session trace directly, on a board sampled at the
    heartbeat cadence a session's worker uses: its time is the emulation
    inside a session; its traced pass gives the bus, engines, memories
    and telemetry layers of the session traces."""
    passes, failed = [], 0
    clock = HostClock()
    for work in pool:
        args = (work.spec.machine, work.words, work.spec.seed, work.digest,
                work.spec.heartbeat_every)
        plain = [replay.one_pass(*args) for _ in range(DIRECT_REPEATS)]
        work.direct_s = (statistics.median(item.replay_s for item in plain)
                         * clock.scale())
        passes.append(replay.traced_pass(*args))
        passes[-1].scale = clock.scale()
        failed += sum(not item.correct for item in plain + passes[-1:])
    return (replay.layer_metrics(passes), (DIRECT_REPEATS + 1) * len(pool),
            failed)


def run(seed: int, seconds: float, trace: bool, root: Path) -> dict:
    scratch = root / ".perfbench-work" / f"service-mix-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        pool = make_pool(seed, scratch)
        if trace:
            layers, attempted, failed = direct_replays(pool)
        result = asyncio.run(measure(pool, seconds, trace, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with suppress(OSError):  # other runs may still be using it
            scratch.parent.rmdir()
    if trace:
        result["attempted"] += attempted
        result["failed"] += failed
        result["per_layer"].update(layers)
    return result
