"""The replay workloads: split4-oltp and sweep4-profile.

One run replays the workload's trace again and again, each pass on a
freshly built board, through default engine routing
(``MemoriesBoard.replay_words``).  Every pass's ``statistics_digest`` is
checked against the scalar engine's digest for the same trace, computed
once before timing starts.  A pass is also the "session" of these
workloads: build the board, replay, digest.  Each pass, with the
set-ups timed before it, sits between two host-speed calibrations, and
every timing is reported in reference seconds (``hostspeed``).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.bus.trace import decode_arrays
from repro.engines import ENGINES
from repro.engines.registry import select_board_engine
from repro.memories.batch import replay_with_runner
from repro.memories.board import board_for_machine
from repro.supervisor.spec import statistics_digest
from repro.telemetry.sampler import CounterSampler
from repro.telemetry.sink import MemorySink

from hostspeed import HostClock
from inputs import oltp_words, split4_machine, sweep4_machine
from tracing import Tracer, patched

#: Per-layer metrics of the service stack, which replay workloads never
#: enter; they report zero.
SERVICE_LAYERS = (
    "supervisor.stage_s", "supervisor.segment_replay_s",
    "supervisor.checkpoint_write_s", "supervisor.segments",
    "supervisor.checkpoints", "service.submit_s", "service.queue_wait_s",
    "service.run_s", "service.ingest_s", "service.ingest_stalls",
    "service.emulation_share",
)

#: Set-ups timed before each pass, each on a fresh board; the median of
#: all of them is kept, since one set-up takes only milliseconds.
SETUPS_PER_PASS = 2
#: An untraced run makes at least this many timed passes, so that a
#: quarter of them (ten) lie beyond the pass-latency p75.  A traced run
#: reports no percentiles and needs fewer.
MIN_PASSES = 40
MIN_TRACED_PASSES = 10


@dataclass(frozen=True)
class ReplayWorkload:
    machine: Callable
    records: int
    #: Sampler cadence in transactions; None replays without telemetry.
    sample_every: Optional[int]


WORKLOADS = {
    "split4-oltp": ReplayWorkload(
        machine=split4_machine, records=200_000, sample_every=None,
    ),
    # 100k records keep a pass near a second and a half: every record
    # costs four local tenures here.  A 100-transaction cadence is the
    # Figure 10 fine-grained profiling mode (1000 windows per pass).
    "sweep4-profile": ReplayWorkload(
        machine=sweep4_machine, records=100_000, sample_every=100,
    ),
}


def build_board(machine, seed: int, sample_every: Optional[int]):
    """What a user sets up before the first record: the board, its
    sampler (when the workload profiles) and the engine choice."""
    board = board_for_machine(machine, seed=seed)
    if sample_every is not None:
        board.attach_telemetry(CounterSampler(
            MemorySink(), every_transactions=sample_every,
        ))
    select_board_engine(board)
    return board


def time_setup(workload: ReplayWorkload, machine, seed: int) -> float:
    start = time.perf_counter()
    build_board(machine, seed, workload.sample_every)
    return time.perf_counter() - start


def scalar_digest(machine, words, seed: int) -> str:
    """The reference: the scalar engine, forced, on a bare board."""
    board = board_for_machine(machine, seed=seed)
    ENGINES["scalar"].replay(board, words)
    return statistics_digest(board.statistics())


@dataclass
class Pass:
    replay_s: float
    latency_s: float
    emulated_s: float
    correct: bool
    #: Reference seconds per wall second while the pass ran
    #: (``hostspeed``); set once the calibration after it has run.
    scale: float = 1.0
    #: Only traced passes keep their tracer and board statistics; timed
    #: passes keep nothing, so a long run does not pile up boards.
    tracer: Optional[Tracer] = None
    stats: Optional[dict] = None


def one_pass(machine, words, seed, reference, sample_every=None) -> Pass:
    start = time.perf_counter()
    board = build_board(machine, seed, sample_every)
    replay_start = time.perf_counter()
    board.replay_words(words)
    replay_s = time.perf_counter() - replay_start
    digest = statistics_digest(board.statistics())
    latency_s = time.perf_counter() - start
    return Pass(replay_s, latency_s, board.emulated_seconds,
                digest == reference)


def traced_pass(machine, words, seed, reference, sample_every=None) -> Pass:
    tracer = Tracer()
    board = build_board(machine, seed, sample_every)
    sampler = board.telemetry
    if sampler is not None:
        sampler.on_countdown = tracer.wrap(
            "telemetry.window", sampler.on_countdown
        )

    def driver(board_, words_, runner, flush=None):
        runner = tracer.wrap("memories.runner", runner)
        if flush is not None:
            flush = tracer.wrap("telemetry.flush", flush)
        with tracer.span("memories.driver"):
            return replay_with_runner(board_, words_, runner, flush=flush)

    with patched(decode_arrays, tracer.wrap("bus.decode", decode_arrays)), \
            patched(replay_with_runner, driver), \
            patched(select_board_engine,
                    tracer.wrap("engines.select", select_board_engine)):
        replay_start = time.perf_counter()
        board.replay_words(words)
        replay_s = time.perf_counter() - replay_start
    stats = board.statistics()
    return Pass(replay_s, replay_s, board.emulated_seconds,
                statistics_digest(stats) == reference, tracer=tracer,
                stats=stats)


def board_counts(stats: dict) -> Dict[str, float]:
    """The memories.* counts, derived from ``board.statistics()``."""
    per_counter: Dict[str, int] = {}  # summed over node controllers
    for key, value in stats.items():
        if key.startswith("node"):
            counter = key.split(".", 1)[1]
            per_counter[counter] = per_counter.get(counter, 0) + value

    def total(*prefixes: str) -> int:
        return sum(value for counter, value in per_counter.items()
                   if counter.startswith(prefixes))

    admitted = stats["filter.forwarded"]
    snoops = total("remote.read", "remote.write")
    # A snoop found the line when it invalidated a peer's copy (write
    # intents) or when the read miss that issued it filled SHARED (some
    # peer held the line); a read broadcast counts once however many
    # peers held it, so this is a lower bound.
    useful = total("remote.invalidated", "fill.SHARED")
    return {
        "memories.admitted": admitted,
        "memories.peer_snoops": snoops,
        "memories.snoops_per_tenure": snoops / admitted if admitted else 0.0,
        "memories.snoop_useful_ratio": useful / snoops if snoops else 0.0,
        "memories.installs": total("fill."),
        "memories.evictions": total("evict."),
        "memories.buffer_rejected": total("buffer.rejected"),
    }


def layer_metrics(passes) -> Dict[str, float]:
    """Per traced pass, then the median over passes.  Times are in
    reference seconds (``hostspeed``)."""
    rows = []
    for item in passes:
        tracer = item.tracer
        counts = board_counts(item.stats)
        admitted = counts["memories.admitted"]
        runner_s = tracer.total["memories.runner"] * item.scale
        windows = tracer.calls["telemetry.window"]
        window_s = (tracer.total["telemetry.window"]
                    + tracer.total["telemetry.flush"]) * item.scale
        rows.append({
            "bus.decode_s": tracer.total["bus.decode"] * item.scale,
            "engines.select_s": tracer.total["engines.select"] * item.scale,
            "memories.runner_s": runner_s,
            "memories.runner_share": runner_s / (item.replay_s * item.scale),
            "memories.runner_ns_per_tenure": (
                runner_s / admitted * 1e9 if admitted else 0.0
            ),
            "memories.driver_self_s": (tracer.self_time["memories.driver"]
                                       * item.scale),
            "memories.chunks": tracer.calls["memories.runner"],
            "telemetry.windows": windows,
            "telemetry.window_s": window_s,
            "telemetry.us_per_window": (
                window_s / windows * 1e6 if windows else 0.0
            ),
            **counts,
        })
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    machine = workload.machine()
    words = oltp_words(workload.records, seed)
    reference = scalar_digest(machine, words, seed)
    args = (machine, words, seed, reference, workload.sample_every)
    warmup = one_pass(*args)
    plain, traced, setups = [], [], []
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    clock = HostClock()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(plain) < min_passes:
        raw_setups = [time_setup(workload, machine, seed)
                      for _ in range(SETUPS_PER_PASS)]
        order = [(plain, one_pass), (traced, traced_pass)][:1 + trace]
        # Traced and untraced passes take turns going first, so the
        # order does not bias trace.overhead_frac.
        if len(plain) % 2:
            order.reverse()
        made = [(passes, make_pass(*args)) for passes, make_pass in order]
        scale = clock.scale()
        setups.extend(value * scale for value in raw_setups)
        for passes, item in made:
            item.scale = scale
            passes.append(item)
    everything = [warmup] + plain + traced

    def rate(passes) -> float:
        return statistics.median(workload.records / (item.replay_s * item.scale)
                                 for item in passes)

    latencies = [item.latency_s * item.scale for item in plain]
    records_per_s = rate(plain)
    result = {
        "attempted": len(everything),
        "failed": sum(not item.correct for item in everything),
        "summary": (
            f"{name}: {len(plain)} timed passes of {workload.records} "
            f"records, {len(traced)} traced; session p50/p75 over "
            f"{len(plain)} passes, set-up over {len(setups)} samples; "
            f"host at {statistics.median(i.scale for i in plain):.2f} of "
            f"reference speed"
        ),
        "end_to_end": {
            "records_per_s": records_per_s,
            "realtime_factor": statistics.median(
                item.emulated_s / (item.replay_s * item.scale)
                for item in plain),
            "sessions_per_s": len(latencies) / sum(latencies),
            "session_p50_s": statistics.median(latencies),
            "session_p75_s": statistics.quantiles(latencies, n=4)[2],
            "setup_s": statistics.median(setups),
        },
    }
    if trace:
        layers = layer_metrics(traced)
        layers["trace.overhead_frac"] = 1.0 - rate(traced) / records_per_s
        layers.update(dict.fromkeys(SERVICE_LAYERS, 0.0))
        result["per_layer"] = layers
    return result
