"""Reusable experiment pipeline: capture a trace once, sweep many caches.

The paper's case studies all share one methodology: run the workload on the
host (with MemorIES collecting the bus trace in real time), then evaluate
many cache configurations against the *same* reference stream — up to four
at a time on one board (Figure 4's multi-configuration mode).  These helpers
encode that pipeline so each experiment module stays declarative.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.bus.trace import BusTrace
from repro.host.smp import HostConfig, HostSMP
from repro.memories.board import MemoriesBoard, board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.memories.firmware.tracer import TraceCollectorFirmware
from repro.target.configs import multi_config_machine
from repro.target.mapping import MAX_EMULATED_NODES
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.supervisor import SupervisedRunResult
    from repro.telemetry.sink import TelemetrySink
    from repro.telemetry.spans import RunTrace


def capture_records(
    workload: Workload,
    n_records: int,
    host_config: HostConfig,
    chunk_size: int = 65536,
    max_references: Optional[int] = None,
    stats_out: Optional[dict] = None,
    run_trace: Optional["RunTrace"] = None,
) -> BusTrace:
    """Run ``workload`` on the host until ``n_records`` bus records exist.

    Unlike :func:`repro.workloads.capture.capture_bus_trace` (which runs a
    fixed number of processor references), this drives the host until the
    board's trace buffer holds the requested number of *bus* records — the
    unit the paper's trace-length case study is denominated in.

    Args:
        stats_out: optional dict that receives ``references`` (processor
            references executed) and ``records_per_reference`` — needed when
            an experiment must convert between the reference and bus-record
            domains (e.g. Figure 10's injection period).
        run_trace: optional :class:`repro.telemetry.RunTrace`; the whole
            capture is timed as one ``capture`` span on the host bus's
            cycle clock.
    """
    host = HostSMP(host_config)
    tracer = TraceCollectorFirmware(capacity=n_records)
    board = MemoriesBoard(tracer, name="capture")
    host.plug_in(board)
    references = 0
    limit = max_references if max_references is not None else n_records * 100
    chunks = workload.chunks(limit, chunk_size)
    if run_trace is not None:
        run_trace.bind_clock(lambda: float(host.bus.stats.total_cycles))
        context = run_trace.span("capture", records=n_records)
    else:
        context = nullcontext()
    with context:
        for cpu_ids, addresses, is_writes in chunks:
            host.run_chunk(cpu_ids, addresses, is_writes)
            references += len(cpu_ids)
            if tracer.writer.full:
                break
    if run_trace is not None:
        run_trace.bind_clock(None)
    trace = tracer.to_trace()
    if stats_out is not None:
        stats_out["references"] = references
        stats_out["records_per_reference"] = (
            len(trace) / references if references else 0.0
        )
    return trace


def l3_size_sweep_nodes(
    trace: BusTrace,
    configs: Sequence[CacheNodeConfig],
    n_cpus: int = 8,
    seed: int = 0,
    telemetry_sink: Optional["TelemetrySink"] = None,
    sample_every: Optional[int] = None,
) -> List:
    """Replay one trace against many single-node cache configs.

    Configurations are grouped four at a time onto multi-configuration
    boards (one coherence group each), exactly as the real board evaluates
    "multiple cache structures for the same workload in parallel".

    Returns the node controllers, one per configuration in input order, so
    callers can read any counter (miss ratios, satisfied breakdowns, ...).
    With ``telemetry_sink`` given, each batch board emits a counter time
    series (labels ``sweep0``, ``sweep1``, ...) so the sweep's miss
    ratios can be watched converging instead of only read at the end.
    """
    nodes: List = []
    for batch_index, start in enumerate(range(0, len(configs), MAX_EMULATED_NODES)):
        batch = list(configs[start : start + MAX_EMULATED_NODES])
        machine = multi_config_machine(batch, n_cpus=n_cpus)
        board = board_for_machine(machine, seed=seed)
        if telemetry_sink is not None:
            from repro.telemetry import CounterSampler

            board.attach_telemetry(
                CounterSampler(
                    telemetry_sink,
                    every_transactions=sample_every,
                    label=f"sweep{batch_index}",
                )
            )
        board.replay(trace)
        if board.telemetry is not None:
            board.telemetry.finish(board)
        nodes.extend(board.firmware.nodes)
    return nodes


def l3_size_sweep(
    trace: BusTrace,
    configs: Sequence[CacheNodeConfig],
    n_cpus: int = 8,
    seed: int = 0,
) -> List[float]:
    """Like :func:`l3_size_sweep_nodes`, returning just the miss ratios."""
    return [
        node.miss_ratio()
        for node in l3_size_sweep_nodes(trace, configs, n_cpus, seed)
    ]


def replay_machine(
    trace: BusTrace,
    machine,
    seed: int = 0,
    telemetry_sink: Optional["TelemetrySink"] = None,
    sample_every: Optional[int] = None,
    run_trace: Optional["RunTrace"] = None,
) -> MemoriesBoard:
    """Replay a trace through a board programmed with ``machine``.

    Optional observability: ``telemetry_sink`` attaches a counter sampler
    (cadence ``sample_every`` transactions) and flushes its final window
    after the replay; ``run_trace`` times the replay as a span on the
    board's cycle clock.
    """
    board = board_for_machine(machine, seed=seed)
    if telemetry_sink is not None:
        from repro.telemetry import CounterSampler

        board.attach_telemetry(
            CounterSampler(
                telemetry_sink,
                every_transactions=sample_every,
                label=machine.name,
            )
        )
    if run_trace is not None:
        board.attach_telemetry(run_trace=run_trace)
    board.replay(trace)
    if board.telemetry is not None:
        board.telemetry.finish(board)
    return board


def supervised_replay(
    trace: BusTrace,
    machine,
    run_dir,
    seed: int = 0,
    ecc: bool = False,
    segment_records: int = 5_000,
) -> "SupervisedRunResult":
    """Crash-safe variant of :func:`replay_machine` for long runs.

    Stages ``trace`` into ``run_dir`` and replays it in journaled,
    checkpointed segments under a :class:`~repro.supervisor.RunSupervisor`
    (see :mod:`repro.supervisor`).  Interrupted runs resume from the last
    committed checkpoint when called again with the same ``run_dir``;
    the final counters are bit-identical to :func:`replay_machine` either
    way.  Returns the :class:`~repro.supervisor.SupervisedRunResult`
    (statistics snapshot, per-node miss ratios, degradation accounting).
    """
    from pathlib import Path

    from repro.supervisor import RunSupervisor, SupervisedRunSpec

    run_dir = Path(run_dir)
    if (run_dir / RunSupervisor.JOURNAL_NAME).exists():
        supervisor = RunSupervisor.open(run_dir)
    else:
        spec = SupervisedRunSpec(
            machine=machine,
            seed=seed,
            ecc=ecc,
            segment_records=segment_records,
        )
        supervisor = RunSupervisor.create(spec, trace, run_dir)
    return supervisor.run()
