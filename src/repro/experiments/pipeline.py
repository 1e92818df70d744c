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


def validate_sharding(machine, shards: int, board: Optional[MemoriesBoard] = None) -> int:
    """Check ``machine`` can be replayed in ``shards`` set-interleaved parts.

    Returns the shard shift (the address bit where the shard index field
    starts).  Sharding partitions the trace by address bits that fall
    inside **every** node's set-index field, so no cache set — and hence
    no directory line, replacement-policy position, or per-set hit/miss
    decision — is ever touched by two workers.  The merged statistics are
    then bit-identical to a serial replay.  Raises
    :class:`~repro.common.errors.ConfigurationError` when a feature breaks
    that argument:

    * ``random`` replacement draws victims from one board-wide RNG stream,
      whose draw order depends on global (not per-set) miss order;
    * an SDRAM timing model or a transaction-buffer service time longer
      than the bus tenure lets queue depth exceed one, making occupancy
      history depend on global arrival order;
    * a shard field wider than some node's set-index field would split one
      of that node's sets across workers.

    Those arguments are no longer checked here: the engine registry's
    static capability prover (:func:`repro.engines.registry.decide`)
    evaluates the ``sharded`` engine's declared requirements against the
    board, and this helper raises from the resulting decision — so the
    CLI's ``verify engines`` shows exactly the verdict replay will act on.
    """
    from repro.common.errors import ConfigurationError
    from repro.engines.registry import decide

    decision = decide("sharded", board=board, machine=machine, shards=shards)
    if not decision.eligible:
        raise ConfigurationError(decision.reason())
    return decision.shard_shift


def sharded_replay(
    trace: BusTrace,
    machine,
    shards: int,
    seed: int = 0,
    assumed_utilization: Optional[float] = None,
    processes: bool = True,
) -> MemoriesBoard:
    """Replay a trace split by set index across ``shards`` workers.

    The trace is partitioned on address bits inside every node's set-index
    field (:func:`validate_sharding`), each partition replays on a private
    board — in worker processes, or inline with ``processes=False`` — and
    the counter banks merge wrap-aware back into one board.  The returned
    board's :meth:`~repro.memories.board.MemoriesBoard.statistics` are
    bit-identical to :func:`replay_machine` on the same trace.

    ``shards=1`` degenerates to a plain serial replay (no partitioning,
    no worker overhead) and is always valid.
    """
    from repro.bus.trace import decode_arrays
    from repro.memories.board import DEFAULT_ASSUMED_UTILIZATION
    from repro.supervisor.worker import merge_shard_payloads, shard_worker_main

    if assumed_utilization is None:
        assumed_utilization = DEFAULT_ASSUMED_UTILIZATION
    board = board_for_machine(
        machine, seed=seed, assumed_utilization=assumed_utilization
    )
    if shards == 1:
        board.replay(trace)
        return board
    shard_shift = validate_sharding(machine, shards, board)

    words = trace.words
    _cpus, _commands, addresses, _responses = decode_arrays(words)
    shard_of = (addresses >> shard_shift) & (shards - 1)
    tasks = [
        {
            "machine": machine,
            "seed": seed,
            "assumed_utilization": assumed_utilization,
            "words": words[shard_of == shard],
        }
        for shard in range(shards)
    ]
    if processes:
        from repro.supervisor.supervisor import _mp_context

        with _mp_context().Pool(processes=shards) as pool:
            payloads = pool.map(shard_worker_main, tasks)
    else:
        payloads = [shard_worker_main(task) for task in tasks]
    merge_shard_payloads(board, payloads)
    # Reconstruct the serial clock: the merged counters correspond to a
    # serial replay of every record, whose clock is len(words) repeated
    # additions of cycles_per_tenure (cumsum matches that accumulation
    # bit for bit; see repro.memories.batch).
    count = int(words.shape[0])
    if count:
        import numpy as np

        steps = np.full(count, board.cycles_per_tenure, dtype=np.float64)
        board.now_cycle = float(np.cumsum(steps)[-1])
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
