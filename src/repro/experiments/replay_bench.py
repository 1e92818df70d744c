"""Replay throughput benchmark: scalar vs compiled.

The real board's selling point is keeping up with a 100 MHz bus in real
time; the software model's equivalent currency is **records per second**
through :meth:`~repro.memories.board.MemoriesBoard.replay_words`.  This
module builds a deterministic synthetic workload (a TPC-C-shaped command
mix, roughly 30% of tenures filtered as IO/interrupt/sync/retried, the
rest hitting a hot working set), replays it through both engines, and
reports throughput plus the statistics digests that prove the fast
path changed nothing.  Timings are best-of-``repeats`` (the minimum is
the least noisy estimator of a deterministic workload's cost), with
every raw sample recorded so the artifact captures the variance.

Two consumers share it: ``benchmarks/bench_replay_throughput.py`` (the
pytest-benchmark suite) and ``tools/bench_smoke.py`` (the CI gate that
writes ``BENCH_replay.json`` and fails on any digest mismatch).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.bus.trace import BusTrace, encode_arrays
from repro.bus.transaction import BusCommand, SnoopResponse
from repro.memories.board import board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.supervisor.spec import statistics_digest
from repro.target.configs import split_smp_machine

#: Default workload size for the full benchmark (CI smoke uses less).
DEFAULT_RECORDS = 200_000

#: Command mix, TPC-C shaped: mostly reads, a write-intent tail, castouts,
#: and ~20% bus noise the address filter drops (IO, interrupts, syncs).
_COMMAND_MIX = (
    (BusCommand.READ, 0.55),
    (BusCommand.RWITM, 0.12),
    (BusCommand.DCLAIM, 0.05),
    (BusCommand.CASTOUT, 0.08),
    (BusCommand.IO_READ, 0.07),
    (BusCommand.IO_WRITE, 0.06),
    (BusCommand.INTERRUPT, 0.04),
    (BusCommand.SYNC, 0.03),
)

#: Snoop responses; the RETRY share filters memory tenures (retried mix).
_RESPONSE_MIX = (
    (SnoopResponse.NULL, 0.62),
    (SnoopResponse.SHARED, 0.20),
    (SnoopResponse.MODIFIED, 0.08),
    (SnoopResponse.RETRY, 0.10),
)


def bench_trace(n_records: int = DEFAULT_RECORDS, seed: int = 2000) -> BusTrace:
    """Deterministic synthetic bus trace with the benchmark's mix.

    Addresses draw from a hot set (4 MB, 80%) and a cold span (256 MB,
    20%) so the emulated caches see realistic hit ratios rather than
    pure-miss or pure-hit degenerate behaviour.
    """
    rng = np.random.default_rng(seed)
    commands = rng.choice(
        [int(command) for command, _ in _COMMAND_MIX],
        size=n_records,
        p=[share for _, share in _COMMAND_MIX],
    ).astype(np.uint64)
    responses = rng.choice(
        [int(response) for response, _ in _RESPONSE_MIX],
        size=n_records,
        p=[share for _, share in _RESPONSE_MIX],
    ).astype(np.uint64)
    cpu_ids = rng.integers(0, 8, n_records).astype(np.uint64)
    hot = rng.integers(0, 4 << 20, n_records)
    cold = rng.integers(0, 256 << 20, n_records)
    is_hot = rng.random(n_records) < 0.8
    addresses = (np.where(is_hot, hot, cold) & ~np.int64(127)).astype(np.uint64)
    return BusTrace(words=encode_arrays(cpu_ids, commands, addresses, responses))


def bench_machine():
    """The benchmark target: a 4-node coherent split of an 8-CPU SMP."""
    config = CacheNodeConfig(size=1 << 20, assoc=4, line_size=128)
    return split_smp_machine(config, n_cpus=8, procs_per_node=2)


def _timed_board_engine(
    machine, trace: BusTrace, seed: int, engine: str, repeats: int
) -> tuple:
    """Best-of-``repeats`` timing of one engine, forced explicitly (the
    registry would otherwise route every eligible board to the
    highest-rank engine, making the scalar row unmeasurable)."""
    from repro.engines import ENGINES

    spec = ENGINES[engine]
    seconds_all = []
    digest = ""
    for _ in range(max(repeats, 1)):
        board = board_for_machine(machine, seed=seed)
        start = time.perf_counter()
        spec.replay(board, trace.words)
        seconds_all.append(time.perf_counter() - start)
        digest = statistics_digest(board.statistics())
    return seconds_all, digest


def run_replay_benchmark(
    n_records: int = DEFAULT_RECORDS,
    seed: int = 2000,
    machine=None,
    trace: Optional[BusTrace] = None,
    repeats: int = 1,
) -> dict:
    """Measure scalar and compiled replay of one trace.

    Returns a JSON-ready report: per-engine ``records_per_second`` and
    ``seconds`` (best of ``repeats``), every raw sample in
    ``seconds_all``, the ``statistics_digest`` of each run, ``identical``
    (all digests equal) and ``compiled_speedup`` over scalar — the
    numbers ``BENCH_replay.json`` records.
    """
    if machine is None:
        machine = bench_machine()
    if trace is None:
        trace = bench_trace(n_records, seed)
    n_records = len(trace)

    seconds_all: dict = {}
    digests: dict = {}
    for engine in ("scalar", "compiled"):
        seconds_all[engine], digests[engine] = _timed_board_engine(
            machine, trace, seed, engine, repeats
        )

    best = {name: min(samples) for name, samples in seconds_all.items()}
    return {
        "records": n_records,
        "seed": seed,
        "machine": machine.name,
        "repeats": max(repeats, 1),
        "engines": {
            name: {
                "seconds": seconds,
                "seconds_all": seconds_all[name],
                "records_per_second": n_records / seconds if seconds else 0.0,
                "statistics_digest": digests[name],
            }
            for name, seconds in best.items()
        },
        "identical": len(set(digests.values())) == 1,
        "compiled_speedup": (
            best["scalar"] / best["compiled"] if best["compiled"] else 0.0
        ),
    }
