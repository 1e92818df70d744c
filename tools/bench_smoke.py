#!/usr/bin/env python
"""CI smoke gate for the fast replay engine (compiled).

Runs the replay throughput benchmark at CI scale and enforces the hard
contract — **scalar and compiled replay must produce bit-identical board
statistics** — plus a throughput floor: compiled must run at least
``MIN_SPEEDUP`` times as fast as scalar, the bar
``benchmarks/bench_replay_throughput.py`` asserts too.  The floor proves
the protocol runner engaged: a silent fallback to the generic runner
runs only about 1.2x as fast as scalar, the protocol runner over 20x.
A second, smaller run on sweep4, the multi-configuration board of four
cache designs each in its own coherence group, requires the same digest
identity where the compiled engine steps every group's set lanes, and
the same records replayed under a 100-transaction sampler (Figure 10's
profiling mode) must give both engines identical sample records and
statistics: the compiled engine commits each window from one replay.
Both boards must also have a protocol runner, every group on its set
lanes: sweep4 has no speed floor, and digest identity alone would not
notice a board sent to the generic runner.

Timings are best-of-``REPEATS`` with every raw sample recorded in
``BENCH_replay.json`` (a single-shot number once drifted a recorded
speedup from ~4x to 3.59x by scheduler noise alone), and the report is
written for the artifact upload.

Exit status is non-zero on any violation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from _smoke import SmokeChecks

from repro.engines import ENGINES
from repro.experiments.replay_bench import (
    bench_machine,
    bench_trace,
    run_replay_benchmark,
)
from repro.memories.board import board_for_machine
from repro.memories.compiled import _protocol_runner
from repro.memories.config import CacheNodeConfig
from repro.target.configs import multi_config_machine
from repro.telemetry import CounterSampler, MemorySink

RECORDS = 60_000
SEED = 2000
REPEATS = 3
MIN_SPEEDUP = 3.0
#: sweep4 replays every record on four caches, so scalar runs it slower.
MULTI_RECORDS = 20_000
#: The sampler cadence of the profiled sweep4 replay, in transactions.
PROFILE_EVERY = 100


def sweep4_machine():
    """Four cache designs of Figure 4, each in its own coherence group."""
    return multi_config_machine(
        [
            CacheNodeConfig(size=512 << 10, assoc=2, line_size=128),
            CacheNodeConfig(size=1 << 20, assoc=4, line_size=128,
                            replacement="plru"),
            CacheNodeConfig(size=2 << 20, assoc=8, line_size=128,
                            replacement="fifo"),
            CacheNodeConfig(size=4 << 20, assoc=4, line_size=128),
        ],
        n_cpus=8,
        name="sweep4",
    )


def digests(report) -> str:
    return ", ".join(
        f"{name}={entry['statistics_digest'][:12]}"
        for name, entry in report["engines"].items()
    )


def profiled(engine: str, machine, words):
    """Replay ``words`` on ``engine`` under a ``PROFILE_EVERY`` sampler;
    returns the sample records and the board's statistics."""
    sink = MemorySink()
    board = board_for_machine(machine, seed=SEED)
    board.attach_telemetry(
        CounterSampler(sink, every_transactions=PROFILE_EVERY)
    )
    ENGINES[engine].replay(board, words)
    board.telemetry.finish(board)
    return sink.records, board.statistics()


def main() -> int:
    smoke = SmokeChecks("bench")
    for name, machine in (("split4", bench_machine()),
                          ("sweep4", sweep4_machine())):
        board = board_for_machine(machine, seed=SEED)
        smoke.check(
            f"{name}: every coherence group replays on its set lanes",
            _protocol_runner(board.firmware) is not None,
            f"{len(machine.groups())} group(s)",
        )
    report = run_replay_benchmark(RECORDS, seed=SEED, repeats=REPEATS)
    for name, entry in report["engines"].items():
        spread = max(entry["seconds_all"]) - min(entry["seconds_all"])
        print(
            f"{name:8s}: {entry['records_per_second']:12,.0f} records/s "
            f"(best of {report['repeats']}, spread {spread:.3f}s) "
            f"digest {entry['statistics_digest'][:16]}…"
        )
    smoke.check(
        "scalar and compiled statistics bit-identical",
        report["identical"],
        digests(report),
    )
    multi = run_replay_benchmark(
        MULTI_RECORDS, seed=SEED, machine=sweep4_machine()
    )
    smoke.check(
        "sweep4: scalar and compiled statistics bit-identical",
        multi["identical"],
        digests(multi),
    )
    words = bench_trace(MULTI_RECORDS, SEED).words
    (scalar_records, scalar_stats), (fast_records, fast_stats) = (
        profiled(engine, sweep4_machine(), words)
        for engine in ("scalar", "compiled")
    )
    smoke.check(
        f"sweep4, {PROFILE_EVERY}-transaction sampler: identical sample "
        "records and statistics",
        scalar_records == fast_records and scalar_stats == fast_stats,
        f"{len(scalar_records)} against {len(fast_records)} records",
    )
    smoke.check(
        f"compiled path at least {MIN_SPEEDUP:g}x faster than scalar",
        report["compiled_speedup"] >= MIN_SPEEDUP,
        f"{report['compiled_speedup']:.2f}x",
    )
    out = Path(__file__).resolve().parent.parent / "BENCH_replay.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return smoke.finish()


if __name__ == "__main__":
    sys.exit(main())
