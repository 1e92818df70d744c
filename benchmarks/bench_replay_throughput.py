"""Benchmark: replay throughput — scalar vs compiled vs sharded.

The compiled replay engine's acceptance bar is a >= 3x records/sec
speedup over the scalar reference path on the standard benchmark
workload.  All three engines must land on bit-identical board
statistics.  The full report (the same shape
``tools/bench_smoke.py`` writes to ``BENCH_replay.json``) goes into
``benchmark.extra_info``.
"""

import json
from pathlib import Path

from conftest import run_once

from repro.experiments.replay_bench import run_replay_benchmark

RECORDS = 150_000
SEED = 2000
SHARDS = 4
REPEATS = 3


def test_bench_replay_throughput(benchmark):
    report = run_once(
        benchmark,
        lambda: run_replay_benchmark(
            RECORDS, seed=SEED, shards=SHARDS, repeats=REPEATS
        ),
    )
    print()
    for name, entry in report["engines"].items():
        print(
            f"{name:8s}: {entry['records_per_second']:12,.0f} records/s "
            f"({entry['seconds'] * 1e3:8.1f} ms, best of {report['repeats']})"
        )
    print(
        f"compiled speedup over scalar: {report['compiled_speedup']:.2f}x; "
        f"statistics identical: {report['identical']}"
    )
    out = Path(__file__).resolve().parent.parent / "BENCH_replay.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    benchmark.extra_info.update(
        {
            "records": report["records"],
            "identical": report["identical"],
            "compiled_speedup": report["compiled_speedup"],
            **{
                f"{name}_records_per_second": entry["records_per_second"]
                for name, entry in report["engines"].items()
            },
        }
    )
    assert report["identical"], "engines disagree on board statistics"
    assert report["compiled_speedup"] >= 3.0, (
        f"compiled replay only {report['compiled_speedup']:.2f}x over scalar"
    )
