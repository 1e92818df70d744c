#!/usr/bin/env python
"""CI smoke gate for the fast replay engine (compiled).

Runs the replay throughput benchmark at CI scale and enforces the hard
contract — **scalar and compiled replay must produce bit-identical board
statistics** — plus a throughput floor: compiled must run at least
``MIN_SPEEDUP`` times as fast as scalar, the bar
``benchmarks/bench_replay_throughput.py`` asserts too.  The floor proves
the protocol runner engaged: a silent fallback to the generic runner
runs only about 1.2x as fast as scalar, the protocol runner over 20x.

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

from repro.experiments.replay_bench import run_replay_benchmark

RECORDS = 60_000
SEED = 2000
REPEATS = 3
MIN_SPEEDUP = 3.0


def main() -> int:
    smoke = SmokeChecks("bench")
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
        ", ".join(
            f"{name}={entry['statistics_digest'][:12]}"
            for name, entry in report["engines"].items()
        ),
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
