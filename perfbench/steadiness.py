"""Steadiness proof: run the benchmark over several seeds and report spreads.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workload split4-oltp --seeds 1,2,3,4,5
    python3 perfbench/steadiness.py --workload split4-oltp --seeds 6,7,8 \
        --save set-a.json
    python3 perfbench/steadiness.py --workload split4-oltp --seeds 9,10,11 \
        --against set-a.json
    python3 perfbench/steadiness.py --workload sweep4-profile --seeds 1,2 --trace 1

With ``--trace 0`` it prints, for every end-to-end metric, the median of
the runs and the distance between the first and third quartile as a share
of the median, next to the metric's bound from ``BENCHMARK.json``.
``--save`` writes the runs' metrics to a file; ``--against`` reads such a
file, of an earlier set, and adds how far each median moved from that
set's, as a share of it, in the direction that is worse.  With
``--trace 1`` it runs every seed twice and checks that every count the
traced run reports (``memories.*`` counts, ``telemetry.windows``,
``supervisor.*`` counts) repeats exactly for the same seed.  Exits 1 when
a run fails, reports a failed operation, or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fixed_by_seed(name: str, unit: str) -> bool:
    """Counts, and ratios of counts, that the seed alone determines.
    Ingest stalls depend on timing, so they are left out."""
    return (unit == "count" and not name.startswith("service.")) or name in (
        "memories.snoops_per_tenure", "memories.snoop_useful_ratio",
    )


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    print(f"seed {seed}: {lines[-2]}", flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, e.g. 1,2,3")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path,
                        help="write the runs' metrics to this file")
    parser.add_argument("--against", type=Path,
                        help="an earlier set's --save file to compare with")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(seed) for seed in args.seeds.split(",")]

    ok = True
    results = {}
    for seed in seeds:
        repeats = 2 if args.trace else 1
        runs = [run_once(args.workload, seed, spec["run_seconds"], args.trace)
                for _ in range(repeats)]
        for result in runs:
            if not result["correct"] or result["failed"]:
                print(f"seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
                ok = False
        if args.trace:
            counts = [
                {name: metric["value"]
                 for name, metric in result["metrics"].items()
                 if fixed_by_seed(name, metric["unit"])}
                for result in runs
            ]
            same = counts[0] == counts[1]
            print(f"seed {seed}: counts repeat exactly: {same}")
            ok = ok and same
        results[seed] = runs[0]["metrics"]

    if args.save:
        args.save.write_text(json.dumps(list(results.values())))
    earlier = json.loads(args.against.read_text()) if args.against else None
    if not args.trace:
        print(f"{'metric':18s} {'median':>12s} {'iqr/median':>10s} bound  "
              + ("worse-than-earlier  " if earlier else "")
              + "values by seed")
        for item in spec["end_to_end"]:
            values = [results[seed][item["name"]]["value"] for seed in seeds]
            median = statistics.median(values)
            low, _, high = statistics.quantiles(values, n=4)
            moved = ""
            if earlier:
                before = statistics.median(
                    run[item["name"]]["value"] for run in earlier
                )
                sign = 1 if item["better"] == "lower" else -1
                moved = f"{sign * (median - before) / before:+18.4f}  "
            print(f"{item['name']:18s} {median:12.6g} "
                  f"{(high - low) / median:10.4f} {item['bound']:<5} "
                  + moved + " ".join(f"{value:.4g}" for value in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
