"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload split4-oltp --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run and prints the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is run from ``src/``; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("split4-oltp", "sweep4-profile", "service-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: program source not found under {source}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.workload == "service-mix":
        import service_mix

        result = service_mix.run(
            args.seed, args.seconds, bool(args.trace), ROOT
        )
    else:
        import replay

        result = replay.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )

    values = dict(result["end_to_end"])
    # ru_maxrss is in KiB on Linux: the benchmark process's own peak,
    # which holds every board and, for service-mix, the service itself.
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if args.trace:
        values = result["per_layer"]
    group = spec["per_layer" if args.trace else "end_to_end"]
    missing = [item["name"] for item in group if item["name"] not in values]
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}",
              file=sys.stderr)
        return 1
    print(result["summary"])
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            item["name"]: {"value": values[item["name"]],
                           "unit": item["unit"]}
            for item in group
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
