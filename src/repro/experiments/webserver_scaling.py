"""Extension experiment: web-server scaling study and projection error.

Two claims of the paper meet here:

* Section 5.3: the board is also meant for "scaling studies involving
  transaction processing, decision support, and **web server workloads**";
* Section 1: absent emulation, designers must make "analytical projections
  of cache statistics from earlier measurements of smaller cache
  configurations ... the accuracy of such predictions would drastically
  decrease as we get into much larger sizes."

The experiment serves a Zipf-popularity fileset at several scales against a
fixed emulated L3, *measures* the miss ratio at each scale, then does what
a designer without MemorIES would do — fit a log-linear projection to the
two smallest configurations and extrapolate — and reports how wrong the
projection gets as the fileset grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.ascii_chart import render_chart
from repro.analysis.report import render_table
from repro.analysis.stats import MissCurve
from repro.common.units import parse_size
from repro.experiments.params import ExperimentResult, ExperimentScale
from repro.experiments.pipeline import capture_records, l3_size_sweep
from repro.workloads.web import WebWorkload


@dataclass(frozen=True)
class WebScalingSettings:
    """Fileset sweep, cache and run length."""

    scale: ExperimentScale = ExperimentScale(scale=1024)
    l3_size: str = "64MB"
    fileset_sizes: Sequence[str] = ("1GB", "4GB", "16GB", "64GB")
    records_per_point: int = 120_000
    files_per_gb: int = 2048
    seed: int = 37

    @classmethod
    def quick(cls) -> "WebScalingSettings":
        return cls(records_per_point=50_000)


def _measure(settings: WebScalingSettings, fileset: str) -> float:
    scale = settings.scale
    fileset_bytes = scale.scaled_bytes(fileset)
    n_files = max(
        64, settings.files_per_gb * parse_size(fileset) // (1 << 30)
    )
    workload = WebWorkload(
        fileset_bytes=fileset_bytes,
        n_files=n_files,
        n_cpus=scale.n_cpus,
        metadata_bytes=scale.scaled_bytes("64MB"),
        buffer_bytes=max(1024, scale.scaled_bytes("8MB")),
        seed=settings.seed,
    )
    trace = capture_records(workload, settings.records_per_point, scale.host())
    (miss_ratio,) = l3_size_sweep(
        trace,
        [scale.cache(settings.l3_size)],
        n_cpus=scale.n_cpus,
        seed=settings.seed,
    )
    return miss_ratio


def run(settings: Optional[WebScalingSettings] = None) -> ExperimentResult:
    """Sweep fileset sizes; compare measurement against projection."""
    settings = settings or WebScalingSettings()
    sizes = [parse_size(s) for s in settings.fileset_sizes]
    measured = MissCurve(name="measured (emulated)")
    for label, size in zip(settings.fileset_sizes, sizes):
        measured.add(float(size), _measure(settings, label), label=label)

    # The designer's projection: log-linear fit through the two smallest
    # configurations, extrapolated to the rest.
    ys = measured.ys()
    x0, x1 = math.log(sizes[0]), math.log(sizes[1])
    slope = (ys[1] - ys[0]) / (x1 - x0)
    projected = MissCurve(name="projected from 2 smallest")
    for label, size in zip(settings.fileset_sizes, sizes):
        value = ys[0] + slope * (math.log(size) - x0)
        projected.add(float(size), min(1.0, max(0.0, value)), label=label)

    rows: List[List[object]] = []
    errors = []
    for point_m, point_p in zip(measured.points, projected.points):
        error = point_p.miss_ratio - point_m.miss_ratio
        errors.append(error)
        rows.append(
            [
                point_m.display_label(),
                f"{point_m.miss_ratio * 100:.2f}%",
                f"{point_p.miss_ratio * 100:.2f}%",
                f"{error * 100:+.2f} points",
            ]
        )
    table = render_table(
        ["fileset (paper scale)", "measured", "projected", "projection error"],
        rows,
        title=(
            f"Web-server scaling study: {settings.l3_size} L3 "
            f"(scale 1/{settings.scale.scale})"
        ),
    )
    report = "\n\n".join([table, render_chart([measured, projected])])
    notes = [
        (
            "the projection is exact at its two anchor points by "
            f"construction; at the largest fileset it is off by "
            f"{abs(errors[-1]) * 100:.1f} points — Section 1's warning about "
            "extrapolating cache statistics"
        )
    ]
    return ExperimentResult(
        name="webserver_scaling",
        report=report,
        data={
            "measured": measured,
            "projected": projected,
            "errors": errors,
        },
        notes=notes,
    )


if __name__ == "__main__":
    print(run(WebScalingSettings.quick()))
