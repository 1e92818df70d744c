"""Figure 8: L3 miss ratio vs. cache size for different trace lengths.

Case Study 1's first finding: "using too small a trace may suggest that
larger caches (for example, beyond 128MB in TPC-C) have no impact on miss
rate, when in reality larger caches continue to reduce the miss rate", the
short trace over-estimating because cold (startup) misses dominate it.

The reproduction captures one long bus trace per workload (TPC-C and TPC-H,
scaled), derives the shorter traces as its prefixes — exactly what a shorter
collection window would have recorded — and replays each length against a
sweep of emulated L3 sizes, four at a time on multi-configuration boards.

Trace lengths follow the paper's ratios against the scaled footprint: the
long trace covers the working set several times (steady state), the short
trace touches only a fraction of it (cold-dominated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.ascii_chart import render_chart
from repro.analysis.report import render_series
from repro.analysis.stats import MissCurve
from repro.common.units import parse_size
from repro.experiments.params import ExperimentResult, ExperimentScale
from repro.experiments.pipeline import capture_records, l3_size_sweep
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpch import TpchWorkload

#: The paper's TPC-C / TPC-H L3 size sweep (bytes, paper scale).
PAPER_L3_SIZES = ["16MB", "32MB", "64MB", "128MB", "256MB", "512MB", "1GB"]


@dataclass(frozen=True)
class Figure8Settings:
    """Scales and trace lengths for the Figure 8 reproduction."""

    scale: ExperimentScale = ExperimentScale(scale=2048)
    l3_sizes: Sequence[str] = tuple(PAPER_L3_SIZES)
    # TPC-C: paper compares 10 billion vs 20 million references; the short
    # length is exactly the paper's 20M divided by the scale factor, which
    # is what makes its unique footprint land at the paper's ~128MB knee.
    tpcc_long_records: int = 1_200_000
    tpcc_short_records: int = 9_800
    # TPC-H: paper compares 400 billion / 200 billion / 10 billion (40:1).
    tpch_long_records: int = 1_200_000
    tpch_mid_records: int = 700_000
    tpch_short_records: int = 30_000
    seed: int = 3

    @classmethod
    def quick(cls) -> "Figure8Settings":
        return cls(
            scale=ExperimentScale(scale=8192),
            l3_sizes=("16MB", "64MB", "256MB", "1GB"),
            tpcc_long_records=220_000,
            tpcc_short_records=2_400,
            tpch_long_records=220_000,
            tpch_mid_records=130_000,
            tpch_short_records=5_500,
        )


def _sweep_curves(
    trace_by_name: Dict[str, "object"],
    settings: Figure8Settings,
) -> List[MissCurve]:
    configs = [settings.scale.cache(size) for size in settings.l3_sizes]
    curves = []
    for name, trace in trace_by_name.items():
        miss_ratios = l3_size_sweep(
            trace, configs, n_cpus=settings.scale.n_cpus, seed=settings.seed
        )
        curve = MissCurve(name=name)
        for size, ratio in zip(settings.l3_sizes, miss_ratios):
            curve.add(parse_size(size), ratio, label=size)
        curves.append(curve)
    return curves


def run(settings: Optional[Figure8Settings] = None) -> ExperimentResult:
    """Regenerate both panels of Figure 8."""
    settings = settings or Figure8Settings()
    scale = settings.scale
    host_config = scale.host()  # 8 MB 4-way L2, scaled

    # --- TPC-C panel ---------------------------------------------------- #
    tpcc = TpccWorkload(
        db_bytes=scale.scaled_bytes("150GB"),
        n_cpus=scale.n_cpus,
        private_bytes=scale.scaled_bytes("64MB"),
        zipf_exponent=1.05,
        seed=settings.seed,
    )
    tpcc_long = capture_records(tpcc, settings.tpcc_long_records, host_config)
    tpcc_curves = _sweep_curves(
        {
            "long trace (10B-ref analogue)": tpcc_long,
            "short trace (20M-ref analogue)": tpcc_long.head(
                settings.tpcc_short_records
            ),
        },
        settings,
    )

    # --- TPC-H panel ---------------------------------------------------- #
    tpch = TpchWorkload(
        fact_bytes=scale.scaled_bytes("85GB"),
        dim_bytes=scale.scaled_bytes("15GB"),
        n_cpus=scale.n_cpus,
        segment_bytes=scale.scaled_bytes("64MB"),
        seed=settings.seed,
    )
    tpch_long = capture_records(tpch, settings.tpch_long_records, host_config)
    tpch_curves = _sweep_curves(
        {
            "400B-ref analogue": tpch_long,
            "200B-ref analogue": tpch_long.head(settings.tpch_mid_records),
            "10B-ref analogue": tpch_long.head(settings.tpch_short_records),
        },
        settings,
    )

    report = "\n\n".join(
        [
            render_series(
                tpcc_curves,
                title=(
                    "Figure 8 (left): TPC-C L3 miss ratio vs cache size "
                    f"(scale 1/{scale.scale})"
                ),
                x_header="L3 size (paper scale)",
            ),
            render_chart(tpcc_curves),
            render_series(
                tpch_curves,
                title="Figure 8 (right): TPC-H L3 miss ratio vs cache size",
                x_header="L3 size (paper scale)",
            ),
            render_chart(tpch_curves),
        ]
    )
    notes = [
        (
            "trace lengths are prefixes of one capture, scaled to keep the "
            "paper's coverage ratios: the long trace sweeps the working set "
            "several times, the short trace is cold-dominated"
        ),
    ]
    return ExperimentResult(
        name="figure8",
        report=report,
        data={"tpcc": tpcc_curves, "tpch": tpch_curves},
        notes=notes,
    )


if __name__ == "__main__":
    print(run(Figure8Settings.quick()))
