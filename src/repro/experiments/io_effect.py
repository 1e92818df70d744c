"""Extension experiment: the effect of I/O on the emulated hit ratio.

Section 2 lists "effect of I/O on hit ratio" among the statistics the board
collects.  DMA writes arrive on the bus as castout-style tenures from an
I/O bridge (bus ID above the processor range) and **invalidate** cached
copies of the written lines — so disk traffic into the database's buffer
pool steadily erodes the emulated L3's hit ratio.

The experiment runs TPC-C live with a board plugged in, sweeping the DMA
intensity (DMA writes per thousand processor references, landing on
database pages), and reports the L3 miss ratio at each intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.ascii_chart import render_chart
from repro.analysis.report import render_series
from repro.analysis.stats import MissCurve
from repro.experiments.params import ExperimentResult, ExperimentScale
from repro.host.smp import HostSMP
from repro.memories.board import board_for_machine
from repro.target.configs import single_node_machine
from repro.workloads.tpcc import TpccWorkload


@dataclass(frozen=True)
class IoEffectSettings:
    """Scale, DMA sweep and run length."""

    scale: ExperimentScale = ExperimentScale(scale=512)
    l3_size: str = "64MB"
    dma_per_kiloref: Sequence[int] = (0, 10, 40, 120)
    n_refs: int = 150_000
    seed: int = 31

    @classmethod
    def quick(cls) -> "IoEffectSettings":
        return cls(scale=ExperimentScale(scale=1024), n_refs=60_000)


def _run_with_dma(
    settings: IoEffectSettings, dma_per_kiloref: int
) -> float:
    """One live run at a given DMA intensity; returns the L3 miss ratio."""
    scale = settings.scale
    # The Figure 9 TPC-C decomposition: a bounded, read-mostly common
    # working set (the buffer-pool pages the disk also writes into).
    workload = TpccWorkload(
        db_bytes=scale.scaled_bytes("150GB"),
        n_cpus=scale.n_cpus,
        private_bytes=scale.scaled_bytes("8MB"),
        p_private=0.05,
        p_common=0.5,
        common_region_bytes=scale.scaled_bytes("48MB"),
        common_write_fraction=0.02,
        affine_region_bytes=scale.scaled_bytes("2GB"),
        zipf_exponent=1.5,
        seed=settings.seed,
    )
    host = HostSMP(scale.host())
    board = board_for_machine(
        single_node_machine(scale.cache(settings.l3_size), n_cpus=scale.n_cpus),
        seed=settings.seed,
    )
    host.plug_in(board)
    dma_rng = np.random.default_rng(settings.seed + dma_per_kiloref)
    db_base = workload._db_base
    region_lines = workload.common_region_lines

    executed = 0
    for cpu_ids, addresses, is_writes in workload.chunks(settings.n_refs, 8192):
        host.run_chunk(cpu_ids, addresses, is_writes)
        executed += len(cpu_ids)
        # Disk controller writing fresh pages into the buffer pool: DMA
        # writes land on popular database lines (the same heat the CPUs
        # have, which is exactly why they hurt).
        n_dma = (len(cpu_ids) * dma_per_kiloref) // 1000
        if n_dma:
            # The disk refreshes buffer-pool pages: DMA writes land
            # uniformly over the common working set every CPU keeps hot.
            targets = dma_rng.integers(0, region_lines, n_dma)
            for line in targets.tolist():
                host.io_bridge.dma_write(db_base + int(line) * 128)
        if executed >= settings.n_refs:
            break
    return board.firmware.nodes[0].miss_ratio()


def run(settings: Optional[IoEffectSettings] = None) -> ExperimentResult:
    """Sweep DMA intensity and report the emulated miss ratio."""
    settings = settings or IoEffectSettings()
    curve = MissCurve(name=f"{settings.l3_size} L3")
    for intensity in settings.dma_per_kiloref:
        miss_ratio = _run_with_dma(settings, intensity)
        curve.add(float(intensity), miss_ratio, label=f"{intensity}/1k refs")
    report = "\n\n".join(
        [
            render_series(
                [curve],
                title=(
                    "Effect of I/O (DMA writes) on the emulated L3 miss "
                    f"ratio (scale 1/{settings.scale.scale})"
                ),
                x_header="DMA writes per 1000 refs",
            ),
            render_chart([curve]),
        ]
    )
    ys = curve.ys()
    notes = [
        (
            "DMA writes invalidate cached lines, so the miss ratio rises "
            f"monotonically with I/O intensity: {ys[0] * 100:.1f}% with no "
            f"I/O to {ys[-1] * 100:.1f}% at the highest rate"
        )
    ]
    return ExperimentResult(
        name="io_effect",
        report=report,
        data={"curve": curve},
        notes=notes,
    )


if __name__ == "__main__":
    print(run(IoEffectSettings.quick()))
