"""Extension experiments for the Section 2.3 alternate firmware images.

The paper describes four non-default firmware functions without tabulating
them; these studies give each one a quantitative result:

* :func:`hotspot_study` — plant hot lines in a workload and verify the
  hot-spot profiler ranks them first ("identify hot spots in cache lines or
  in memory pages ... for OS and application tuning").
* :func:`tracer_continuity_study` — compare the board's gap-free capture
  against a logic-analyzer model that must stop the world to dump its
  buffer ("the program that is running must be periodically stopped ...
  MemorIES requires no such stoppage").
* :func:`numa_directory_study` — sweep the sparse-directory size and
  measure eviction-invalidations, the cost knob of sparse directories
  [WEB93].
* :func:`remote_cache_study` — sweep the remote-cache size and measure the
  fraction of remote-home misses it absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.report import render_table
from repro.experiments.params import ExperimentResult, ExperimentScale
from repro.experiments.pipeline import capture_records
from repro.memories.board import MemoriesBoard
from repro.memories.firmware.hotspot import HotSpotFirmware
from repro.memories.firmware.numa_directory import NumaDirectoryFirmware
from repro.memories.firmware.remote_cache import RemoteCacheFirmware
from repro.workloads.osjournal import JOURNAL_BASE, JournalBugOverlay
from repro.workloads.tpcc import TpccWorkload


@dataclass(frozen=True)
class FirmwareStudySettings:
    """Shared knobs for the firmware studies."""

    scale: ExperimentScale = ExperimentScale(scale=1024)
    records: int = 150_000
    seed: int = 41

    @classmethod
    def quick(cls) -> "FirmwareStudySettings":
        return cls(scale=ExperimentScale(scale=2048), records=60_000)


def _tpcc(settings: FirmwareStudySettings) -> TpccWorkload:
    scale = settings.scale
    return TpccWorkload(
        db_bytes=scale.scaled_bytes("150GB"),
        n_cpus=scale.n_cpus,
        private_bytes=scale.scaled_bytes("8MB"),
        p_private=0.05,
        p_common=0.4,
        common_region_bytes=scale.scaled_bytes("48MB"),
        common_write_fraction=0.02,
        affine_region_bytes=scale.scaled_bytes("2GB"),
        zipf_exponent=1.5,
        seed=settings.seed,
    )


# ---------------------------------------------------------------------- #
# Hot-spot identification
# ---------------------------------------------------------------------- #

def hotspot_study(
    settings: Optional[FirmwareStudySettings] = None,
) -> ExperimentResult:
    """Check the profiler attributes heat to the regions we know are hot.

    The TPC-C generator has ground truth built in: the per-process private
    scratch regions take frequent *writes*, while the shared common working
    set (index upper levels) is *read*-hot and nearly write-free.  A
    correct profiler must rank private pages at the top of the write table
    and common-region pages at the top of the read table — the separation
    an OS tuner would act on.
    """
    settings = settings or FirmwareStudySettings()
    workload = _tpcc(settings)
    trace = capture_records(workload, settings.records, settings.scale.host())

    firmware = HotSpotFirmware(granularity_bytes=4096)
    MemoriesBoard(firmware).replay(trace)

    private_limit = workload._db_base  # private regions precede the database
    common_limit = (
        workload._db_base + workload.common_region_lines * 128
    )

    def origin_of(region: int) -> str:
        address = firmware.region_address(region)
        if address < private_limit:
            return "private scratch"
        if address < common_limit:
            return "common working set"
        return "database (affine)"

    top_writes = firmware.hottest(10, kind="writes")
    top_reads = firmware.hottest(10, kind="reads")
    writes_private = sum(
        1 for region, _count in top_writes if origin_of(region) == "private scratch"
    )
    reads_common = sum(
        1
        for region, _count in top_reads
        if origin_of(region) == "common working set"
    )

    rows = [
        ["writes", f"{firmware.region_address(r):#012x}", c, origin_of(r)]
        for r, c in top_writes[:5]
    ] + [
        ["reads", f"{firmware.region_address(r):#012x}", c, origin_of(r)]
        for r, c in top_reads[:5]
    ]
    table = render_table(
        ["table", "page", "touches", "origin"],
        rows,
        title="Hot-spot firmware: hottest pages by access type",
    )
    notes = [
        f"{writes_private}/10 hottest write pages are private scratch and "
        f"{reads_common}/10 hottest read pages are the common working set — "
        "the read/write separation the Section 2.3 tuning use case needs",
    ]
    return ExperimentResult(
        "hotspot_study",
        table,
        {
            "writes_private": writes_private,
            "reads_common": reads_common,
            "top_writes": top_writes,
            "top_reads": top_reads,
        },
        notes,
    )


# ---------------------------------------------------------------------- #
# Gap-free trace collection vs a logic analyzer
# ---------------------------------------------------------------------- #

def tracer_continuity_study(
    settings: Optional[FirmwareStudySettings] = None,
    analyzer_buffer: int = 8_192,
    dump_gap_records: int = 24_576,
) -> ExperimentResult:
    """Quantify what a stop-and-dump logic analyzer misses.

    The analyzer model fills its small buffer, then goes blind for the
    records that pass while it dumps to disk; MemorIES records everything.
    The study injects periodic journal bursts and counts how many bursts
    each tool observed.
    """
    settings = settings or FirmwareStudySettings()
    base = _tpcc(settings)
    period = 15_000
    workload = JournalBugOverlay(base, period_refs=period, burst_refs=800)
    trace = capture_records(workload, settings.records, settings.scale.host())

    _cpus, _commands, addresses, _responses = trace.arrays()
    journal_mask = addresses >= JOURNAL_BASE

    def bursts_in(mask: np.ndarray) -> int:
        indices = np.where(mask)[0]
        if indices.size == 0:
            return 0
        return int(1 + (np.diff(indices) > 2_000).sum())

    # The logic analyzer: capture analyzer_buffer records, miss the next
    # dump_gap_records, repeat.
    cycle = analyzer_buffer + dump_gap_records
    positions = np.arange(len(trace))
    analyzer_visible = (positions % cycle) < analyzer_buffer

    board_bursts = bursts_in(journal_mask)
    analyzer_bursts = bursts_in(journal_mask & analyzer_visible)
    coverage = analyzer_visible.mean()

    table = render_table(
        ["collector", "records captured", "journal bursts seen"],
        [
            ["MemorIES (gap-free)", f"{len(trace):,}", board_bursts],
            [
                f"logic analyzer ({analyzer_buffer // 1024}K buffer)",
                f"{int(analyzer_visible.sum()):,}",
                analyzer_bursts,
            ],
        ],
        title="Trace collection: continuous capture vs stop-and-dump",
    )
    notes = [
        f"the analyzer sees only {coverage:.0%} of the bus and "
        f"{analyzer_bursts}/{board_bursts} of the periodic bursts — gaps are "
        "exactly where Figure 10-class phenomena hide",
    ]
    return ExperimentResult(
        "tracer_continuity",
        table,
        {
            "board_bursts": board_bursts,
            "analyzer_bursts": analyzer_bursts,
            "coverage": float(coverage),
        },
        notes,
    )


# ---------------------------------------------------------------------- #
# Sparse-directory sizing
# ---------------------------------------------------------------------- #

def numa_directory_study(
    settings: Optional[FirmwareStudySettings] = None,
    entry_counts: Sequence[int] = (256, 1024, 4096, 16384),
) -> ExperimentResult:
    """Sweep sparse-directory capacity; measure eviction invalidations."""
    settings = settings or FirmwareStudySettings()
    trace = capture_records(
        _tpcc(settings), settings.records, settings.scale.host()
    )
    cpu_nodes = [cpu % 4 for cpu in range(settings.scale.n_cpus)]
    rows: List[List[object]] = []
    data = {}
    for entries in entry_counts:
        firmware = NumaDirectoryFirmware(
            l3_config=settings.scale.cache("64MB"),
            cpu_nodes=cpu_nodes,
            sparse_entries=entries,
        )
        MemoriesBoard(firmware).replay(trace)
        counters = firmware.counters
        refs = counters.read("l3.hits") + counters.read("l3.misses")
        evictions = counters.read("sparse.evictions")
        invalidations = counters.read("invalidations.sent")
        miss_ratio = counters.read("l3.misses") / refs if refs else 0.0
        rows.append(
            [
                entries,
                evictions,
                invalidations,
                f"{miss_ratio * 100:.2f}%",
                f"{firmware.remote_access_fraction():.1%}",
            ]
        )
        data[entries] = {
            "evictions": evictions,
            "invalidations": invalidations,
            "miss_ratio": miss_ratio,
        }
    table = render_table(
        [
            "sparse entries",
            "directory evictions",
            "invalidations sent",
            "L3 miss ratio",
            "remote accesses",
        ],
        rows,
        title="NUMA sparse-directory sizing (4 home nodes)",
    )
    notes = [
        "a too-sparse directory evicts live entries and invalidates cached "
        "lines, inflating the miss ratio — the sizing trade-off of [WEB93]",
    ]
    return ExperimentResult("numa_directory_study", table, data, notes)


# ---------------------------------------------------------------------- #
# Remote-cache sizing
# ---------------------------------------------------------------------- #

def remote_cache_study(
    settings: Optional[FirmwareStudySettings] = None,
    sizes: Sequence[str] = ("8MB", "32MB", "128MB", "512MB"),
) -> ExperimentResult:
    """Sweep the remote-cache size; measure remote-miss absorption."""
    settings = settings or FirmwareStudySettings()
    trace = capture_records(
        _tpcc(settings), settings.records, settings.scale.host()
    )
    cpu_nodes = [cpu % 4 for cpu in range(settings.scale.n_cpus)]
    rows: List[List[object]] = []
    data = {}
    for size in sizes:
        firmware = RemoteCacheFirmware(
            l3_config=settings.scale.cache("16MB"),
            remote_config=settings.scale.cache(size),
            cpu_nodes=cpu_nodes,
        )
        MemoriesBoard(firmware).replay(trace)
        hit_ratio = firmware.remote_hit_ratio()
        rows.append(
            [
                size,
                firmware.counters.read("remote.references"),
                f"{hit_ratio:.1%}",
            ]
        )
        data[size] = hit_ratio
    table = render_table(
        ["remote cache (paper scale)", "remote-home L3 misses", "absorbed"],
        rows,
        title="Remote-cache sizing (4 NUMA nodes, 16MB L3s)",
    )
    values = list(data.values())
    notes = [
        f"a larger remote cache absorbs more interconnect trips: "
        f"{values[0]:.1%} -> {values[-1]:.1%} across the sweep",
    ]
    return ExperimentResult("remote_cache_study", table, data, notes)


if __name__ == "__main__":
    quick = FirmwareStudySettings.quick()
    for runner in (
        hotspot_study,
        tracer_continuity_study,
        numa_directory_study,
        remote_cache_study,
    ):
        print(runner(quick))
        print()
