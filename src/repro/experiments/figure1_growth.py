"""Figure 1: L2/L3 cache sizes of high-end servers over time, with projection.

The paper motivates MemorIES with a growth chart: database working sets grew
~10x between 1995 and 1999 (TPC-C 10 GB -> 100 GB, TPC-D/H 10 GB -> 300 GB),
dragging server L2/L3 sizes up with them, and the trend was expected to
continue.  We reproduce the chart from the data the paper itself cites: fit
an exponential to the anchors and project the shaded min/max range forward,
"assuming the current rate of increase in workload demands remains the same".
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.report import render_table
from repro.common.units import GB, MB, format_size
from repro.experiments.params import ExperimentResult

#: Anchors from the paper's text and Table 1: machine L2/L3 capacity per
#: processor in high-end servers (min, max observed that year, bytes).
CACHE_ANCHORS: Dict[int, Tuple[int, int]] = {
    1995: (512 * 1024, 1 * 1024 * 1024),
    1997: (4 * MB, 32 * MB),
    1999: (8 * MB, 32 * MB),
}

#: Workload (database) growth anchors, bytes.
WORKLOAD_ANCHORS: Dict[int, Tuple[int, int]] = {
    1995: (10 * GB, 10 * GB),
    1999: (100 * GB, 300 * GB),
}


def _fit_growth(anchors: Dict[int, Tuple[int, int]]) -> Tuple[float, float]:
    """Least-squares exponential growth rates for the (min, max) series.

    Returns (min_rate, max_rate) as per-year multiplicative factors.
    """
    years = sorted(anchors)
    rates = []
    for index in (0, 1):
        first, last = anchors[years[0]][index], anchors[years[-1]][index]
        span = years[-1] - years[0]
        rates.append((last / first) ** (1.0 / span))
    return rates[0], rates[1]


def projected_range(year: int) -> Tuple[int, int]:
    """Projected (min, max) cache size for ``year`` (>= 1999)."""
    base_year = 1999
    low, high = CACHE_ANCHORS[base_year]
    min_rate, max_rate = _fit_growth(CACHE_ANCHORS)
    span = year - base_year
    return (
        int(low * min_rate ** span),
        int(high * max_rate ** span),
    )


def run(settings: object = None) -> ExperimentResult:
    """Regenerate Figure 1's series: observed ranges plus a projection."""
    min_rate, max_rate = _fit_growth(CACHE_ANCHORS)
    rows: List[List[object]] = []
    for year in sorted(CACHE_ANCHORS):
        low, high = CACHE_ANCHORS[year]
        rows.append([year, format_size(low), format_size(high), "observed"])
    projection: Dict[int, Tuple[int, int]] = {}
    for year in (2001, 2003, 2005):
        low, high = projected_range(year)
        projection[year] = (low, high)
        rows.append([year, format_size(low), format_size(high), "projected"])
    table = render_table(
        ["Year", "L2/L3 min", "L2/L3 max", "Kind"],
        rows,
        title="Figure 1: L2/L3 cache size ranges in server systems",
    )
    # Sanity figure the paper quotes: the board's 8 GB ceiling covers the
    # projected range for several generations.
    years_covered = 0
    year = 1999
    while projected_range(year)[1] <= 8 * GB and year < 2015:
        years_covered += 1
        year += 1
    note = (
        f"cache capacity grows ~{min_rate:.2f}-{max_rate:.2f}x/year; the "
        f"board's 8GB emulation ceiling covers projections through "
        f"{1999 + years_covered - 1}"
    )
    return ExperimentResult(
        name="figure1",
        report=table,
        data={
            "anchors": CACHE_ANCHORS,
            "projection": projection,
            "growth_rates": (min_rate, max_rate),
        },
        notes=[note],
    )


if __name__ == "__main__":
    print(run())
