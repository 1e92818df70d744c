"""Interval (time-series) miss-ratio profiling.

Case Study 2 (Figure 10) hinges on MemorIES's ability to watch miss
behaviour "over the entire course of a run, rather than relying on a small
interval of time": the journaling bug shows up as miss-ratio spikes every
~5 minutes, invisible in any 20–60 M-reference trace window.

:func:`profile_replay` replays a trace through a board in fixed-size
intervals, snapshotting each emulated node's counters between intervals and
differencing them into a per-interval miss-ratio series.  Spike detection
(:meth:`IntervalProfile.spike_indices`, :meth:`IntervalProfile.spike_period`)
is what the Figure 10 test uses to confirm periodicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.bus.trace import BusTrace
from repro.common.errors import ConfigurationError
from repro.memories.board import CacheEmulationFirmware, MemoriesBoard


@dataclass
class IntervalProfile:
    """Per-interval miss ratios for one emulated node.

    Attributes:
        node_index: which node controller the series belongs to.
        interval_records: trace records per interval.
        miss_ratios: one entry per interval.
        references: local references observed per interval.
    """

    node_index: int
    interval_records: int
    miss_ratios: List[float] = field(default_factory=list)
    references: List[int] = field(default_factory=list)

    def spike_indices(
        self,
        min_delta: float = 0.01,
        rel_delta: float = 0.5,
        skip: int = 0,
    ) -> List[int]:
        """Intervals whose miss ratio rises clearly above the plateau.

        The threshold is ``median + max(min_delta, rel_delta * (max -
        median))`` over the intervals after ``skip`` — scale-free, so it
        works both for a big cache (low plateau, towering spikes) and a
        small one (a ~90% plateau where a spike is a small additive bump),
        exactly the two curves of Figure 10.

        Args:
            min_delta: smallest absolute rise treated as a spike.
            rel_delta: fraction of the plateau-to-peak excursion a spike
                must reach.
            skip: leading intervals to ignore (cold-start warmup).
        """
        if len(self.miss_ratios) <= skip:
            return []
        values = np.asarray(self.miss_ratios[skip:])
        baseline = float(np.median(values))
        excursion = float(values.max()) - baseline
        threshold = baseline + max(min_delta, rel_delta * excursion)
        return [
            i + skip for i, value in enumerate(values) if value > threshold
        ]

    def spike_period(
        self,
        min_delta: float = 0.01,
        rel_delta: float = 0.5,
        skip: int = 0,
    ) -> Optional[float]:
        """Mean distance between spikes, in intervals (None when < 2 spikes).

        Consecutive above-threshold intervals are merged into one spike
        event before measuring the period, since a burst can straddle an
        interval boundary.
        """
        indices = self.spike_indices(min_delta, rel_delta, skip)
        if not indices:
            return None
        events = [indices[0]]
        for index in indices[1:]:
            if index > events[-1] + 1:
                events.append(index)
            else:
                events[-1] = index  # extend the current event
        if len(events) < 2:
            return None
        gaps = np.diff(events)
        return float(gaps.mean())


def profile_replay(
    board: MemoriesBoard,
    trace: BusTrace,
    interval_records: int,
) -> List[IntervalProfile]:
    """Replay ``trace`` through ``board``, sampling every ``interval_records``.

    Returns one :class:`IntervalProfile` per emulated node.  Requires the
    board to run cache-emulation firmware.
    """
    firmware = board.firmware
    if not isinstance(firmware, CacheEmulationFirmware):
        raise ConfigurationError(
            "interval profiling requires cache-emulation firmware"
        )
    profiles = [
        IntervalProfile(node_index=node.index, interval_records=interval_records)
        for node in firmware.nodes
    ]
    previous = [(node.references(), node.misses()) for node in firmware.nodes]

    for start in range(0, len(trace), interval_records):
        board.replay_words(trace.words[start : start + interval_records])
        for node, profile in zip(firmware.nodes, profiles):
            refs, misses = node.references(), node.misses()
            prev_refs, prev_misses = previous[profile.node_index]
            delta_refs = refs - prev_refs
            delta_misses = misses - prev_misses
            previous[profile.node_index] = (refs, misses)
            profile.references.append(delta_refs)
            profile.miss_ratios.append(
                delta_misses / delta_refs if delta_refs else 0.0
            )
    return profiles
