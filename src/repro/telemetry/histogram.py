"""Deterministic fixed-bucket latency histograms.

The paper's DIMM firmware histograms memory traffic in real time with a
*fixed* bucket layout burned into the FPGA bitstream; the reproduction
keeps the same discipline in software.  A :class:`Histogram` is born with
an immutable, strictly increasing bucket boundary tuple plus an implicit
``+Inf`` overflow bucket, so two runs that observe the same values render
byte-identical Prometheus exposition — no adaptive resizing, no
growth-by-observation.

Two *domains* are kept segregated, exactly like the reserved ``"wall"``
record key in :mod:`repro.telemetry.sink`:

* ``cycle`` — durations measured on the emulated clock (segment replay
  cycles).  Pure functions of the seed: byte-identical across reruns and
  across kill/resume, and safe to embed at the top level of records.
* ``wall`` — host seconds (queue wait, checkpoint write, backoff).
  Never reproducible; state embedded in records must ride under the
  ``"wall"`` key so :func:`repro.telemetry.sink.strip_wall` removes it
  from deterministic comparisons.

Histogram state checkpoints and restores through ``state_dict`` /
``load_state_dict``, mirroring the :class:`CounterSampler` cursor: a
cycle-domain histogram carried in a run checkpoint survives a worker
SIGKILL without double-counting the replayed-again stretch.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ValidationError

#: Current histogram state-schema revision.
HISTOGRAM_VERSION = 1

#: The two measurement domains; see the module docstring.
DOMAIN_CYCLE = "cycle"
DOMAIN_WALL = "wall"

#: Default wall-domain bounds (seconds): sub-millisecond control-plane
#: hops up to minute-scale queue waits, in a 1-2.5-5 decade ladder.
DEFAULT_WALL_BOUNDS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Default cycle-domain bounds: powers of four from ~1K cycles (a short
#: segment on a small trace) to ~17G cycles (a 30-hour-campaign segment).
DEFAULT_CYCLE_BOUNDS: Tuple[float, ...] = tuple(
    float(4 ** k) for k in range(5, 18)
)

_DOMAIN_BOUNDS = {
    DOMAIN_WALL: DEFAULT_WALL_BOUNDS,
    DOMAIN_CYCLE: DEFAULT_CYCLE_BOUNDS,
}


class Histogram:
    """A fixed-bucket, checkpointable latency histogram.

    Args:
        name: the stage this histogram measures (``segment_replay`` …);
            becomes the ``stage`` label in Prometheus exposition.
        domain: ``"cycle"`` or ``"wall"`` — which clock the observations
            come from.  Determines the default bounds and where embedded
            state may live in telemetry records.
        bounds: optional explicit bucket upper bounds, strictly
            increasing, finite, positive.  An ``+Inf`` overflow bucket is
            always appended implicitly.
    """

    # Slots: a service keeps a finished session's histograms for as long
    # as it runs, so their per-instance cost is paid per session.
    __slots__ = ("name", "domain", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        domain: str = DOMAIN_WALL,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        if not name or not name.replace("_", "").isalnum():
            raise ValidationError(
                f"histogram name {name!r} must be a non-empty "
                f"identifier-like string"
            )
        if domain not in _DOMAIN_BOUNDS:
            raise ValidationError(
                f"histogram domain must be one of "
                f"{sorted(_DOMAIN_BOUNDS)}, got {domain!r}"
            )
        if bounds is None:
            bounds = _DOMAIN_BOUNDS[domain]
        checked: List[float] = []
        for bound in bounds:
            value = float(bound)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(
                    f"histogram bound {bound!r} must be finite and > 0"
                )
            if checked and value <= checked[-1]:
                raise ValidationError(
                    f"histogram bounds must be strictly increasing; "
                    f"{value!r} follows {checked[-1]!r}"
                )
            checked.append(value)
        if not checked:
            raise ValidationError("histogram needs at least one bound")
        self.name = name
        self.domain = domain
        default = _DOMAIN_BOUNDS[domain]
        # The domain's default layout is shared, not copied per instance.
        self.bounds: Tuple[float, ...] = (
            default if tuple(checked) == default else tuple(checked)
        )
        #: Per-bucket observation counts; the final slot is ``+Inf``.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (Prometheus ``le`` semantics: ``<=``)."""
        value = float(value)
        if math.isnan(value):
            raise ValidationError(
                f"histogram {self.name!r} cannot observe NaN"
            )
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts, ``+Inf`` last (equals ``count``)."""
        running = 0
        out: List[int] = []
        for bucket in self.counts:
            running += bucket
            out.append(running)
        return out

    # -- checkpoint / restore (the sampler-cursor pattern) --------------

    def state_dict(self) -> dict:
        """Checkpointable state; restore with :meth:`load_state_dict`."""
        return {
            "v": HISTOGRAM_VERSION,
            "name": self.name,
            "domain": self.domain,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore from :meth:`state_dict` output.

        Raises:
            ValidationError: the state belongs to a histogram with a
                different name, domain, or bucket layout.
        """
        if state.get("name") != self.name or state.get("domain") != self.domain:
            raise ValidationError(
                f"histogram state for "
                f"{state.get('domain')!r}/{state.get('name')!r} does not "
                f"match {self.domain!r}/{self.name!r}"
            )
        bounds = tuple(float(b) for b in state.get("bounds", ()))
        if bounds != self.bounds:
            raise ValidationError(
                f"histogram {self.name!r} state has a different bucket "
                f"layout ({len(bounds)} bound(s) vs {len(self.bounds)})"
            )
        counts = [int(c) for c in state.get("counts", ())]
        if len(counts) != len(self.counts):
            raise ValidationError(
                f"histogram {self.name!r} state has {len(counts)} "
                f"bucket count(s); expected {len(self.counts)}"
            )
        self.counts = counts
        self.sum = float(state.get("sum", 0.0))
        self.count = int(state.get("count", 0))

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "Histogram":
        """Rebuild a histogram entirely from checkpointed state."""
        hist = cls(
            str(state.get("name", "")),
            domain=str(state.get("domain", DOMAIN_WALL)),
            bounds=[float(b) for b in state.get("bounds", ())],
        )
        hist.load_state_dict(state)
        return hist

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        if (
            other.name != self.name
            or other.domain != self.domain
            or other.bounds != self.bounds
        ):
            raise ValidationError(
                f"cannot merge histogram {other.domain!r}/{other.name!r} "
                f"into {self.domain!r}/{self.name!r}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.state_dict() == other.state_dict()

    def __repr__(self) -> str:
        return (
            f"Histogram(name={self.name!r}, domain={self.domain!r}, "
            f"count={self.count}, sum={self.sum!r})"
        )


def split_histogram_states(
    histograms: Iterable[Histogram],
) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Split histogram states into ``(cycle, wall)`` dicts by domain.

    Callers embedding state in telemetry records must place the wall
    dict under the reserved ``"wall"`` key so deterministic encoding
    strips it; the cycle dict is reproducible and rides at top level.
    """
    cycle: Dict[str, dict] = {}
    wall: Dict[str, dict] = {}
    for hist in histograms:
        target = cycle if hist.domain == DOMAIN_CYCLE else wall
        target[hist.name] = hist.state_dict()
    return cycle, wall
