"""The trace-driven software cache simulator ("the C simulator").

Section 4.1: "A trace-driven C simulator (which was used as one of the
methods to validate the MemorIES design) was used to run varying trace sizes
and the resulting run times compared to that of the MemorIES board."

This module plays that role twice over:

* **Validation** — it is an *independent* implementation of single-node
  shared-cache emulation (its own lookup structures, no code shared with
  :class:`~repro.memories.node_controller.NodeController`).  The integration
  suite cross-checks that both produce identical hit/miss/castout counts on
  identical traces, mirroring how the authors validated the board.
* **Table 3** — :meth:`TraceSimulator.simulate` measures its own wall-clock
  time, giving the measured software-simulation column next to the board's
  analytic real-time column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.bus.trace import BusTrace, iter_decoded
from repro.bus.transaction import BusCommand
from repro.common.addr import log2_int
from repro.common.errors import ConfigurationError
from repro.memories.config import CacheNodeConfig

_READ = int(BusCommand.READ)
_RWITM = int(BusCommand.RWITM)
_DCLAIM = int(BusCommand.DCLAIM)
_CASTOUT = int(BusCommand.CASTOUT)
_MEMORY_COMMANDS = frozenset({_READ, _RWITM, _DCLAIM, _CASTOUT})
_RETRY = 3  # SnoopResponse.RETRY

# Line states, kept deliberately local to this module (independent impl).
_CLEAN = 1
_DIRTY = 2


@dataclass
class TraceSimResult:
    """Outcome of one trace-driven simulation run.

    Attributes mirror the node controller's counters so results can be
    compared field by field.
    """

    references: int = 0
    reads: int = 0
    writes: int = 0
    castouts: int = 0
    read_hits: int = 0
    write_hits: int = 0
    castout_hits: int = 0
    read_misses: int = 0
    write_misses: int = 0
    castout_misses: int = 0
    dirty_evictions: int = 0
    clean_evictions: int = 0
    filtered: int = 0
    elapsed_seconds: float = 0.0

    @property
    def misses(self) -> int:
        """Data misses (reads + writes, castouts excluded)."""
        return self.read_misses + self.write_misses

    @property
    def miss_ratio(self) -> float:
        """Miss ratio over data references."""
        if self.references == 0:
            return 0.0
        return self.misses / self.references

    def counter_view(self) -> Dict[str, int]:
        """Counters named like the node controller's, for cross-validation."""
        return {
            "local.read": self.reads,
            "local.write": self.writes,
            "local.castout": self.castouts,
            "hit.read": self.read_hits,
            "hit.write": self.write_hits,
            "hit.castout": self.castout_hits,
            "miss.read": self.read_misses,
            "miss.write": self.write_misses,
            "miss.castout": self.castout_misses,
            "evict.dirty": self.dirty_evictions,
            "evict.clean": self.clean_evictions,
        }


class TraceSimulator:
    """Single-node, LRU, write-allocate trace-driven cache simulator.

    Deliberately supports exactly what the paper's validation runs needed:
    one shared cache absorbing every processor's filtered memory traffic.
    Multi-node coherent emulation is the board's job.

    Args:
        config: cache geometry; only LRU replacement is supported here
            (the validation baseline predates fancier policies).
        local_cpus: bus IDs whose traffic the cache absorbs; ``None`` means
            every master is local.  Traffic from non-local masters (DMA
            bridges) is treated the way the board treats it: reads demote
            dirty copies, writes invalidate.
    """

    def __init__(
        self,
        config: CacheNodeConfig,
        local_cpus: Optional[frozenset] = None,
    ) -> None:
        config.validate_geometry()
        if config.replacement != "lru":
            raise ConfigurationError(
                "the C simulator models LRU only; "
                f"got {config.replacement!r}"
            )
        self.config = config
        self.local_cpus = local_cpus
        self._offset_bits = log2_int(config.line_size)
        self._set_mask = config.num_sets - 1
        # sets[i] maps tag -> state, insertion-ordered; Python dicts preserve
        # insertion order, so "delete + reinsert on touch" gives exact LRU
        # (LRU victim at the front, MRU at the back).
        self._sets: list[dict] = [dict() for _ in range(config.num_sets)]

    def reset(self) -> None:
        """Invalidate the simulated cache."""
        for cache_set in self._sets:
            cache_set.clear()

    def simulate(self, trace: BusTrace, fresh: bool = True) -> TraceSimResult:
        """Run a trace; returns counters plus measured wall time.

        Args:
            trace: the packed bus trace to consume.
            fresh: start from an empty cache (default).  Pass False to
                continue from the previous call's state — the
                execution-driven model feeds chunks incrementally this way.
        """
        if fresh:
            self.reset()
        result = TraceSimResult()
        offset_bits = self._offset_bits
        set_mask = self._set_mask
        assoc = self.config.assoc
        sets = self._sets

        local_cpus = self.local_cpus
        started = time.perf_counter()
        for cpu_id, command, address, response in iter_decoded(trace.words):
            if command not in _MEMORY_COMMANDS or response == _RETRY:
                result.filtered += 1
                continue
            line = address >> offset_bits
            cache_set = sets[line & set_mask]
            tag = line  # the full line number doubles as the tag key

            if local_cpus is not None and cpu_id not in local_cpus:
                # Foreign master: reads demote dirty data; ownership claims
                # and DMA writes invalidate; an unmapped *processor's*
                # castout goes to memory and touches nothing — mirroring
                # the board's remote-op routing.
                if command == _CASTOUT and cpu_id <= 15:
                    continue
                state = cache_set.get(tag)
                if state is None:
                    continue
                if command == _READ:
                    if state == _DIRTY:
                        cache_set[tag] = _CLEAN
                else:
                    del cache_set[tag]
                continue

            if command == _READ:
                result.reads += 1
                is_write = False
            elif command == _CASTOUT:
                result.castouts += 1
                is_write = True
            else:
                result.writes += 1
                is_write = True

            state = cache_set.get(tag)
            if state is not None:
                if command == _READ:
                    result.read_hits += 1
                elif command == _CASTOUT:
                    result.castout_hits += 1
                else:
                    result.write_hits += 1
                # Refresh LRU position; promote to dirty on writes.
                del cache_set[tag]
                cache_set[tag] = _DIRTY if (is_write or state == _DIRTY) else _CLEAN
                continue

            if command == _READ:
                result.read_misses += 1
            elif command == _CASTOUT:
                result.castout_misses += 1
            else:
                result.write_misses += 1
            if len(cache_set) >= assoc:
                victim_tag = next(iter(cache_set))
                victim_state = cache_set.pop(victim_tag)
                if victim_state == _DIRTY:
                    result.dirty_evictions += 1
                else:
                    result.clean_evictions += 1
            cache_set[tag] = _DIRTY if is_write else _CLEAN

        result.elapsed_seconds = time.perf_counter() - started
        result.references = result.reads + result.writes
        return result

    def throughput_refs_per_second(self, result: TraceSimResult) -> float:
        """Measured simulation speed of the last run."""
        total = result.references + result.castouts + result.filtered
        if result.elapsed_seconds <= 0:
            return float("inf")
        return total / result.elapsed_seconds


def main(argv=None) -> int:
    """Command-line trace-driven simulation (a dineroIV-style front end).

    Usage::

        python -m repro.sim.trace_sim TRACE --size 64MB [--assoc 4]
            [--line 128] [--cpus 0,1,2,3]

    Prints the hit/miss breakdown, the measured simulation speed, and —
    for the Table 3 comparison — the wall-clock time the real board would
    have taken for the same trace.
    """
    import argparse

    from repro.bus.trace import TraceReader
    from repro.common.units import parse_size
    from repro.sim.timing import memories_runtime_seconds

    parser = argparse.ArgumentParser(
        prog="repro.sim.trace_sim", description=main.__doc__
    )
    parser.add_argument("trace", help="trace file written by TraceWriter")
    parser.add_argument("--size", required=True, help="cache size, e.g. 64MB")
    parser.add_argument("--assoc", type=int, default=4)
    parser.add_argument("--line", type=int, default=128)
    parser.add_argument(
        "--cpus",
        default=None,
        help="comma-separated local CPU IDs (default: all masters local)",
    )
    args = parser.parse_args(argv)

    local_cpus = (
        frozenset(int(c) for c in args.cpus.split(",")) if args.cpus else None
    )
    config = CacheNodeConfig(
        size=parse_size(args.size), assoc=args.assoc, line_size=args.line
    )
    config.validate_geometry()
    trace = TraceReader(args.trace).load()
    simulator = TraceSimulator(config, local_cpus=local_cpus)
    result = simulator.simulate(trace)

    print(f"trace     : {args.trace} ({len(trace):,} records)")
    print(f"cache     : {args.size} {args.assoc}-way, {args.line}B lines")
    for name, value in result.counter_view().items():
        print(f"  {name:16s} {value:>12,}")
    print(f"miss ratio: {result.miss_ratio:.4f}")
    print(
        f"simulated in {result.elapsed_seconds:.3f}s "
        f"({simulator.throughput_refs_per_second(result) / 1e6:.2f}M refs/s); "
        f"the board would have taken "
        f"{memories_runtime_seconds(len(trace)):.4f}s of real time"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
