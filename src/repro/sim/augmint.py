"""Execution-driven simulator model (Augmint-like).

Augmint [NMS+96] instruments an application so every memory event traps into
a simulator; the price is a slowdown of two to three orders of magnitude.
:class:`AugmintModel` reproduces that methodology shape: it *executes* a
workload (generating references on the fly, not from a trace — the defining
property of execution-driven simulation), simulates the memory hierarchy on
each reference, and charges a per-event cost against a modeled simulation
host, yielding the simulated-run wall-clock estimates of Table 4.

The per-event cost defaults are calibrated to the paper's own data points
(a 133 MHz simulation host taking 47 minutes for FFT m=20; see
:mod:`repro.sim.timing` for the arithmetic).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.memories.config import CacheNodeConfig
from repro.sim.trace_sim import TraceSimulator, TraceSimResult
from repro.bus.trace import BusTrace, encode_arrays
from repro.workloads.base import Workload

import numpy as np

#: The paper ran Augmint on a 133 MHz machine.
DEFAULT_SIM_HOST_HZ = 133_000_000

#: Modeled simulation-host cycles charged per instrumented memory event.
#: Calibrated so the Table 4 anchors hold (see timing.augmint_runtime_seconds).
DEFAULT_CYCLES_PER_EVENT = 3200

#: Modeled application instructions per memory reference (the simulator also
#: executes the non-memory instructions, cheaply, via binary augmentation).
DEFAULT_CYCLES_PER_INSTRUCTION = 2.0
DEFAULT_REFS_PER_KILO_INSTRUCTION = 330.0


@dataclass
class AugmintResult:
    """Outcome of an execution-driven run.

    Attributes:
        cache: hit/miss counters from the simulated cache.
        events: instrumented memory events processed.
        modeled_seconds: wall-clock the modeled 133 MHz simulation host
            would need (the Table 4 "Execution time of Augmint" quantity).
        measured_seconds: actual wall-clock this Python model spent.
    """

    cache: TraceSimResult
    events: int
    modeled_seconds: float
    measured_seconds: float

    @property
    def modeled_slowdown_vs(self) -> float:
        """Helper for comparisons: modeled seconds per million events."""
        if self.events == 0:
            return 0.0
        return self.modeled_seconds / (self.events / 1e6)


class AugmintModel:
    """Execution-driven simulation of one cache configuration.

    Args:
        config: the simulated shared cache.
        sim_host_hz: clock of the modeled simulation host.
        cycles_per_event: modeled cost of one instrumented memory event.
        refs_per_kilo_instruction: converts references to instruction
            counts for the non-memory execution cost.
    """

    def __init__(
        self,
        config: CacheNodeConfig,
        sim_host_hz: int = DEFAULT_SIM_HOST_HZ,
        cycles_per_event: float = DEFAULT_CYCLES_PER_EVENT,
        cycles_per_instruction: float = DEFAULT_CYCLES_PER_INSTRUCTION,
        refs_per_kilo_instruction: float = DEFAULT_REFS_PER_KILO_INSTRUCTION,
    ) -> None:
        if sim_host_hz <= 0:
            raise ConfigurationError("simulation host clock must be positive")
        self.config = config
        self.sim_host_hz = sim_host_hz
        self.cycles_per_event = cycles_per_event
        self.cycles_per_instruction = cycles_per_instruction
        self.refs_per_kilo_instruction = refs_per_kilo_instruction
        self._cache_sim = TraceSimulator(config)

    def run(
        self,
        workload: Workload,
        n_refs: int,
        chunk_size: int = 65536,
    ) -> AugmintResult:
        """Execute ``n_refs`` of ``workload`` under instrumentation.

        Every reference is simulated against the cache as it is generated
        (execution-driven), then charged the modeled per-event cost.
        """
        started = time.perf_counter()
        totals = TraceSimResult()
        events = 0
        self._cache_sim.reset()
        for cpu_ids, addresses, is_writes in workload.chunks(n_refs, chunk_size):
            commands = np.where(is_writes, 1, 0).astype(np.uint64)  # RWITM / READ
            words = encode_arrays(
                cpu_ids.astype(np.uint64), commands, addresses.astype(np.uint64)
            )
            partial = self._cache_sim.simulate(BusTrace(words), fresh=False)
            events += len(cpu_ids)
            _merge(totals, partial)
        measured = time.perf_counter() - started

        instructions = events * 1000.0 / self.refs_per_kilo_instruction
        modeled_cycles = (
            events * self.cycles_per_event
            + instructions * self.cycles_per_instruction
        )
        return AugmintResult(
            cache=totals,
            events=events,
            modeled_seconds=modeled_cycles / self.sim_host_hz,
            measured_seconds=measured,
        )


def _merge(into: TraceSimResult, part: TraceSimResult) -> None:
    """Accumulate one chunk's counters into the running totals."""
    into.references += part.references
    into.reads += part.reads
    into.writes += part.writes
    into.castouts += part.castouts
    into.read_hits += part.read_hits
    into.write_hits += part.write_hits
    into.castout_hits += part.castout_hits
    into.read_misses += part.read_misses
    into.write_misses += part.write_misses
    into.castout_misses += part.castout_misses
    into.dirty_evictions += part.dirty_evictions
    into.clean_evictions += part.clean_evictions
    into.filtered += part.filtered
    into.elapsed_seconds += part.elapsed_seconds
