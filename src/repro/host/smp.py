"""Assembly of the host SMP machine.

:class:`HostSMP` wires processors, their snooping L2s, the memory controller
and optional I/O bridges onto one 6xx bus, then drives workload reference
streams through the machine.  A MemorIES board is attached to the same bus
with :meth:`HostSMP.plug_in` — exactly the physical arrangement in Figure 2
of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.bus.bus import Monitor, SystemBus
from repro.bus.trace import iter_rows
from repro.bus.transaction import MAX_PROCESSOR_ID, BusCommand, BusTransaction
from repro.common.errors import ConfigurationError
from repro.common.units import GB, MB
from repro.host.cache import SnoopingCache
from repro.host.memory import MemoryController
from repro.host.processor import Processor

#: Bus ID of the (single) modeled I/O bridge.
IO_BRIDGE_ID = 16


@dataclass(frozen=True)
class HostConfig:
    """Configuration of the host machine.

    Defaults describe the paper's 8-way IBM S7A: 262 MHz Northstar-class
    processors, 8 MB 4-way set-associative L2s with 128 B lines, a 100 MHz
    6xx bus and 16 GB of memory.  The S7A allows reconfiguring the L2 at
    boot time down to 1 MB direct-mapped (Section 5), which experiments do
    by constructing a host with different ``l2_size`` / ``l2_assoc``.
    """

    n_cpus: int = 8
    cpu_hz: int = 262_000_000
    l2_size: int = 8 * MB
    l2_assoc: int = 4
    line_size: int = 128
    bus_hz: int = 100_000_000
    memory_bytes: int = 16 * GB
    #: Optional on-chip L1 in front of each L2 (0 = disabled, the default:
    #: workload generators emit L1-miss streams already; see repro.host.l1).
    l1_size: int = 0
    l1_assoc: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.n_cpus <= MAX_PROCESSOR_ID + 1:
            raise ConfigurationError(
                f"host supports 1..{MAX_PROCESSOR_ID + 1} CPUs, got {self.n_cpus}"
            )


#: The paper's host machine (Section 5).
S7A_HOST = HostConfig()


class IoBridge:
    """An I/O bridge issuing DMA and I/O-register tenures.

    The address-filter FPGA must discard I/O register tenures; DMA reads and
    writes, in contrast, are coherent-memory traffic that the emulated caches
    do see (the paper mentions measuring "the effect of I/O on hit ratio").
    """

    def __init__(self, bus: SystemBus, bus_id: int = IO_BRIDGE_ID) -> None:
        self.bus = bus
        self.bus_id = bus_id
        self.dma_reads = 0
        self.dma_writes = 0
        self.register_ops = 0

    def dma_read(self, address: int) -> None:
        """Issue a coherent DMA read."""
        self.dma_reads += 1
        self.bus.issue(BusTransaction(self.bus_id, BusCommand.READ, address))

    def dma_write(self, address: int) -> None:
        """Issue a DMA write (modeled as a castout-style write to memory)."""
        self.dma_writes += 1
        self.bus.issue(BusTransaction(self.bus_id, BusCommand.CASTOUT, address))

    def register_access(self, address: int, is_write: bool) -> None:
        """Issue an I/O register tenure (filtered by the board)."""
        self.register_ops += 1
        command = BusCommand.IO_WRITE if is_write else BusCommand.IO_READ
        self.bus.issue(BusTransaction(self.bus_id, command, address))


class HostSMP:
    """The running host machine.

    Example:
        >>> from repro.host import HostSMP, HostConfig
        >>> host = HostSMP(HostConfig(n_cpus=2, l2_size=1 << 20, l2_assoc=2))
        >>> host.processors[0].reference(0x1000, is_write=False)
        False

    Args:
        config: machine parameters; defaults to the paper's S7A.
    """

    def __init__(self, config: HostConfig = S7A_HOST) -> None:
        self.config = config
        self.bus = SystemBus(clock_hz=config.bus_hz)
        self.memory = MemoryController(capacity=config.memory_bytes)
        self.bus.attach_monitor(self.memory)
        self.processors: List[Processor] = []
        for cpu_id in range(config.n_cpus):
            l2 = SnoopingCache(
                cpu_id=cpu_id,
                bus=self.bus,
                size=config.l2_size,
                assoc=config.l2_assoc,
                line_size=config.line_size,
            )
            self.bus.attach_snooper(l2)
            l1 = None
            if config.l1_size > 0:
                from repro.host.l1 import L1Cache

                l1 = L1Cache(
                    l2,
                    size=config.l1_size,
                    assoc=config.l1_assoc,
                    line_size=config.line_size,
                )
            self.processors.append(Processor(cpu_id=cpu_id, l2=l2, l1=l1))
        self.io_bridge = IoBridge(self.bus)

    def plug_in(self, board: Monitor) -> None:
        """Plug a MemorIES board into the 6xx bus (passive monitor)."""
        self.bus.attach_monitor(board)

    def unplug(self, board: Monitor) -> None:
        """Remove a previously plugged board."""
        self.bus.detach_monitor(board)

    def run_chunk(
        self,
        cpu_ids: np.ndarray,
        addresses: np.ndarray,
        is_writes: np.ndarray,
    ) -> None:
        """Drive one chunk of references through the machine.

        Arrays must be equal length; ``cpu_ids[i]`` issues reference ``i``.
        This is the host-side hot loop; it deliberately avoids per-reference
        object allocation.
        """
        processors = self.processors
        n_cpus = len(processors)
        # Per-CPU access entry points: the L1 when configured, else the L2.
        access_of = [
            (p.l1.access if p.l1 is not None else p.l2.access) for p in processors
        ]
        for cpu_id, address, is_write in iter_rows(cpu_ids, addresses, is_writes):
            if cpu_id >= n_cpus:
                raise ConfigurationError(
                    f"workload references CPU {cpu_id} on a {n_cpus}-way host"
                )
            processors[cpu_id].references_issued += 1
            access_of[cpu_id](address, bool(is_write))

    def run(
        self,
        chunks: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        max_references: Optional[int] = None,
    ) -> int:
        """Drive a workload's chunk stream; returns references executed."""
        executed = 0
        for cpu_ids, addresses, is_writes in chunks:
            if max_references is not None:
                remaining = max_references - executed
                if remaining <= 0:
                    break
                if len(cpu_ids) > remaining:
                    cpu_ids = cpu_ids[:remaining]
                    addresses = addresses[:remaining]
                    is_writes = is_writes[:remaining]
            self.run_chunk(cpu_ids, addresses, is_writes)
            executed += len(cpu_ids)
        return executed

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #

    def total_references(self) -> int:
        """References issued across all CPUs."""
        return sum(p.references_issued for p in self.processors)

    def total_l2_misses(self) -> int:
        """L2 misses across all CPUs."""
        return sum(p.l2.stats.misses for p in self.processors)

    def aggregate_miss_ratio(self) -> float:
        """Machine-wide L2 miss ratio."""
        refs = self.total_references()
        if refs == 0:
            return 0.0
        return self.total_l2_misses() / refs
