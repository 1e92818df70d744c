"""The global events counter and buffer FPGA.

Second stage of the board pipeline (Section 3.1): keeps machine-wide event
counters — bus cycles, tenures by command, traffic per requesting bus ID —
and forwards each transaction toward the node controller that owns the
requesting CPU.  The per-command and per-CPU counters are what the console
reads to report bus utilization and read/write ratios.
"""

from __future__ import annotations

import numpy as np

from repro.bus.transaction import BusCommand
from repro.memories.counters import CounterBank

_COMMAND_COUNTER = {
    BusCommand.READ: "bus.reads",
    BusCommand.RWITM: "bus.rwitms",
    BusCommand.DCLAIM: "bus.dclaims",
    BusCommand.CASTOUT: "bus.castouts",
}

#: Command-counter names indexed by raw command int (None = uncounted).
_COMMAND_COUNTER_BY_INT = [
    _COMMAND_COUNTER.get(command)
    for command in (
        BusCommand(i) for i in range(max(int(c) for c in BusCommand) + 1)
    )
]


class GlobalEventsCounter:
    """Global 40-bit counters over the filtered transaction stream."""

    def __init__(self) -> None:
        self.counters = CounterBank(prefix="global")

    def record(self, cpu_id: int, command: BusCommand, cycles_elapsed: float) -> None:
        """Account one forwarded tenure."""
        counters = self.counters
        counters.increment("bus.tenures")
        counters.increment("bus.cycles", int(cycles_elapsed))
        name = _COMMAND_COUNTER.get(command)
        if name is not None:
            counters.increment(name)
        counters.increment(f"cpu.{cpu_id}")

    def record_batch(
        self,
        cpu_ids: np.ndarray,
        commands: np.ndarray,
        cycles_per_tenure: float,
    ) -> None:
        """Account a batch of forwarded tenures sharing one tenure length.

        Counter increments commute, so this is exactly ``record`` applied
        per element — one bulk add per touched counter instead of four
        dict updates per tenure.
        """
        count = int(cpu_ids.shape[0])
        if count == 0:
            return
        counters = self.counters
        counters.increment("bus.tenures", count)
        counters.increment("bus.cycles", count * int(cycles_per_tenure))
        # One bincount by (cpu, command): the decoded fields are 8 and 4
        # bits wide (repro.bus.trace.decode_arrays), so the key fits
        # uint16, and each counter is a sum over one axis.
        key = cpu_ids.astype(np.uint16)
        key <<= 4
        key |= commands
        counts = np.bincount(key, minlength=256 << 4).reshape(-1, 16)
        command_counts = counts.sum(axis=0).tolist()
        for command, name in enumerate(_COMMAND_COUNTER_BY_INT):
            if name is not None and command_counts[command]:
                counters.increment(name, command_counts[command])
        for cpu_id, cpu_count in enumerate(counts.sum(axis=1).tolist()):
            if cpu_count:
                counters.increment(f"cpu.{cpu_id}", cpu_count)

    def read_write_ratio(self) -> float:
        """Reads per write-intent tenure (RWITM + DCLAIM)."""
        counters = self.counters
        writes = counters.read("bus.rwitms") + counters.read("bus.dclaims")
        if writes == 0:
            return float("inf") if counters.read("bus.reads") else 0.0
        return counters.read("bus.reads") / writes

    def snapshot(self) -> dict:
        """Qualified counter dict for console statistics extraction."""
        return self.counters.snapshot()

    def reset(self) -> None:
        """Console re-initialisation."""
        self.counters.reset()

    def state_dict(self) -> dict:
        """Mutable state for board checkpoints."""
        return {"counters": self.counters.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore a checkpointed counter state."""
        self.counters.load_state_dict(state["counters"])
