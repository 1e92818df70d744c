"""Transaction buffering and the SDRAM throughput model.

Section 3.3 of the paper: the SDRAM implementing the state/tag/LRU
functions sustains roughly **42% of the maximum 6xx bus bandwidth**.  To
ride out bursts above that rate the board buffers transactions — the address
filter accepts operations at the full 100 MHz bus rate, and each node
controller has a **512-entry** transaction buffer pacing its SDRAM directory
operations.  Only when the buffers are completely full does the address
filter post a **retry** on the bus (the one active thing the otherwise
passive board can do); the authors report this never happened below 42%
sustained utilization.

:class:`TransactionBuffer` models one such queue with a deterministic
service time per operation, measured in bus cycles.

Operations that each find the queue drained settle in closed form
(:meth:`TransactionBuffer.admit_drained`); :meth:`TransactionBuffer.decoupled`
says when a stream of bus tenures does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.errors import ValidationError

#: SDRAM directory throughput as a fraction of peak bus tenure bandwidth.
SDRAM_BANDWIDTH_FRACTION = 0.42

#: Node-controller transaction buffer depth (Section 3.3).
NODE_BUFFER_ENTRIES = 512

#: Address-filter burst buffer depth (absorbs scheduling jitter between the
#: bus and the node controllers; the paper gives no number, sized generously).
FILTER_BUFFER_ENTRIES = 64


def service_cycles_per_op(
    bandwidth_fraction: float = SDRAM_BANDWIDTH_FRACTION,
    tenure_cycles: int = 2,
) -> float:
    """Bus cycles one directory operation occupies the SDRAM.

    A bus that issues one tenure every ``tenure_cycles`` at 100% utilization
    offers ``1/tenure_cycles`` ops/cycle; SDRAM sustains ``bandwidth_fraction``
    of that, i.e. one op per ``tenure_cycles / fraction`` cycles.
    """
    if not 0 < bandwidth_fraction <= 1:
        raise ValidationError(f"bandwidth fraction {bandwidth_fraction} out of (0, 1]")
    return tenure_cycles / bandwidth_fraction


@dataclass
class BufferStats:
    """Occupancy and overflow statistics for one transaction buffer."""

    accepted: int = 0
    rejected: int = 0
    high_water: int = 0
    #: Synthetic operations enqueued by the fault injector (not real work).
    injected: int = 0

    @property
    def ever_rejected(self) -> bool:
        """True if the buffer ever forced a bus retry."""
        return self.rejected > 0


class TransactionBuffer:
    """A fixed-depth queue drained at a deterministic service rate.

    Each accepted operation completes ``service_cycles`` after the later of
    its arrival and the previous operation's completion (a single-server
    deterministic queue).  :meth:`offer` returns False — meaning the board
    must post a retry — only when ``capacity`` operations are still
    in flight.

    Args:
        capacity: queue depth (512 for node controllers).
        service_cycles: bus cycles per directory operation.
    """

    def __init__(
        self,
        capacity: int = NODE_BUFFER_ENTRIES,
        service_cycles: float = service_cycles_per_op(),
    ) -> None:
        if capacity < 1:
            raise ValidationError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.service_cycles = float(service_cycles)
        self.stats = BufferStats()
        self._finish_times: deque[float] = deque()
        self._last_finish = 0.0

    def occupancy(self, now_cycle: float) -> int:
        """Operations still in flight at ``now_cycle``."""
        self._drain(now_cycle)
        return len(self._finish_times)

    def can_accept(self, now_cycle: float) -> bool:
        """True when :meth:`offer` would succeed at ``now_cycle``.

        Side-effect free (beyond draining completed operations, which
        :meth:`offer` would do anyway): the firmware uses this to pre-check
        admission across every involved buffer so a refused tenure leaves
        no partial state behind and can be cleanly retried by the bus
        master.
        """
        self._drain(now_cycle)
        return len(self._finish_times) < self.capacity

    def note_rejection(self) -> None:
        """Account one refused admission decided by an external pre-check."""
        self.stats.rejected += 1

    def inject_occupancy(self, now_cycle: float, ops: int) -> int:
        """Fault injection: enqueue synthetic operations to crowd the queue.

        Models a burst of directory traffic arriving faster than the SDRAM
        drains — the condition that forces the address filter to post bus
        retries.  Synthetic operations are tracked separately from real
        ones (``stats.injected``) so emulation counters stay honest.
        Returns how many were enqueued (capped at the free capacity).
        """
        self._drain(now_cycle)
        room = self.capacity - len(self._finish_times)
        injected = min(max(ops, 0), room)
        start = now_cycle if now_cycle > self._last_finish else self._last_finish
        for _ in range(injected):
            start += self.service_cycles
            self._finish_times.append(start)
        if injected:
            self._last_finish = start
            self.stats.injected += injected
        return injected

    def _drain(self, now_cycle: float) -> None:
        finish_times = self._finish_times
        while finish_times and finish_times[0] <= now_cycle:
            finish_times.popleft()

    def offer(self, now_cycle: float, service_cycles: Optional[float] = None) -> bool:
        """Try to enqueue one operation arriving at ``now_cycle``.

        Returns True when accepted; False when the buffer is full (the
        caller must post a bus retry, which the paper's Section 3.3 notes
        has never been observed in practice below 42% utilization).

        Args:
            now_cycle: arrival time in bus cycles.
            service_cycles: per-operation service time override; a detailed
                SDRAM model (see :mod:`repro.memories.sdram`) supplies
                address-dependent costs here, otherwise the buffer's
                constant applies.
        """
        self._drain(now_cycle)
        if len(self._finish_times) >= self.capacity:
            self.stats.rejected += 1
            return False
        cost = self.service_cycles if service_cycles is None else service_cycles
        start = now_cycle if now_cycle > self._last_finish else self._last_finish
        finish = start + cost
        self._finish_times.append(finish)
        self._last_finish = finish
        self.stats.accepted += 1
        depth = len(self._finish_times)
        if depth > self.stats.high_water:
            self.stats.high_water = depth
        return True

    def offer_batch(self, now_cycles) -> int:
        """Enqueue a batch of operations; exactly ``offer`` per element.

        ``now_cycles`` must be ascending (replay time is monotonic).  The
        fast path, :meth:`admit_drained`, applies when the queue is idle
        at the first arrival and consecutive arrivals are spaced at least
        one service time apart; any other shape falls back to the
        per-element loop.  Returns the number accepted.
        """
        arrivals = np.asarray(now_cycles, dtype=np.float64)
        count = int(arrivals.shape[0])
        if count == 0:
            return 0
        first = float(arrivals[0])
        self._drain(first)
        service = self.service_cycles
        # Spacing test mirrors the serial drain comparison bit for bit:
        # operation i-1 (finishing at now[i-1] + service) has left the
        # queue by arrival i.
        if (
            not self._finish_times
            and self._last_finish <= first
            and bool(np.all(arrivals[:-1] + service <= arrivals[1:]))
        ):
            self.admit_drained(count, float(arrivals[-1]))
            return count
        accepted = 0
        offer = self.offer
        for now_cycle in arrivals.tolist():
            if offer(now_cycle):
                accepted += 1
        return accepted

    def admit_drained(self, count: int, last: float) -> None:
        """Admit ``count`` (at least one) operations that each find the
        queue drained, the last arriving at ``last``: exactly ``offer``
        per operation, in O(1).  Each is accepted at depth one, and only
        the last one's finish time stays queued.
        """
        stats = self.stats
        stats.accepted += count
        if stats.high_water < 1:
            stats.high_water = 1
        finish = last + self.service_cycles
        finish_times = self._finish_times
        finish_times.clear()
        finish_times.append(finish)
        self._last_finish = finish

    def decoupled(self, spacing: float, first: float) -> bool:
        """Whether operations arriving from ``first`` on, at least
        ``spacing`` cycles apart, each find the queue drained, so that
        :meth:`admit_drained` settles them exactly.

        The service time must be at most ``spacing``: float addition is
        monotone, so each finish time is then at most the next arrival.
        And nothing queued may finish after ``first``, as a fault
        injector's burst or a restored checkpoint can leave it;
        ``_last_finish``, the latest finish time, bounds them all.
        """
        return self.service_cycles <= spacing and self._last_finish <= first

    def reset(self) -> None:
        """Clear in-flight operations and statistics."""
        self._finish_times.clear()
        self._last_finish = 0.0
        self.stats = BufferStats()

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Mutable state for board checkpoints (configuration excluded)."""
        return {
            "finish_times": list(self._finish_times),
            "last_finish": self._last_finish,
            "stats": {
                "accepted": self.stats.accepted,
                "rejected": self.stats.rejected,
                "high_water": self.stats.high_water,
                "injected": self.stats.injected,
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a checkpointed buffer state."""
        self._finish_times = deque(float(t) for t in state["finish_times"])
        self._last_finish = float(state["last_finish"])
        stats = state["stats"]
        self.stats = BufferStats(
            accepted=int(stats["accepted"]),
            rejected=int(stats["rejected"]),
            high_water=int(stats["high_water"]),
            injected=int(stats.get("injected", 0)),
        )
