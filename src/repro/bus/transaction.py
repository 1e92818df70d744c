"""6xx bus commands, transactions and snoop responses.

The command set is the subset of the 6xx protocol that a passive cache
emulator cares about (Section 3.1 of the paper): coherent reads, reads with
intent to modify, ownership claims, castouts (write-backs), and the
non-memory operations the address-filter FPGA discards (I/O register
accesses, interrupts, synchronisation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

#: Highest bus ID that denotes a processor; I/O bridges use IDs above
#: this.  An unmapped processor's castout goes to memory and touches no
#: emulated cache, while an I/O bridge's castout-style DMA write must
#: invalidate stale copies.
MAX_PROCESSOR_ID = 15


class BusCommand(enum.IntEnum):
    """Bus command of an address tenure on the 6xx bus.

    Memory-coherent commands (the emulator processes these):

    * ``READ`` — coherent read; the issuing L2 will hold the line Shared or
      Exclusive depending on the combined snoop response.
    * ``RWITM`` — read with intent to modify; the issuing L2 will hold the
      line Modified and every other cache must invalidate.
    * ``DCLAIM`` — data claim (upgrade): the issuer already holds the line
      Shared and wants ownership without a data transfer.
    * ``CASTOUT`` — write-back of a modified line being evicted.

    Non-memory commands (filtered out by the address-filter FPGA):

    * ``IO_READ`` / ``IO_WRITE`` — I/O register accesses.
    * ``INTERRUPT`` — interrupt delivery tenure.
    * ``SYNC`` — memory-barrier tenure.
    """

    READ = 0
    RWITM = 1
    DCLAIM = 2
    CASTOUT = 3
    IO_READ = 4
    IO_WRITE = 5
    INTERRUPT = 6
    SYNC = 7

    @property
    def is_memory(self) -> bool:
        """True for commands that reference coherent memory."""
        return self in _MEMORY_COMMANDS

    @property
    def is_write_intent(self) -> bool:
        """True when the issuer will end up with a modified copy."""
        return self in (BusCommand.RWITM, BusCommand.DCLAIM)


_MEMORY_COMMANDS = frozenset(
    {BusCommand.READ, BusCommand.RWITM, BusCommand.DCLAIM, BusCommand.CASTOUT}
)


class SnoopResponse(enum.IntEnum):
    """A single snooper's response to an address tenure.

    Responses are ordered by priority; combining takes the maximum
    (:func:`combine_snoop_responses`), mirroring the wired-OR combining of
    the real bus.
    """

    NULL = 0
    SHARED = 1
    MODIFIED = 2
    RETRY = 3


def combine_snoop_responses(responses: Iterable[SnoopResponse]) -> SnoopResponse:
    """Combine individual snoop responses into the bus-wide response.

    ``RETRY`` dominates everything, ``MODIFIED`` dominates ``SHARED``,
    ``SHARED`` dominates ``NULL`` — exactly the priority encoding of the
    response phase on the 6xx bus.
    """
    combined = SnoopResponse.NULL
    for response in responses:
        if response > combined:
            combined = response
        if combined is SnoopResponse.RETRY:
            break
    return combined


@dataclass(frozen=True, slots=True)
class BusTransaction:
    """One address tenure observed on the bus.

    Attributes:
        seq: monotonically increasing tenure sequence number (assigned by
            the bus when the transaction is issued; 0 before issue).
        cpu_id: bus ID of the requesting master.  Processors are 0..11 on
            an S7A-class host; I/O bridges use IDs above
            :data:`MAX_PROCESSOR_ID`.
        command: the :class:`BusCommand`.
        address: physical byte address of the access.
        snoop_response: combined snoop response, filled in by the bus after
            the response phase (``NULL`` before issue).
    """

    cpu_id: int
    command: BusCommand
    address: int
    seq: int = 0
    snoop_response: SnoopResponse = SnoopResponse.NULL

    def with_response(self, seq: int, response: SnoopResponse) -> "BusTransaction":
        """Return a copy carrying the bus-assigned sequence and response."""
        return BusTransaction(
            cpu_id=self.cpu_id,
            command=self.command,
            address=self.address,
            seq=seq,
            snoop_response=response,
        )
