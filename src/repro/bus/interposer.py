"""The interposer card: measuring hosts with a different bus architecture.

Section 3 of the paper: the board "has the ability to plug directly into
the 6xx bus of the host machine at a maximum speed of 100MHz, or connect to
an **interposer card** to take measurements from systems with a different
bus architecture, such as an Intel X86 platform.  Different bus
architecture measurements require protocol conversion on the interposer
card, reprogramming of the FPGA, or changing the command map file if the
protocol is similar."

This module is that card: a :class:`CommandMap` (loadable, like the
protocol map files) translates a foreign bus's transaction encoding into
6xx commands, the :class:`InterposerCard` applies it plus agent-ID and
address translation, and forwards the converted stream to any MemorIES
board.  A P6-style front-side-bus command set ships as the built-in
``x86`` map.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.bus.bus import Monitor
from repro.bus.transaction import BusCommand, BusTransaction, SnoopResponse
from repro.common.errors import ConfigurationError, TraceFormatError


class ForeignCommand(enum.IntEnum):
    """A P6/FSB-style transaction encoding (the 'different bus').

    * ``BRL`` — burst read line (a code/data line fill).
    * ``BRIL`` — burst read invalidate line (read for ownership).
    * ``BWL`` — burst write line (dirty line write-back).
    * ``BIL`` — bus invalidate line (ownership upgrade, no data).
    * ``MEM_PARTIAL`` — partial (non-burst) memory access.
    * ``IO_IN`` / ``IO_OUT`` — I/O port accesses.
    * ``INT_ACK`` — interrupt acknowledge.
    * ``SPECIAL`` — fence/special cycles.
    """

    BRL = 0
    BRIL = 1
    BWL = 2
    BIL = 3
    MEM_PARTIAL = 4
    IO_IN = 5
    IO_OUT = 6
    INT_ACK = 7
    SPECIAL = 8


class CommandMap:
    """A loadable foreign-to-6xx command translation table.

    Entries map each :class:`ForeignCommand` either to a
    :class:`~repro.bus.transaction.BusCommand` or to ``None``, meaning the
    interposer drops the transaction before it reaches the board (the board
    would only filter it anyway).

    Args:
        name: map name, reported in statistics.
        entries: the translation table; must cover every foreign command.
    """

    def __init__(
        self,
        name: str,
        entries: Mapping[ForeignCommand, Optional[BusCommand]],
    ) -> None:
        missing = [cmd.name for cmd in ForeignCommand if cmd not in entries]
        if missing:
            raise ConfigurationError(
                f"command map {name!r} does not translate: {', '.join(missing)}"
            )
        self.name = name
        self._entries: Dict[int, Optional[BusCommand]] = {
            int(foreign): native for foreign, native in entries.items()
        }

    def translate(self, command: ForeignCommand) -> Optional[BusCommand]:
        """The 6xx command for a foreign one (None = dropped)."""
        return self._entries[int(command)]

    def to_map(self) -> dict:
        """Serialise to the JSON-compatible map-file structure."""
        return {
            "name": self.name,
            "entries": {
                ForeignCommand(foreign).name: (
                    native.name if native is not None else None
                )
                for foreign, native in sorted(self._entries.items())
            },
        }

    @classmethod
    def from_map(cls, data: Mapping) -> "CommandMap":
        """Deserialise a map file produced by :meth:`to_map`."""
        try:
            entries = {
                ForeignCommand[foreign]: (
                    BusCommand[native] if native is not None else None
                )
                for foreign, native in data["entries"].items()
            }
            return cls(str(data["name"]), entries)
        except (KeyError, TypeError) as exc:
            raise TraceFormatError(f"malformed command map file: {exc}") from exc

    def save(self, path: Union[str, Path]) -> None:
        """Write the map file to disk."""
        Path(path).write_text(json.dumps(self.to_map(), indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CommandMap":
        """Read a map file from disk."""
        return cls.from_map(json.loads(Path(path).read_text()))


def x86_command_map() -> CommandMap:
    """The built-in P6-FSB-to-6xx command map."""
    return CommandMap(
        "x86",
        {
            ForeignCommand.BRL: BusCommand.READ,
            ForeignCommand.BRIL: BusCommand.RWITM,
            ForeignCommand.BWL: BusCommand.CASTOUT,
            ForeignCommand.BIL: BusCommand.DCLAIM,
            # Partial accesses are uncached traffic; model as reads so the
            # emulated caches snoop them, as uncached reads do on the 6xx.
            ForeignCommand.MEM_PARTIAL: BusCommand.READ,
            ForeignCommand.IO_IN: BusCommand.IO_READ,
            ForeignCommand.IO_OUT: BusCommand.IO_WRITE,
            ForeignCommand.INT_ACK: BusCommand.INTERRUPT,
            ForeignCommand.SPECIAL: BusCommand.SYNC,
        },
    )


@dataclass
class InterposerStats:
    """Conversion statistics the card's own counters keep."""

    observed: int = 0
    converted: int = 0
    dropped: int = 0
    remapped_agents: int = 0


class InterposerCard:
    """Protocol conversion between a foreign bus and a MemorIES board.

    Args:
        board: any board (or monitor) to forward converted tenures to.
        command_map: the translation table; defaults to the x86 map.
        agent_map: optional foreign-agent-ID -> CPU-ID remapping (foreign
            buses number their agents differently; the S7A-side board
            expects processors at IDs 0..15).  Unmapped agents pass
            through unchanged.
        address_offset: added to every converted address — lets a foreign
            machine's memory map coexist with host-side address
            expectations.
    """

    def __init__(
        self,
        board: Monitor,
        command_map: Optional[CommandMap] = None,
        agent_map: Optional[Mapping[int, int]] = None,
        address_offset: int = 0,
    ) -> None:
        self.board = board
        self.command_map = command_map if command_map is not None else x86_command_map()
        self.agent_map = dict(agent_map) if agent_map else {}
        self.address_offset = address_offset
        self.stats = InterposerStats()

    def observe_foreign(
        self,
        agent_id: int,
        command: ForeignCommand,
        address: int,
        snoop_response: SnoopResponse = SnoopResponse.NULL,
    ) -> SnoopResponse:
        """Convert one foreign transaction and forward it to the board."""
        self.stats.observed += 1
        native = self.command_map.translate(command)
        if native is None:
            self.stats.dropped += 1
            return SnoopResponse.NULL
        cpu_id = self.agent_map.get(agent_id, agent_id)
        if cpu_id != agent_id:
            self.stats.remapped_agents += 1
        self.stats.converted += 1
        return self.board.observe(
            BusTransaction(
                cpu_id=cpu_id,
                command=native,
                address=address + self.address_offset,
                snoop_response=snoop_response,
            )
        )

    def snapshot(self) -> dict:
        """Counter-style statistics dict."""
        return {
            "interposer.map": self.command_map.name,
            "interposer.observed": self.stats.observed,
            "interposer.converted": self.stats.converted,
            "interposer.dropped": self.stats.dropped,
            "interposer.remapped_agents": self.stats.remapped_agents,
        }
