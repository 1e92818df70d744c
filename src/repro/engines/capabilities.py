"""The capability vocabulary and the static capability prover.

A *capability* is a property of a programmed board that an engine's
bit-identity argument depends on.  The prover derives the granted set
by inspecting the configuration — never by running it — so engine
eligibility is known before the first record replays, and every denial
carries the concrete reason.

``INERT_BACKGROUND_TICK``
    The per-tenure firmware tick is a no-op, so an engine that does not
    interleave ticks between tenures loses nothing.  Denied while any
    in-service node runs an ECC patrol scrubber, and for firmware whose
    tick hook has no ``tick_active()`` hint to prove it idle.  The
    compiled engine requires it, so a denial routes a board to the
    scalar loop.

Choices that never change a result are not capabilities: the compiled
engine picks its own runner per call
(:func:`~repro.memories.compiled.replay_words_compiled`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class Capability(enum.Enum):
    """Configuration properties engines can require (values are the
    stable names used in CLI output, findings and docs)."""

    INERT_BACKGROUND_TICK = "inert_background_tick"

    def __str__(self) -> str:  # readable in f-strings and reports
        return self.value


@dataclass
class CapabilityProof:
    """The prover's verdict for one board.

    Attributes:
        granted: capabilities the configuration provides.
        denials: capability -> reasons it was denied (one entry per
            violating feature, so a report can name all of them).
    """

    granted: frozenset = frozenset()
    denials: Dict[Capability, List[str]] = field(default_factory=dict)

    def grants(self, capability: Capability) -> bool:
        return capability in self.granted

    def reasons(self, capability: Capability) -> Tuple[str, ...]:
        return tuple(self.denials.get(capability, ()))


def prove_capabilities(board) -> CapabilityProof:
    """Statically evaluate which capabilities ``board`` grants.

    ``board`` is a programmed :class:`~repro.memories.board.MemoriesBoard`
    (build one from a machine with
    :func:`~repro.memories.board.board_for_machine`); nothing is
    replayed or mutated.
    """
    proof = CapabilityProof()
    denials: Dict[Capability, List[str]] = {}

    def deny(capability: Capability, reason: str) -> None:
        denials.setdefault(capability, []).append(reason)

    # INERT_BACKGROUND_TICK — the tick hook must be absent, or present
    # and provably idle.
    if board._firmware_tick is not None:
        tick_active = getattr(board.firmware, "tick_active", None)
        if tick_active is None:
            deny(
                Capability.INERT_BACKGROUND_TICK,
                "firmware has a tick hook but no tick_active() hint, so "
                "the tick cannot be proven idle",
            )
        elif tick_active():
            deny(
                Capability.INERT_BACKGROUND_TICK,
                "time-driven firmware machinery is active (an in-service "
                "node runs an ECC patrol scrubber); ticks must interleave "
                "between tenures",
            )

    proof.granted = frozenset(
        capability for capability in Capability if capability not in denials
    )
    proof.denials = denials
    return proof
