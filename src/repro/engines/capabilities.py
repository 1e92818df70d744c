"""The capability vocabulary and the static capability prover.

A *capability* is a property of a programmed board that a replay
path's bit-identity argument depends on.  The prover derives the granted
set by inspecting the configuration — never by running it — so engine
eligibility and the compiled engine's runner are known before the first
record replays, and every denial carries the concrete reason.

The capability semantics (each is the precondition of a proof obligation
discharged in the engine's module docstring and test suite):

``INERT_BACKGROUND_TICK``
    The per-tenure firmware tick is a no-op, so an engine that does not
    interleave ticks between tenures loses nothing.  Denied while any
    in-service node runs an ECC patrol scrubber.  The compiled engine
    requires it, so this denial alone routes a board to the scalar loop.
``PER_SET_INDEPENDENCE``
    Every hit/miss/victim decision depends only on the history of its
    own cache set.  Denied by ``random`` replacement (victims come from
    one board-wide RNG stream whose draw order is global) and by the
    SDRAM timing model (service times depend on global access order).
    No engine requires it: where it is granted,
    :func:`~repro.memories.compiled.replay_words_compiled` may step all
    sets of a deep chunk at once as numpy lanes, and where it is denied
    the compiled runner walks the chunk tenure by tenure.
``NO_GLOBAL_ORDER_COUPLING``
    Every transaction buffer's service time is at most the bus tenure.
    Float addition is monotone, so a finish time ``t + service`` is at
    most the next tenure's ``t + tenure``: each admission finds the queue
    drained and queue depth never exceeds one.  Buffer state after any
    run of admissions then has a closed form — ``accepted`` grows by the
    admissions, the queue holds only the last admission's ``t +
    service``, high-water is one, nothing is rejected — so it depends on
    how many admissions a node saw and when the last was, not on their
    global order.  No engine requires it either: where it is granted
    :func:`~repro.memories.compiled.replay_words_compiled` settles
    buffers in this closed form per chunk, and where it is denied it
    replays ``firmware.process`` per tenure, every buffer offer in
    tenure order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class Capability(enum.Enum):
    """Configuration properties engines can require (values are the
    stable names used in CLI output, findings and docs)."""

    INERT_BACKGROUND_TICK = "inert_background_tick"
    PER_SET_INDEPENDENCE = "per_set_independence"
    NO_GLOBAL_ORDER_COUPLING = "no_global_order_coupling"

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

    nodes = list(getattr(board.firmware, "nodes", []))
    if not nodes:
        deny(
            Capability.PER_SET_INDEPENDENCE,
            "firmware exposes no cache nodes; per-set decomposition is "
            "undefined for this image",
        )

    # PER_SET_INDEPENDENCE — no feature may couple decisions across sets.
    for node in nodes:
        if node.config.replacement == "random":
            deny(
                Capability.PER_SET_INDEPENDENCE,
                "'random' replacement couples the sets: victim draws come "
                "from one board-wide RNG stream in global order",
            )
        if node.sdram is not None:
            deny(
                Capability.PER_SET_INDEPENDENCE,
                "the SDRAM timing model couples the sets: per-operation "
                "service times depend on global access order",
            )

    # NO_GLOBAL_ORDER_COUPLING — every buffer drains within one tenure.
    for node in nodes:
        if node.buffer.service_cycles > board.cycles_per_tenure:
            deny(
                Capability.NO_GLOBAL_ORDER_COUPLING,
                f"node{node.index} buffer service "
                f"({node.buffer.service_cycles:g} cycles) exceeds the bus "
                f"tenure ({board.cycles_per_tenure:g} cycles): queue depth "
                f"would depend on global arrival order; raise "
                f"assumed_utilization's tenure spacing or replay serially",
            )
    if board.address_filter.buffer.service_cycles > board.cycles_per_tenure:
        deny(
            Capability.NO_GLOBAL_ORDER_COUPLING,
            "address-filter buffer service exceeds the bus tenure; "
            "occupancy would depend on global arrival order",
        )

    proof.granted = frozenset(
        capability for capability in Capability if capability not in denials
    )
    proof.denials = denials
    return proof
