"""The capability vocabulary and the static capability prover.

A *capability* is a property of a programmed board (plus, for sharding,
a shard spec) that an engine's bit-identity argument depends on.  The
prover derives the granted set by inspecting the configuration — never
by running it — so engine eligibility is known before the first record
replays, and every denial carries the concrete reason.

The capability semantics (each is the precondition of a proof obligation
discharged in the engine's module docstring and test suite):

``EXACT_FLOAT_CLOCK``
    The engine advances ``now_cycle`` by IEEE-754 additions in exactly
    the serial order (the batched engine's ``cumsum`` matches serial
    accumulation bit for bit).  Granted for every configuration today;
    declared so future compiled/GPU backends that reassociate the clock
    sum are forced to say so.
``INERT_BACKGROUND_TICK``
    The per-tenure firmware tick is a no-op, so an engine that does not
    interleave ticks between tenures loses nothing.  Denied while any
    in-service node runs an ECC patrol scrubber.
``PER_SET_INDEPENDENCE``
    Every hit/miss/victim decision depends only on the history of its
    own cache set.  Denied by ``random`` replacement (victims come from
    one board-wide RNG stream whose draw order is global) and by the
    SDRAM timing model (service times depend on global access order).
    Sharded replay splits sets across workers on it; the compiled
    engine's set-lockstep form steps all sets of a chunk at once on it.
``NO_GLOBAL_ORDER_COUPLING``
    Every transaction buffer's service time is at most the bus tenure.
    Float addition is monotone, so a finish time ``t + service`` is at
    most the next tenure's ``t + tenure``: each admission finds the queue
    drained and queue depth never exceeds one.  Buffer state after any
    run of admissions then has a closed form — ``accepted`` grows by the
    admissions, the queue holds only the last admission's ``t +
    service``, high-water is one, nothing is rejected — so it depends on
    how many admissions a node saw and when the last was, not on their
    global order.  The compiled engine settles buffers this way per
    chunk; sharding relies on it to split records across workers.
``SHARD_DECOMPOSABLE_SETS``
    The shard index field fits inside **every** node's set-index field,
    so no cache set is split across workers.  Only provable against a
    concrete :class:`ShardSpec`.
``DENSE_PROTOCOL_STATE``
    Every node's protocol state is something the cache-protocol runner's
    inlined object path (:mod:`repro.memories.compiled`) transcribes
    exactly: plain (unprotected) tag/state directories, constant
    transaction-buffer service times, a stock replacement policy class
    (LRU, FIFO, PLRU, or ``random`` through the policy's own RNG), and
    precomputed coherence-group routing.  Denied by ECC-protected
    directories (states carry packed check bits and demand-verification),
    by the SDRAM timing model (address-dependent service pricing), by
    custom replacement policy classes, and by firmware images without
    the stock group routing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Capability(enum.Enum):
    """Configuration properties engines can require (values are the
    stable names used in CLI output, findings and docs)."""

    EXACT_FLOAT_CLOCK = "exact_float_clock"
    INERT_BACKGROUND_TICK = "inert_background_tick"
    PER_SET_INDEPENDENCE = "per_set_independence"
    NO_GLOBAL_ORDER_COUPLING = "no_global_order_coupling"
    SHARD_DECOMPOSABLE_SETS = "shard_decomposable_sets"
    DENSE_PROTOCOL_STATE = "dense_protocol_state"

    def __str__(self) -> str:  # readable in f-strings and reports
        return self.value


@dataclass(frozen=True)
class ShardSpec:
    """A requested set-interleaved decomposition: ``shards`` workers.

    Structural validity (power-of-two count) is checked by the prover
    and reported under rule ``EN302`` — it is a property of the request,
    not of the machine.
    """

    shards: int

    @property
    def shard_bits(self) -> int:
        return max(self.shards.bit_length() - 1, 0)

    def structural_errors(self) -> List[str]:
        if self.shards < 1 or (self.shards & (self.shards - 1)) != 0:
            return [
                f"shard count must be a power of two, got {self.shards}"
            ]
        return []


@dataclass
class CapabilityProof:
    """The prover's verdict for one board (+ optional shard spec).

    Attributes:
        granted: capabilities the configuration provides.
        denials: capability -> reasons it was denied (one entry per
            violating feature, so a report can name all of them).
        structural: shard-spec errors that are not capability denials
            (``EN302``).
        shard_shift: the address bit where the shard index field starts
            (the widest line-offset field across nodes); 0 when no nodes
            or no spec.
    """

    granted: frozenset = frozenset()
    denials: Dict[Capability, List[str]] = field(default_factory=dict)
    structural: List[str] = field(default_factory=list)
    shard_shift: int = 0

    def grants(self, capability: Capability) -> bool:
        return capability in self.granted

    def reasons(self, capability: Capability) -> Tuple[str, ...]:
        return tuple(self.denials.get(capability, ()))


def prove_capabilities(
    board, spec: Optional[ShardSpec] = None
) -> CapabilityProof:
    """Statically evaluate which capabilities ``board`` grants.

    ``board`` is a programmed :class:`~repro.memories.board.MemoriesBoard`
    (build one from a machine with
    :func:`~repro.memories.board.board_for_machine`); nothing is
    replayed or mutated.  Without a ``spec``,
    :attr:`~Capability.SHARD_DECOMPOSABLE_SETS` is denied as unprovable
    rather than assumed.
    """
    proof = CapabilityProof()
    denials: Dict[Capability, List[str]] = {}

    def deny(capability: Capability, reason: str) -> None:
        denials.setdefault(capability, []).append(reason)

    # EXACT_FLOAT_CLOCK — every current engine reproduces the serial
    # IEEE-754 accumulation order (cumsum == repeated addition, proven in
    # tests/test_batched_replay); the capability exists so a future
    # backend that reassociates the sum must declare the loss.

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
        reason = (
            "firmware exposes no cache nodes; per-set decomposition is "
            "undefined for this image"
        )
        deny(Capability.PER_SET_INDEPENDENCE, reason)
        deny(Capability.SHARD_DECOMPOSABLE_SETS, reason)
        deny(
            Capability.DENSE_PROTOCOL_STATE,
            "firmware exposes no cache nodes for the protocol runner",
        )

    # DENSE_PROTOCOL_STATE — directories, buffers, replacement and
    # routing must all be ones the runner's inlined object path covers.
    from repro.memories.replacement import (
        FifoPolicy,
        LruPolicy,
        PlruPolicy,
        RandomPolicy,
    )

    if nodes and getattr(board.firmware, "_groups", None) is None:
        deny(
            Capability.DENSE_PROTOCOL_STATE,
            "firmware image does not expose precomputed coherence-group "
            "routing (_groups) for the protocol runner to dispatch on",
        )
    for node in nodes:
        if node.ecc:
            deny(
                Capability.DENSE_PROTOCOL_STATE,
                f"node{node.index} directory is ECC-protected: stored "
                "states carry packed check bits and probes demand-verify "
                "lines, which the runner's plain tag/state path omits",
            )
        if node.sdram is not None:
            deny(
                Capability.DENSE_PROTOCOL_STATE,
                f"node{node.index} prices directory operations through "
                "the SDRAM timing model: service times are "
                "address-dependent, not the constant the runner inlines",
            )
        policy = getattr(node.directory, "policy", None)
        if type(policy) not in (LruPolicy, FifoPolicy, PlruPolicy, RandomPolicy):
            deny(
                Capability.DENSE_PROTOCOL_STATE,
                f"node{node.index} replacement policy class "
                f"{type(policy).__name__} has no inlined transcription",
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

    # SHARD_DECOMPOSABLE_SETS — the shard field must sit inside every
    # node's set-index field.
    shard_shift = 0
    for node in nodes:
        shard_shift = max(shard_shift, node.directory.amap.offset_bits)
    structural: List[str] = []
    if spec is None:
        if nodes:
            deny(
                Capability.SHARD_DECOMPOSABLE_SETS,
                "no shard spec given; decomposability is only provable "
                "against a concrete shard count",
            )
    else:
        structural = spec.structural_errors()
        if not structural:
            for node in nodes:
                amap = node.directory.amap
                index_top = amap.offset_bits + amap.index_bits
                if shard_shift + spec.shard_bits > index_top:
                    deny(
                        Capability.SHARD_DECOMPOSABLE_SETS,
                        f"{spec.shards} shards need address bits "
                        f"[{shard_shift}, {shard_shift + spec.shard_bits}) "
                        f"but node{node.index}'s set-index field ends at "
                        f"bit {index_top}; use at most "
                        f"{1 << max(index_top - shard_shift, 0)} shard(s)",
                    )

    proof.granted = frozenset(
        capability for capability in Capability if capability not in denials
    )
    proof.denials = denials
    proof.structural = structural
    proof.shard_shift = shard_shift
    return proof
