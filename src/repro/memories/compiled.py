"""The compiled engine: the in-process fast replay path.

:func:`replay_words_compiled` drives the chunk loop
(:func:`repro.memories.batch.replay_with_runner`): vectorised decode and
admit mask, bulk filter and global-counter updates, the ``cumsum``
clock, chunks split at telemetry countdowns.  It is also the one place
that picks what runs per admitted tenure.  For the stock cache-emulation
firmware that is the runner built here by :func:`_protocol_runner`;
any image it refuses (SDRAM-priced or ECC nodes, custom replacement
classes, the tracer and the other firmware) runs
:func:`~repro.memories.batch._generic_runner`, ``firmware.process``
per admitted tenure.  The protocol runner works on one view per node
controller (:class:`_CompiledNode`): direct references to the
directory's tag, state and way-map lists, a dense ``(op, state)``
transition table, cpu-indexed routing, and an integer-indexed counter
accumulator over a fixed counter vocabulary (:data:`COUNTER_NAMES`).

The protocol runner serves two transaction-buffer regimes.  The engine
picks one per call (:func:`_buffers_decoupled`); the user never does.

* **Per-tenure admission**, for buffers slower than the bus tenure or
  holding a backlog.  Every tenure replays
  ``CacheEmulationFirmware.process``.  First a drain-and-reject
  pre-check across every group, so a refused tenure has no side effects
  and counts as a retry.  Then the local offer.  Each peer or
  unmapped-master snoop counts ``remote.*``, offers to the target's
  buffer and probes only when the offer is accepted.  Finish times are
  the same IEEE-754 sums, in the same order, as
  :meth:`~repro.memories.tx_buffer.TransactionBuffer.offer`; the buffer
  scalars live in the view for the chunk (:meth:`_CompiledNode.load` /
  :meth:`_CompiledNode.store`).
* **Closed form**, the common case.  It needs
  ``NO_GLOBAL_ORDER_COUPLING``: no service time above the bus tenure.
  Float addition is monotone, so every finish time is at most the next
  tenure's time and each admission finds its queue drained.  A chunk's
  admissions then leave ``accepted += n`` and the single finish time
  ``t_last + service`` (:meth:`_CompiledNode.settle`), so the runner
  only tallies admissions per issuer.  Both the capability and a drained
  starting queue are checked on entry (:func:`_buffers_decoupled`);
  otherwise the call replays in admission mode.

Bit-identity with the scalar loop, per structure:

* **Clock and chunking** come from the shared chunk loop, unchanged.
* **Directory** mutations apply in tenure order (within each set, in
  the lockstep form) to the scalar directory's own lists.  LRU
  move-to-front, FIFO insert-front / evict-back and the PLRU tree bits
  are transcribed from :mod:`repro.memories.replacement`
  (:func:`_install_inline`), the way-map upkeep from
  :class:`~repro.memories.cache_model.TagStateDirectory`.
  Invalidations and ``random`` victims go through
  ``directory.invalidate`` and ``directory.install`` themselves; installs
  happen in tenure order, so the board-wide RNG is drawn in the scalar
  order.
* **Counters** accumulate as a commutative reordering of the increments
  within one chunk and are flushed into the real counter banks at chunk
  end, before any observer (``on_countdown`` → ``board.statistics()``)
  can look.

The transition logic exists in three forms: the scalar
``NodeController``, :func:`_process_local`, which every fast runner
calls once per local tenure whatever the group shape and buffer regime,
and its set-lockstep form (:mod:`repro.memories.lockstep`).  The
bit-identity suite in ``tests/test_batched_replay.py`` holds them in
lock-step.

The lockstep form replays a deep chunk of a single group set by set,
all sets at once.  It is sound when the board grants
``per_set_independence`` and every node of the group maps an address to
the same set: a tenure then reads and writes one set on every node and
nothing else, so each set's history depends only on its own tenures,
in their order.  Counters are sums and the closed-form tallies are
counts and maxima of rising tenure times, so neither depends on the
interleaving of sets.  Per chunk, :func:`_closed_form_run` takes the
lanes when the chunk has enough admitted tenures per touched set, and
the loop otherwise.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bus.transaction import MAX_PROCESSOR_ID, BusCommand
from repro.engines.capabilities import Capability, prove_capabilities
from repro.memories.batch import _generic_runner, replay_with_runner
from repro.memories.protocol_table import CacheOp, LineState
from repro.memories.replacement import (
    FifoPolicy,
    LruPolicy,
    PlruPolicy,
    RandomPolicy,
)

_READ = int(BusCommand.READ)
_CASTOUT = int(BusCommand.CASTOUT)
_LOCAL_WRITE = int(CacheOp.LOCAL_WRITE)
_LOCAL_CASTOUT = int(CacheOp.LOCAL_CASTOUT)
_REMOTE_READ = int(CacheOp.REMOTE_READ)
_REMOTE_WRITE = int(CacheOp.REMOTE_WRITE)
_SHARED = int(LineState.SHARED)
_OWNED = int(LineState.OWNED)
_N_STATES = max(int(state) for state in LineState) + 1
_N_OPS = max(int(op) for op in CacheOp) + 1

#: Per local command (raw int 0..3): primary counter, secondary counter,
#: CacheOp, hit counter, miss counter, fetches-data flag — the constants
#: NodeController.process_local derives per tenure.
_LOCAL_CMD = [
    ("local.read", None, int(CacheOp.LOCAL_READ), "hit.read", "miss.read", True),
    ("local.write", None, _LOCAL_WRITE, "hit.write", "miss.write", True),
    ("local.write", "local.upgrade", _LOCAL_WRITE, "hit.write", "miss.write", False),
    ("local.castout", None, _LOCAL_CASTOUT, "hit.castout", "miss.castout", False),
]

_HIT_STATE_KEY = [f"hit_state.{LineState(i).name}" for i in range(_N_STATES)]
_FILL_KEY = [f"fill.{LineState(i).name}" for i in range(_N_STATES)]
_DIRTY_OF = [LineState(i).is_dirty for i in range(_N_STATES)]

#: Figure 12 satisfaction counters by snoop-response int, for hits/misses.
_SAT_HIT = ["satisfied.l3", "satisfied.shr_int", "satisfied.mod_int", None]
_SAT_MISS = ["satisfied.memory", "satisfied.shr_int", "satisfied.mod_int", None]


def _build_counter_names() -> List[str]:
    names: List[str] = []
    for base, extra, _op, hit, miss, _fetches in _LOCAL_CMD:
        for key in (base, extra, hit, miss):
            if key is not None and key not in names:
                names.append(key)
    names.extend(key for key in _HIT_STATE_KEY if key not in names)
    names.extend(key for key in _FILL_KEY if key not in names)
    names.extend(
        [
            "inclusion.castout_miss",
            "intervention.from_peer",
            "evict.dirty",
            "evict.clean",
        ]
    )
    for key in _SAT_HIT + _SAT_MISS:
        if key is not None and key not in names:
            names.append(key)
    names.extend(
        ["remote.read", "remote.write", "remote.supplied_dirty", "remote.invalidated"]
    )
    return names


#: Every counter name the stock cache-emulation firmware can emit, in a
#: fixed order; counter id == index into this list == slot of a node
#: view's accumulator.
COUNTER_NAMES = _build_counter_names()
_CID = {name: cid for cid, name in enumerate(COUNTER_NAMES)}

_CID_INCLUSION = _CID["inclusion.castout_miss"]
_CID_INTERVENTION = _CID["intervention.from_peer"]
_CID_EVICT_DIRTY = _CID["evict.dirty"]
_CID_EVICT_CLEAN = _CID["evict.clean"]
_CID_REMOTE_READ = _CID["remote.read"]
_CID_REMOTE_WRITE = _CID["remote.write"]
_CID_SUPPLIED_DIRTY = _CID["remote.supplied_dirty"]
_CID_INVALIDATED = _CID["remote.invalidated"]

#: _LOCAL_CMD with names resolved to counter ids (-1 = no counter).
_CMD_TAB = tuple(
    (
        _CID[base],
        _CID[extra] if extra is not None else -1,
        op,
        _CID[hit],
        _CID[miss],
        fetches,
    )
    for base, extra, op, hit, miss, fetches in _LOCAL_CMD
)
_HIT_STATE_CID = tuple(_CID[key] for key in _HIT_STATE_KEY)
_FILL_CID = tuple(_CID[key] for key in _FILL_KEY)
_SAT_HIT_CID = tuple(_CID[k] if k is not None else -1 for k in _SAT_HIT)
_SAT_MISS_CID = tuple(_CID[k] if k is not None else -1 for k in _SAT_MISS)

_POLICY_LRU = 0
_POLICY_FIFO = 1
_POLICY_PLRU = 2
_POLICY_RANDOM = 3
_POLICY_CODE = {
    LruPolicy: _POLICY_LRU,
    FifoPolicy: _POLICY_FIFO,
    PlruPolicy: _POLICY_PLRU,
    RandomPolicy: _POLICY_RANDOM,
}

_NEVER = float("-inf")

#: A single-group chunk with at least this many admitted tenures per
#: touched set replays in set lockstep (:mod:`repro.memories.lockstep`);
#: docs/architecture.md has the measured crossover.
LOCKSTEP_MIN_DEPTH = 6


class _CompiledNode:
    """Hot-path view of one NodeController.

    Holds direct references to the controller's mutable structures (the
    directory's tag/state/way-map lists and metadata, the transaction
    buffer), a dense ``(op, state) -> (next_state, invalidates, is_hit)``
    table, the constants the inlined install path needs, and ``accv``,
    an integer-indexed counter accumulator (one slot per
    :data:`COUNTER_NAMES` entry).

    Admission mode snapshots the buffer scalars (``last_finish``,
    ``accepted``, ``rejected``, ``high_water``) in :meth:`load` and
    writes them back in :meth:`store`; within a chunk only the runner
    touches them, and the board reads them only between chunks.

    The closed form keeps the chunk's admission tallies instead (reset by
    :meth:`begin`): ``local_n`` / ``local_t`` count this node's own
    tenures and hold the time of the last; ``snoop_rd`` / ``snoop_wr``
    count the read and write snoops it broadcast to its peers and
    ``snoop_t`` holds the time of the last.
    """

    __slots__ = (
        "buffer", "ft", "capacity", "service", "last_finish",
        "accepted", "rejected", "high_water",
        "tags", "states", "ways", "meta",
        "off_bits", "set_mask", "tag_shift",
        "trans", "fill_write", "fill_read_shared", "fill_read_alone",
        "install", "invalidate", "policy_code", "assoc", "is_lru",
        "touch_meta", "victim_way", "accv", "counters", "peers",
        "local_n", "local_t", "snoop_rd", "snoop_wr", "snoop_t",
    )

    def __init__(self, node) -> None:
        buffer = node.buffer
        self.buffer = buffer
        self.capacity = buffer.capacity
        self.service = buffer.service_cycles
        directory = node.directory
        self.tags = directory._tags
        self.states = directory._states
        self.ways = directory._ways
        self.meta = directory._meta
        amap = directory.amap
        self.off_bits = amap.offset_bits
        self.set_mask = amap.num_sets - 1
        self.tag_shift = amap.offset_bits + amap.index_bits
        table: List[List[Optional[tuple]]] = [
            [None] * _N_STATES for _ in range(_N_OPS)
        ]
        for (op, state), transition in node._table.items():
            table[op][state] = (
                int(transition.next_state),
                transition.next_state is LineState.INVALID,
                transition.is_hit,
            )
        self.trans = table
        fill = node._fill
        self.fill_write = int(fill.write)
        self.fill_read_shared = int(fill.read_shared)
        self.fill_read_alone = int(fill.read_alone)
        self.install = directory.install
        self.invalidate = directory.invalidate
        policy = directory.policy
        self.policy_code = _POLICY_CODE[type(policy)]
        self.assoc = node.config.assoc
        self.is_lru = type(policy) is LruPolicy
        is_plru = type(policy) is PlruPolicy
        self.touch_meta = policy._update_on_access if is_plru else None
        self.victim_way = policy.victim_way if is_plru else None
        self.accv = [0] * len(COUNTER_NAMES)
        self.counters = node.counters
        self.peers: tuple = ()

    def flush_counters(self) -> None:
        """Move the accumulated counts into the node's counter bank."""
        counters = self.counters
        accv = self.accv
        for cid, value in enumerate(accv):
            if value:
                counters.increment(COUNTER_NAMES[cid], value)
                accv[cid] = 0

    # -- per-tenure admission ------------------------------------------ #

    def load(self) -> None:
        """Snapshot the buffer scalars for the coming chunk."""
        buffer = self.buffer
        self.ft = buffer._finish_times
        self.last_finish = buffer._last_finish
        stats = buffer.stats
        self.accepted = stats.accepted
        self.rejected = stats.rejected
        self.high_water = stats.high_water

    def store(self) -> None:
        """Write the buffer scalars back and flush the counters."""
        buffer = self.buffer
        buffer._last_finish = self.last_finish
        stats = buffer.stats
        stats.accepted = self.accepted
        stats.rejected = self.rejected
        stats.high_water = self.high_water
        self.flush_counters()

    def enqueue(self, now: float) -> None:
        """The accepting half of TransactionBuffer.offer (the queue has
        been drained at ``now`` and has room)."""
        last = self.last_finish
        start = now if now > last else last
        finish = start + self.service
        ft = self.ft
        ft.append(finish)
        self.last_finish = finish
        self.accepted += 1
        if len(ft) > self.high_water:
            self.high_water = len(ft)

    def offer(self, now: float) -> bool:
        """TransactionBuffer.offer on the chunk's snapshot."""
        ft = self.ft
        while ft and ft[0] <= now:
            ft.popleft()
        if len(ft) >= self.capacity:
            self.rejected += 1
            return False
        self.enqueue(now)
        return True

    # -- closed form ---------------------------------------------------- #

    def begin(self) -> None:
        """Reset the admission tallies for the coming chunk."""
        self.local_n = 0
        self.local_t = _NEVER
        self.snoop_rd = 0
        self.snoop_wr = 0
        self.snoop_t = _NEVER

    def settle(self, reads: int, writes: int, snoop_t: float) -> None:
        """Close the chunk: settle the buffer, then flush the counters.

        ``reads`` / ``writes`` are the snoops this node received in the
        chunk (from its peers and from unmapped masters) and ``snoop_t``
        the time of the last.  With the buffers decoupled (checked by
        :func:`_buffers_decoupled` before the call) every admission finds
        the queue drained, so the chunk's admissions all succeed and leave
        exactly one finish time: the last admission's plus the service.
        """
        admissions = self.local_n + reads + writes
        if admissions:
            last = self.local_t if self.local_t > snoop_t else snoop_t
            finish = last + self.service
            buffer = self.buffer
            finish_times = buffer._finish_times
            finish_times.clear()
            finish_times.append(finish)
            buffer._last_finish = finish
            stats = buffer.stats
            stats.accepted += admissions
            if stats.high_water < 1:
                stats.high_water = 1
            accv = self.accv
            accv[_CID_REMOTE_READ] += reads
            accv[_CID_REMOTE_WRITE] += writes
        self.flush_counters()


def _settle_group(controllers, unmapped) -> None:
    """Settle every controller of one coherence group at chunk end.

    ``unmapped`` is the group's ``[reads, writes, last time]`` tally of
    unmapped-master snoops, which reach every controller.
    """
    u_reads, u_writes, u_time = unmapped
    for node in controllers:
        reads, writes, last = u_reads, u_writes, u_time
        for peer in node.peers:
            reads += peer.snoop_rd
            writes += peer.snoop_wr
            if peer.snoop_t > last:
                last = peer.snoop_t
        node.settle(reads, writes, last)


def _snoop_hit(peer: _CompiledNode, op: int, set_index: int, way: int) -> bool:
    """The directory half of NodeController.process_remote, on a probe
    that found the line; returns whether the peer supplied dirty data."""
    accv = peer.accv
    states_in_set = peer.states[set_index]
    state = states_in_set[way]
    next_state, invalidates, is_hit = peer.trans[op][state]
    supplied_dirty = is_hit and _DIRTY_OF[state]
    if supplied_dirty:
        accv[_CID_SUPPLIED_DIRTY] += 1
    if invalidates:
        peer.invalidate(set_index, way)
        accv[_CID_INVALIDATED] += 1
    else:
        states_in_set[way] = next_state
    return supplied_dirty


def _snoop_offered(node: _CompiledNode, op: int, addr: int, now: float):
    """NodeController.process_remote with its buffer offer (admission).

    Counts the snoop and offers it to the node's buffer; a refused snoop
    is dropped without a probe.  Returns None when the line is not held
    or the snoop was refused, else whether dirty data was supplied.
    """
    node.accv[_CID_REMOTE_READ if op == _REMOTE_READ else _CID_REMOTE_WRITE] += 1
    if not node.offer(now):
        return None
    set_index = (addr >> node.off_bits) & node.set_mask
    way = node.ways[set_index].get(addr >> node.tag_shift, -1)
    if way < 0:
        return None
    return _snoop_hit(node, op, set_index, way)


def _broadcast_offered(local: _CompiledNode, op, addr, now) -> bool:
    """Snoop every peer in admission mode; returns whether any held the
    line, counting dirty read supplies as interventions."""
    held = False
    for peer in local.peers:
        supplied_dirty = _snoop_offered(peer, op, addr, now)
        if supplied_dirty is not None:
            held = True
            if supplied_dirty and op == _REMOTE_READ:
                local.accv[_CID_INTERVENTION] += 1
    return held


def _broadcast_tallied(local: _CompiledNode, op, addr, now) -> bool:
    """Snoop every peer in closed form: tally the broadcast for
    settlement, then probe; returns whether any peer held the line."""
    if op == _REMOTE_READ:
        local.snoop_rd += 1
    else:
        local.snoop_wr += 1
    local.snoop_t = now
    held = False
    for peer in local.peers:
        peer_set = (addr >> peer.off_bits) & peer.set_mask
        peer_way = peer.ways[peer_set].get(addr >> peer.tag_shift, -1)
        if peer_way >= 0:
            held = True
            if _snoop_hit(peer, op, peer_set, peer_way) and op == _REMOTE_READ:
                local.accv[_CID_INTERVENTION] += 1
    return held


def _process_local(local: _CompiledNode, cmd, addr, resp, now, broadcast) -> None:
    """One local tenure on a _CompiledNode, after its buffer admission.

    ``broadcast(local, op, addr, now)`` snoops the peers in the runner's
    buffer regime (:func:`_broadcast_offered` or
    :func:`_broadcast_tallied`).  A node without peers skips the call:
    nothing would be snooped, and no settlement reads its snoop tallies.
    """
    accv = local.accv
    base_cid, extra_cid, op, hit_cid, miss_cid, fetches = _CMD_TAB[cmd]
    accv[base_cid] += 1
    if extra_cid >= 0:
        accv[extra_cid] += 1

    set_index = (addr >> local.off_bits) & local.set_mask
    tag = addr >> local.tag_shift
    ways = local.ways[set_index]
    way = ways.get(tag, -1)

    if way >= 0:
        states_in_set = local.states[set_index]
        state = states_in_set[way]
        next_state, invalidates, _is_hit = local.trans[op][state]
        accv[hit_cid] += 1
        accv[_HIT_STATE_CID[state]] += 1
        if invalidates:
            local.invalidate(set_index, way)
        else:
            states_in_set[way] = next_state
            if local.is_lru:
                if way:
                    tags_in_set = local.tags[set_index]
                    tags_in_set.insert(0, tags_in_set.pop(way))
                    states_in_set.insert(0, states_in_set.pop(way))
                    # Back to front: a duplicate keeps its first occurrence.
                    for position in range(way, -1, -1):
                        ways[tags_in_set[position]] = position
            elif local.touch_meta is not None:
                meta = local.meta
                meta[set_index] = local.touch_meta(way, meta[set_index])
        if op == _LOCAL_WRITE and (state == _SHARED or state == _OWNED):
            if local.peers:
                broadcast(local, _REMOTE_WRITE, addr, now)
        if fetches:
            accv[_SAT_HIT_CID[resp]] += 1
        return

    accv[miss_cid] += 1
    if op == _LOCAL_CASTOUT:
        accv[_CID_INCLUSION] += 1
        fill = local.fill_write
    elif op == _LOCAL_WRITE:
        if local.peers:
            broadcast(local, _REMOTE_WRITE, addr, now)
        fill = local.fill_write
    elif local.peers and broadcast(local, _REMOTE_READ, addr, now):
        fill = local.fill_read_shared
    else:
        fill = local.fill_read_alone
    victim_state = _install_inline(local, set_index, tag, fill)
    accv[_FILL_CID[fill]] += 1
    if victim_state >= 0:
        if _DIRTY_OF[victim_state]:
            accv[_CID_EVICT_DIRTY] += 1
        else:
            accv[_CID_EVICT_CLEAN] += 1
    if fetches:
        accv[_SAT_MISS_CID[resp]] += 1


def _install_inline(local: _CompiledNode, set_index, tag, fill) -> int:
    """Inlined directory.install with incremental way-map maintenance.

    Returns the victim's state, or -1 when no line was evicted —
    transcribed from repro.memories.replacement so every victim choice
    matches the object path.  ``random`` calls the directory itself: its
    victims come from the policy's RNG stream.
    """
    tags_in_set = local.tags[set_index]
    states_in_set = local.states[set_index]
    ways = local.ways[set_index]
    policy_code = local.policy_code
    if policy_code <= _POLICY_FIFO:
        # LRU / FIFO: insert at front, evict from the back.
        victim_state = -1
        if len(tags_in_set) >= local.assoc:
            victim_tag = tags_in_set.pop()
            victim_state = states_in_set.pop()
            del ways[victim_tag]
        tags_in_set.insert(0, tag)
        states_in_set.insert(0, fill)
        # Back to front, so a (corrupted) duplicate tag maps to its first
        # occurrence, as _rebuild_way_map would.
        for position in range(len(tags_in_set) - 1, -1, -1):
            ways[tags_in_set[position]] = position
        return victim_state
    if policy_code == _POLICY_RANDOM:
        evicted = local.install(set_index, tag, fill)
        return -1 if evicted is None else evicted[1]
    # PLRU: stable way positions, tree bits in the set's metadata word.
    meta = local.meta
    fill_level = len(tags_in_set)
    if fill_level < local.assoc:
        tags_in_set.append(tag)
        states_in_set.append(fill)
        ways[tag] = fill_level
        meta[set_index] = local.touch_meta(fill_level, meta[set_index])
        return -1
    way = local.victim_way(meta[set_index])
    victim_tag = tags_in_set[way]
    victim_state = states_in_set[way]
    del ways[victim_tag]
    tags_in_set[way] = tag
    states_in_set[way] = fill
    ways[tag] = way
    if victim_tag in tags_in_set:
        # A corrupted duplicate of the victim survives; the map keeps its
        # first occurrence, as _rebuild_way_map would.
        ways[victim_tag] = tags_in_set.index(victim_tag)
    meta[set_index] = local.touch_meta(way, meta[set_index])
    return victim_state


def _protocol_runner(firmware, closed_form: bool, set_lanes: bool = False):
    """Build the cache-protocol runner, or None when ineligible.

    Eligible when the firmware exposes precomputed coherence-group
    routing and every node uses the constant-service transaction buffer
    (no SDRAM timing model), an unprotected directory (no ECC) and a
    stock replacement policy.  This check is the only place that decides
    between this runner and the generic one.  ``closed_form`` picks the
    buffer regime (see the module docstring).
    """
    groups = getattr(firmware, "_groups", None)
    if groups is None:
        return None
    compiled_of: dict = {}
    for _local_by_cpu, _peers_of, controllers in groups:
        for node in controllers:
            if node.sdram is not None or node.ecc:
                return None
            if type(node.directory.policy) not in _POLICY_CODE:
                return None
            if id(node) not in compiled_of:
                compiled_of[id(node)] = _CompiledNode(node)
    all_nodes = list(compiled_of.values())
    compiled_groups = []
    for local_by_cpu, peers_of, controllers in groups:
        for node in controllers:
            compiled_of[id(node)].peers = tuple(
                compiled_of[id(peer)] for peer in peers_of[node.index]
            )
        local_table: List[Optional[_CompiledNode]] = [None] * 256
        for cpu, node in local_by_cpu.items():
            if cpu > 255:  # the packed trace cpu field is 8 bits wide
                return None
            local_table[cpu] = compiled_of[id(node)]
        compiled_groups.append(
            (local_table, tuple(compiled_of[id(node)] for node in controllers))
        )
    if not closed_form:
        return _admission_run(compiled_groups, all_nodes)
    return _closed_form_run(compiled_groups, all_nodes, set_lanes)


def _admission_run(compiled_groups, all_nodes):
    """Per-tenure admission: CacheEmulationFirmware.process with every
    buffer offer replayed; the runner returns the retry count."""
    process_local = _process_local
    broadcast = _broadcast_offered

    def run(cpus, cmds, addrs, resps, nows) -> int:
        for node in all_nodes:
            node.load()
        retries = 0
        for cpu, cmd, addr, resp, now in zip(
            cpus.tolist(), cmds.tolist(), addrs.tolist(),
            resps.tolist(), nows.tolist(),
        ):
            # Admission pre-check across every group before any state
            # changes (a refused tenure must be side-effect free).
            refused = False
            for local_table, _controllers in compiled_groups:
                local = local_table[cpu]
                if local is not None:
                    ft = local.ft
                    while ft and ft[0] <= now:
                        ft.popleft()
                    if len(ft) >= local.capacity:
                        local.rejected += 1
                        refused = True
            if refused:
                retries += 1
                continue

            for local_table, controllers in compiled_groups:
                local = local_table[cpu]
                if local is None:
                    # Unmapped master (see CacheEmulationFirmware.process).
                    if cmd == _READ:
                        op = _REMOTE_READ
                    elif cmd == _CASTOUT and cpu <= MAX_PROCESSOR_ID:
                        continue
                    else:
                        op = _REMOTE_WRITE
                    for node in controllers:
                        _snoop_offered(node, op, addr, now)
                    continue
                # The pre-check drained this queue at the same `now` and
                # found room, and nothing has been enqueued since.
                local.enqueue(now)
                process_local(local, cmd, addr, resp, now, broadcast)
        for node in all_nodes:
            node.store()
        return retries

    return run


def _deep_chunk_sets(node: _CompiledNode, addrs: np.ndarray):
    """The chooser between the loop and set lockstep: the set index of
    each address when the chunk has at least :data:`LOCKSTEP_MIN_DEPTH`
    admitted tenures per touched set, else None."""
    sets = ((addrs >> np.uint64(node.off_bits))
            & np.uint64(node.set_mask)).astype(np.intp)
    touched = np.count_nonzero(np.bincount(sets, minlength=node.set_mask + 1))
    return sets if sets.shape[0] >= LOCKSTEP_MIN_DEPTH * touched else None


def _closed_form_run(compiled_groups, all_nodes, set_lanes: bool):
    """Closed form: one local tenure per coherence group that maps the
    cpu, and a probe of every controller of a group that does not.

    A chunk of a single group may instead replay on
    :mod:`repro.memories.lockstep`, when ``set_lanes`` holds (the board
    grants ``per_set_independence``), the group has a lockstep form and
    the chunk is deep; the loop then replays the sets the lanes cannot.
    """
    process_local = _process_local
    broadcast = _broadcast_tallied
    snoop_hit = _snoop_hit
    lanes = None
    # Only a single group has lanes; cleared once it turns out to have none.
    deep_sets = set_lanes and len(compiled_groups) == 1

    def loop(cpus, cmds, addrs, resps, nows):
        """Replay admitted tenures one by one; returns each group's
        unmapped-master tallies ``[reads, writes, last time]``."""
        groups = [
            (local_table, controllers, [0, 0, _NEVER])
            for local_table, controllers in compiled_groups
        ]
        for cpu, cmd, addr, resp, now in zip(
            cpus.tolist(), cmds.tolist(), addrs.tolist(),
            resps.tolist(), nows.tolist(),
        ):
            for local_table, controllers, unmapped in groups:
                local = local_table[cpu]
                if local is not None:
                    local.local_n += 1
                    local.local_t = now
                    process_local(local, cmd, addr, resp, now, broadcast)
                    continue
                # Unmapped master: probe the group's controllers directly.
                if cmd == _READ:
                    op = _REMOTE_READ
                    unmapped[0] += 1
                elif cmd == _CASTOUT and cpu <= MAX_PROCESSOR_ID:
                    continue
                else:
                    op = _REMOTE_WRITE
                    unmapped[1] += 1
                unmapped[2] = now
                for node in controllers:
                    node_set = (addr >> node.off_bits) & node.set_mask
                    node_way = node.ways[node_set].get(
                        addr >> node.tag_shift, -1
                    )
                    if node_way >= 0:
                        snoop_hit(node, op, node_set, node_way)
        return [unmapped for _local_table, _controllers, unmapped in groups]

    def run(cpus, cmds, addrs, resps, nows) -> int:
        nonlocal lanes, deep_sets
        for node in all_nodes:
            node.begin()
        sets = (
            _deep_chunk_sets(compiled_groups[0][1][0], addrs)
            if deep_sets else None
        )
        if sets is not None and lanes is None:
            # Imported at the first deep chunk (it imports this module's
            # constants), so that a process replaying only shallow chunks,
            # such as a forked service worker, never loads it.
            from repro.memories import lockstep

            lanes = lockstep.plan(*compiled_groups[0])
            deep_sets = lanes is not None
        if sets is not None and lanes is not None:
            tallies = [lanes.run(
                sets, cpus, cmds, addrs, resps, nows,
                lambda *chunk: loop(*chunk)[0],
            )]
        else:
            tallies = loop(cpus, cmds, addrs, resps, nows)
        for (_local_table, controllers), unmapped in zip(
            compiled_groups, tallies
        ):
            _settle_group(controllers, unmapped)
        return 0

    return run


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _buffers_decoupled(board, proof=None) -> bool:
    """Whether the closed-form buffer settlement is exact for this call.

    Two conditions.  The static one is the prover's
    ``NO_GLOBAL_ORDER_COUPLING``: every service time is at most the bus
    tenure, so a finish time never outlives the next tenure and queue
    depth never exceeds one.  The dynamic one is the occupancy guard: no
    queued finish time may lie beyond the call's first tenure, which a
    fault injector's burst (``TransactionBuffer.inject_occupancy``) or a
    restored checkpoint can otherwise leave behind.
    """
    if proof is None:
        proof = prove_capabilities(board)
    if not proof.grants(Capability.NO_GLOBAL_ORDER_COUPLING):
        return False
    # Finish times are appended in ascending order and _last_finish is
    # the latest, so it bounds every queued one.
    first_tenure = board.now_cycle + board.cycles_per_tenure
    return all(
        node.buffer._last_finish <= first_tenure
        for node in getattr(board.firmware, "nodes", ())
    )


def replay_words_compiled(board, words: np.ndarray) -> int:
    """Replay packed records through the compiled engine; returns the count.

    Precondition (proven statically by the engine registry): the board
    grants ``INERT_BACKGROUND_TICK``.  The runner is chosen here, once
    per call: the protocol runner in closed form when the buffers are
    decoupled, in per-tenure admission mode otherwise, and the generic
    runner for firmware the protocol runner refuses.
    """
    if int(words.shape[0]) == 0:
        return 0
    proof = prove_capabilities(board)
    closed_form = _buffers_decoupled(board, proof)
    runner = _protocol_runner(
        board.firmware, closed_form=closed_form,
        set_lanes=proof.grants(Capability.PER_SET_INDEPENDENCE),
    )
    if runner is None:
        runner = _generic_runner(board.firmware)
    return replay_with_runner(board, words, runner)
