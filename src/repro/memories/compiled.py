"""The compiled engine: the in-process fast replay path.

:func:`replay_words_compiled` drives the chunk loop
(:func:`repro.memories.batch.replay_with_runner`): vectorised decode and
admit mask, bulk filter and global-counter updates, the ``cumsum``
clock, chunks split at telemetry countdowns.  It is also the one place
that picks what runs per admitted tenure, once per call, from three
regimes:

* **the closed-form loop** (:func:`_closed_form_run`), for the stock
  cache-emulation firmware when its buffers are decoupled;
* **the set lanes** (:mod:`repro.memories.lockstep`), which the same
  runner takes for a deep chunk, on every group at once;
* **the generic runner** (:func:`~repro.memories.batch._generic_runner`),
  ``firmware.process`` per admitted tenure, for everything else: images
  the protocol runner refuses (SDRAM-priced or ECC nodes, custom
  replacement classes, the tracer and the other firmware) and stock
  boards whose buffers are coupled, which the scalar firmware replays
  exactly whatever the buffer timing.

The protocol runner works on one view per node controller
(:class:`_CompiledNode`): the directory rows it borrowed for the call
(:class:`_Loan`), a dense ``(op, state)`` transition table, cpu-indexed
routing, and an integer-indexed counter accumulator over a fixed counter
vocabulary (:data:`COUNTER_NAMES`).

Its buffers settle in closed form.  That needs no service time above
the bus tenure.  Float addition is monotone, so every finish time is at
most the next tenure's time and each admission finds its queue drained.
A chunk's admissions then leave ``accepted += n`` and the single finish
time ``t_last + service`` (:meth:`_CompiledNode.settle`), so the runner
only tallies admissions per issuer.  Both the service bound and a
drained starting queue are checked on entry (:func:`_buffers_decoupled`);
a board that fails either (buffers slower than the tenure, a restored or
injected backlog) replays the call on the generic runner.

Bit-identity with the scalar loop, per structure:

* **Clock and chunking** come from the shared chunk loop, unchanged.
* **Directory** mutations apply in tenure order (within each set, in
  the lockstep form) to the directory's own rows: borrowed as padded
  lists by the loop, gathered and scattered as arrays by the lanes.
  LRU move-to-front, FIFO insert-front / evict-back, the PLRU tree bits
  and ``random`` victims are transcribed from
  :mod:`repro.memories.replacement` (:func:`_install_inline`), the
  invalidation shift from
  :class:`~repro.memories.cache_model.TagStateDirectory`.  A probe finds
  a tag's first copy, as the directory's does.  Installs happen in
  tenure order, so the board-wide RNG is drawn in the scalar order.
* **Counters** accumulate as a commutative reordering of the increments
  within one chunk and are flushed into the real counter banks at chunk
  end, before any observer (``on_countdown`` → ``board.statistics()``)
  can look.

The transition logic exists in three forms: the scalar
``NodeController``, :func:`_process_local`, which the closed-form loop
calls once per local tenure whatever the group shape, and its
set-lockstep form (:mod:`repro.memories.lockstep`).  The
bit-identity suite in ``tests/test_batched_replay.py`` holds them in
lock-step.

The lockstep form replays a deep chunk of one group set by set, all
sets at once.  It is sound when every node of the group maps an address
to the same set and picks victims from its own set's history (LRU, FIFO
or PLRU; :func:`lockstep.plan <repro.memories.lockstep.plan>` refuses
``random``, whose draws come from one board-wide stream in global
order).  Nothing else couples the sets on this runner: it refuses
SDRAM-priced nodes, whose service times depend on global access order,
and its buffers settle in closed form.  A tenure then reads and writes
one set on every node and nothing else, so each set's history depends
only on its own tenures, in their order.  Counters are sums and the
closed-form tallies are counts and maxima of rising tenure times, so
neither depends on the interleaving of sets.  Groups share no directory,
so :func:`_closed_form_run` replays a deep chunk on every group's lanes,
or the whole chunk on the loop.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional

import numpy as np

from repro.bus.transaction import MAX_PROCESSOR_ID, BusCommand
from repro.memories.batch import _generic_runner, replay_with_runner
from repro.memories.cache_model import EMPTY_TAG
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

#: A chunk with at least this many admitted tenures replays in set
#: lockstep (:mod:`repro.memories.lockstep`) when every group can;
#: docs/architecture.md has the measured crossover.
LOCKSTEP_MIN_TENURES = 384


class _CompiledNode:
    """Hot-path view of one NodeController.

    Holds the controller's directory and transaction buffer, the rows it
    borrowed from the directory (``tags``, ``states`` and, under PLRU,
    ``meta``: dicts by set, None when nothing is borrowed), a dense
    ``(op, state) -> (next_state, invalidates, is_hit)`` table, the
    constants the inlined install path needs, and ``accv``, an
    integer-indexed counter accumulator (one slot per
    :data:`COUNTER_NAMES` entry).

    For the closed-form buffer settlement it keeps the chunk's admission
    tallies (reset by :meth:`begin`): ``local_n`` / ``local_t`` count
    this node's own tenures and hold the time of the last; ``snoop_rd``
    / ``snoop_wr`` count the read and write snoops it broadcast to its
    peers and ``snoop_t`` holds the time of the last.
    """

    __slots__ = (
        "buffer", "service", "directory", "tags", "states", "meta", "lent",
        "off_bits", "set_mask", "tag_shift",
        "trans", "fill_write", "fill_read_shared", "fill_read_alone",
        "policy_code", "assoc", "is_lru",
        "touch_meta", "victim_way", "rng", "accv", "counters", "peers",
        "local_n", "local_t", "snoop_rd", "snoop_wr", "snoop_t",
    )

    def __init__(self, node) -> None:
        buffer = node.buffer
        self.buffer = buffer
        self.service = buffer.service_cycles
        directory = node.directory
        self.directory = directory
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
        policy = directory.policy
        self.policy_code = _POLICY_CODE[type(policy)]
        self.assoc = node.config.assoc
        self.is_lru = type(policy) is LruPolicy
        is_plru = type(policy) is PlruPolicy
        self.touch_meta = policy._update_on_access if is_plru else None
        self.victim_way = policy.victim_way if is_plru else None
        self.rng = policy._rng if type(policy) is RandomPolicy else None
        self.tags: dict = {}
        self.states: dict = {}
        self.meta: Optional[dict] = {} if is_plru else None
        self.lent = np.zeros(amap.num_sets, dtype=bool)
        self.accv = [0] * len(COUNTER_NAMES)
        self.counters = node.counters
        self.peers: tuple = ()

    def borrow(self, sets: np.ndarray) -> None:
        """Add the directory rows of ``sets`` that are not out yet to the
        borrowed rows (padded lists, by set)."""
        new = sets[~self.lent[sets]]
        if not new.shape[0]:
            return
        self.lent[new] = True
        directory = self.directory
        keys = new.tolist()
        self.tags.update(zip(keys, directory._tags[new].tolist()))
        self.states.update(zip(keys, directory._states[new].tolist()))
        if self.meta is not None:
            self.meta.update(zip(keys, directory._meta[new].tolist()))

    def give_back(self) -> None:
        """Write the borrowed rows back into the directory's arrays."""
        if not self.tags:
            return
        directory = self.directory
        sets = np.fromiter(self.tags, dtype=np.intp, count=len(self.tags))
        self.lent[sets] = False
        shape = (sets.shape[0], self.assoc)
        for rows, array in ((self.tags, directory._tags),
                            (self.states, directory._states)):
            array[sets] = np.fromiter(
                chain.from_iterable(rows.values()), dtype=np.int64,
                count=shape[0] * shape[1],
            ).reshape(shape)
            rows.clear()
        if self.meta is not None:
            directory._meta[sets] = np.fromiter(
                self.meta.values(), dtype=np.int64, count=shape[0]
            )
            self.meta.clear()

    def flush_counters(self) -> None:
        """Move the accumulated counts into the node's counter bank."""
        counters = self.counters
        accv = self.accv
        for cid, value in enumerate(accv):
            if value:
                counters.increment(COUNTER_NAMES[cid], value)
                accv[cid] = 0

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


class _Loan:
    """The directory rows one replay call lends its protocol loop.

    The loop probes and edits one set at a time, where a short Python
    list beats numpy indexing many times over.  So each loop chunk
    borrows, on every node, the rows of the sets its tenures address
    that are not out yet (:meth:`_CompiledNode.borrow`): a set's row is
    converted once per call, not once per chunk.  The rows go back into
    the arrays when the call ends (:func:`_replay_lent`), or earlier,
    before a chunk replays on the set lanes, which read and write the
    arrays themselves.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes) -> None:
        self.nodes = nodes

    def take(self, addrs: np.ndarray) -> None:
        """Borrow the rows of every set ``addrs`` address."""
        sets_of: dict = {}
        for node in self.nodes:
            geometry = (node.off_bits, node.set_mask)
            sets = sets_of.get(geometry)
            if sets is None:
                sets = sets_of[geometry] = _distinct(
                    (addrs >> np.uint64(node.off_bits))
                    & np.uint64(node.set_mask)
                )
            node.borrow(sets)

    def give_back(self) -> None:
        """Return every borrowed row."""
        for node in self.nodes:
            node.give_back()


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct ``values``, by sort and neighbour compare.

    ``np.unique`` gives the same array, but first checks for a masked
    array, which imports ``numpy.ma`` on first use: a forked service
    worker would pay that import on its first loop chunk, every
    session."""
    values = np.sort(values)
    keep = np.ones(values.shape[0], dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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


def _invalidate_row(tags_in_set, states_in_set, way) -> None:
    """directory.invalidate on a borrowed row: the lines after ``way``
    move up one, an empty way joins the end."""
    del tags_in_set[way]
    tags_in_set.append(EMPTY_TAG)
    del states_in_set[way]
    states_in_set.append(0)


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
        _invalidate_row(peer.tags[set_index], states_in_set, way)
        accv[_CID_INVALIDATED] += 1
    else:
        states_in_set[way] = next_state
    return supplied_dirty


def _broadcast_tallied(local: _CompiledNode, op, addr, now) -> bool:
    """Snoop every peer: tally the broadcast for settlement, then probe;
    returns whether any peer held the line."""
    if op == _REMOTE_READ:
        local.snoop_rd += 1
    else:
        local.snoop_wr += 1
    local.snoop_t = now
    held = False
    for peer in local.peers:
        peer_set = (addr >> peer.off_bits) & peer.set_mask
        peer_tags = peer.tags[peer_set]
        peer_tag = addr >> peer.tag_shift
        if peer_tag in peer_tags:
            held = True
            if (_snoop_hit(peer, op, peer_set, peer_tags.index(peer_tag))
                    and op == _REMOTE_READ):
                local.accv[_CID_INTERVENTION] += 1
    return held


def _process_local(local: _CompiledNode, cmd, addr, resp, now) -> None:
    """One local tenure on a _CompiledNode.

    A node without peers skips :func:`_broadcast_tallied`: nothing would
    be snooped, and no settlement reads its snoop tallies.
    """
    accv = local.accv
    base_cid, extra_cid, op, hit_cid, miss_cid, fetches = _CMD_TAB[cmd]
    accv[base_cid] += 1
    if extra_cid >= 0:
        accv[extra_cid] += 1

    set_index = (addr >> local.off_bits) & local.set_mask
    tag = addr >> local.tag_shift
    tags_in_set = local.tags[set_index]

    if tag in tags_in_set:
        way = tags_in_set.index(tag)
        states_in_set = local.states[set_index]
        state = states_in_set[way]
        next_state, invalidates, _is_hit = local.trans[op][state]
        accv[hit_cid] += 1
        accv[_HIT_STATE_CID[state]] += 1
        if invalidates:
            _invalidate_row(tags_in_set, states_in_set, way)
        else:
            states_in_set[way] = next_state
            if local.is_lru:
                if way:
                    tags_in_set.insert(0, tags_in_set.pop(way))
                    states_in_set.insert(0, states_in_set.pop(way))
            elif local.touch_meta is not None:
                meta = local.meta
                meta[set_index] = local.touch_meta(way, meta[set_index])
        if op == _LOCAL_WRITE and (state == _SHARED or state == _OWNED):
            if local.peers:
                _broadcast_tallied(local, _REMOTE_WRITE, addr, now)
        if fetches:
            accv[_SAT_HIT_CID[resp]] += 1
        return

    accv[miss_cid] += 1
    if op == _LOCAL_CASTOUT:
        accv[_CID_INCLUSION] += 1
        fill = local.fill_write
    elif op == _LOCAL_WRITE:
        if local.peers:
            _broadcast_tallied(local, _REMOTE_WRITE, addr, now)
        fill = local.fill_write
    elif local.peers and _broadcast_tallied(local, _REMOTE_READ, addr, now):
        fill = local.fill_read_shared
    else:
        fill = local.fill_read_alone
    victim_state = _install_inline(local, set_index, tags_in_set, tag, fill)
    accv[_FILL_CID[fill]] += 1
    if victim_state >= 0:
        if _DIRTY_OF[victim_state]:
            accv[_CID_EVICT_DIRTY] += 1
        else:
            accv[_CID_EVICT_CLEAN] += 1
    if fetches:
        accv[_SAT_MISS_CID[resp]] += 1


def _install_inline(local: _CompiledNode, set_index, tags_in_set, tag,
                    fill) -> int:
    """Inlined directory.install on a borrowed row.

    Returns the victim's state, or -1 when no line was evicted —
    transcribed from repro.memories.replacement so every victim choice
    matches the object path.  ``random`` draws its victim from the
    policy's own RNG, one draw per full-set install, in tenure order.
    """
    states_in_set = local.states[set_index]
    policy_code = local.policy_code
    if policy_code <= _POLICY_FIFO:
        # LRU / FIFO: insert at front; the last way (a victim or an
        # empty way) drops off the back.
        victim_state = states_in_set.pop()
        if tags_in_set.pop() < 0:
            victim_state = -1
        tags_in_set.insert(0, tag)
        states_in_set.insert(0, fill)
        return victim_state
    # PLRU and random: stable way positions; a set with room fills its
    # first empty way.
    if tags_in_set[-1] < 0:
        way = tags_in_set.index(EMPTY_TAG)
        victim_state = -1
    elif policy_code == _POLICY_RANDOM:
        way = int(local.rng.integers(0, local.assoc))
        victim_state = states_in_set[way]
    else:
        way = local.victim_way(local.meta[set_index])
        victim_state = states_in_set[way]
    tags_in_set[way] = tag
    states_in_set[way] = fill
    if policy_code == _POLICY_PLRU:
        meta = local.meta
        meta[set_index] = local.touch_meta(way, meta[set_index])
    return victim_state


def _protocol_runner(firmware):
    """Build the cache-protocol runner, or None when ineligible.

    Eligible when the firmware exposes precomputed coherence-group
    routing and every node uses the constant-service transaction buffer
    (no SDRAM timing model), an unprotected directory (no ECC) and a
    stock replacement policy.  With :func:`_buffers_decoupled` this
    check decides between this runner and the generic one.  The runner
    settles buffers in closed form, so the caller must have checked
    that they are decoupled.
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
    loan = _Loan(all_nodes)
    run = _closed_form_run(compiled_groups, all_nodes, loan)
    run.loan = loan
    return run


def _closed_form_run(compiled_groups, all_nodes, loan):
    """Closed form: one local tenure per coherence group that maps the
    cpu, and a probe of every controller of a group that does not.

    A chunk with at least :data:`LOCKSTEP_MIN_TENURES` admitted tenures
    replays instead on the set lanes of every group
    (:mod:`repro.memories.lockstep`) when every group has a lockstep form
    and represents every set the chunk touches.
    """
    process_local = _process_local
    snoop_hit = _snoop_hit
    # Each group's lockstep form, planned on the first deep chunk.
    plans = None

    def loop(cpus, cmds, addrs, resps, nows):
        """Replay admitted tenures one by one; returns each group's
        unmapped-master tallies ``[reads, writes, last time]``."""
        loan.take(addrs)
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
                    process_local(local, cmd, addr, resp, now)
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
                    node_tags = node.tags[node_set]
                    node_tag = addr >> node.tag_shift
                    if node_tag in node_tags:
                        snoop_hit(node, op, node_set, node_tags.index(node_tag))
        return [unmapped for _local_table, _controllers, unmapped in groups]

    def run(cpus, cmds, addrs, resps, nows) -> int:
        nonlocal plans
        for node in all_nodes:
            node.begin()
        tallies = None
        if cpus.shape[0] >= LOCKSTEP_MIN_TENURES:
            if plans is None:
                plans = [lockstep.plan(*group) for group in compiled_groups]
            if all(plans):
                # The lanes read the arrays; ordering writes nothing.
                loan.give_back()
                orders = [plan.order(cpus, cmds, addrs, resps)
                          for plan in plans]
                if None not in orders:
                    tallies = [plan.replay(order, addrs, nows)
                               for plan, order in zip(plans, orders)]
        if tallies is None:
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


def _buffers_decoupled(board) -> bool:
    """Whether the closed-form buffer settlement is exact for this call,
    and so whether the protocol runner may replay it.

    Two conditions on every node buffer.  The static one: its service
    time is at most the bus tenure, so a finish time never outlives the
    next tenure and queue depth never exceeds one.  The dynamic one is
    the occupancy guard: no queued finish time may lie beyond the call's
    first tenure, which a fault injector's burst
    (``TransactionBuffer.inject_occupancy``) or a restored checkpoint can
    otherwise leave behind.

    The address filter's buffer is not checked: neither runner touches
    it, and the chunk loop's ``offer_batch`` replays it exactly at any
    spacing.
    """
    tenure = board.cycles_per_tenure
    first_tenure = board.now_cycle + tenure
    # Finish times are appended in ascending order and _last_finish is
    # the latest, so it bounds every queued one.
    return all(
        node.buffer.service_cycles <= tenure
        and node.buffer._last_finish <= first_tenure
        for node in getattr(board.firmware, "nodes", ())
    )


def replay_words_compiled(board, words: np.ndarray) -> int:
    """Replay packed records through the compiled engine; returns the count.

    Precondition (proven statically by the engine registry): the board
    grants ``INERT_BACKGROUND_TICK``.  The runner is chosen here, once
    per call: the protocol runner when the buffers are decoupled and the
    firmware is one it takes, and the generic runner otherwise.
    """
    if int(words.shape[0]) == 0:
        return 0
    runner = None
    if _buffers_decoupled(board):
        runner = _protocol_runner(board.firmware)
    if runner is None:
        return replay_with_runner(board, words, _generic_runner(board.firmware))
    return _replay_lent(board, words, runner)


def _replay_lent(board, words: np.ndarray, runner) -> int:
    """``replay_with_runner`` for a protocol runner: the rows its loop
    borrowed are back in the directories' arrays when this returns, also
    when replay raises."""
    try:
        return replay_with_runner(board, words, runner)
    finally:
        runner.loan.give_back()


# The set lanes read this module's tables, so they are imported once
# those exist.  Every importer of the engine thus loads them too, the
# engine registry at module level among them, so forked service workers
# inherit the module instead of compiling it.
from repro.memories import lockstep  # noqa: E402
