"""Set-lockstep replay: every cache set of a call stepped at once.

The protocol runner (:func:`repro.memories.compiled._protocol_runner`)
hands a coherence group the admitted tenures of one replay call.  When
every node of the group maps an address to the same set, a tenure reads
and writes that one set on every node and nothing else: its local
probe, its peer snoops and its install.  That runner takes no
SDRAM-priced node and no ``random`` policy (its victims come from one
board-wide RNG stream) and settles its buffers in closed form, so cache
sets are then independent: a call may be replayed in any interleaving
that keeps each set's own tenure order.  This module steps all sets
together, as numpy lanes:

* **Order.**  The call's tenures are stable-sorted by set and ranked
  within their set.  Lanes are the touched sets, deepest first, so the
  lanes that still have a tenure at rank *k* are a prefix of the lane
  axis.  Step *k* plays the rank-*k* tenure of every such lane; its
  tenures are one contiguous block, in lane order, and index the lane
  arrays with a slice.  One sort of (lane, chunk index) keys orders the
  tenures; their step positions follow from the lanes' depths alone.
  (A tenure's chunk index is its position among the call's admitted
  tenures.)
* **Kinds.**  Each tenure carries one packed ``int16`` key, its kind:
  its issuer's slot (a node of the group, an unmapped processor or
  another unmapped master), its command and its response.  Small
  per-kind tables, built once per group, give by one ``take`` each
  whether the lanes take the tenure, whether it is mapped, its home
  node, its key into the local tables, its two fills and its miss
  broadcast.
* **State.**  Each (lane, node) row is taken from the directory's
  arrays along the set axis, padded to ``assoc + 2`` columns: the ways,
  one spare column for the step's probe tag and the row's new state, and
  one column that stays empty (tag -1).  Lines are a prefix of the ways,
  as in the directory.  After the last step the rows are scattered
  straight back.
* **Step.**  One tag compare per way column, scanned from the last way
  to the first, gives the hit way on every row (``assoc`` is a miss, and
  the first copy of a duplicated tag wins).  The local tenure reads its
  own row's state only.  Peer work runs on the rows that hold the line,
  less each mapped tenure's own row, and nowhere else: their indices
  come from one ``flatnonzero``, and transition-table gathers on them
  give the snoop outcomes.  A peer that keeps the line writes its next
  state in place.  The local rows and the peers that lose the line take
  their new contents through one gather through :func:`_src_table`,
  which applies set-state, remove, LRU move-to-front, insert-front, PLRU
  append and PLRU replace, and are written back whole.  PLRU tree bits
  move through touch and victim tables built from the policy's own
  methods.
* **Counters and buffers.**  Each tenure's outcome is its kind, hit,
  outcome state and victim state, and which peers supplied dirty data
  or lost the line.  After the last step every tenure gets the code of
  its outcome among the call's distinct ones, in chunk order, and each
  code one row of effects: the counters it adds on every node and the
  buffers it is admitted to.  :meth:`SetLanes.commit` folds one
  telemetry window into the nodes' counters as one histogram of the
  window's codes times those rows.  The closed-form buffer settlement
  needs, per node, that count of admissions and the time of the last,
  which is the largest chunk index because tenure times rise.

A call replays in three steps.  :meth:`SetLanes.order` orders it, or
returns None, having written nothing, when it touches a set the lanes
cannot represent exactly: one that holds a state outside the protocol's
complete transition rows, or whose PLRU bits lie outside the tables;
the whole call then replays on the generic runner.
:meth:`SetLanes.replay` replays the ordered call, and
:meth:`SetLanes.commit` commits it window by window.  A set holding a
(corrupted) duplicate tag is representable: the probe finds the first
copy, as the directory's probe does.  Groups with mixed set mappings or
associativities have no lanes at all (:func:`plan`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bus.transaction import MAX_PROCESSOR_ID
from repro.memories.cache_model import EMPTY_TAG
from repro.memories.compiled import (
    _CASTOUT,
    _CID_EVICT_CLEAN,
    _CID_EVICT_DIRTY,
    _CID_INCLUSION,
    _CID_INTERVENTION,
    _CID_INVALIDATED,
    _CID_REMOTE_READ,
    _CID_REMOTE_WRITE,
    _CID_SUPPLIED_DIRTY,
    _CMD_TAB,
    _DIRTY_OF,
    _FILL_CID,
    _HIT_STATE_CID,
    _LOCAL_CASTOUT,
    _LOCAL_WRITE,
    _N_STATES,
    _OWNED,
    _POLICY_FIFO,
    _POLICY_LRU,
    _POLICY_PLRU,
    _READ,
    _REMOTE_READ,
    _REMOTE_WRITE,
    _SAT_HIT_CID,
    _SAT_MISS_CID,
    _SHARED,
    COUNTER_NAMES,
)

#: What a tenure broadcasts to the peers: nothing, a read, a write snoop.
_POP_NONE, _POP_READ, _POP_WRITE = 0, 1, 2
_POP_OPS = (None, _REMOTE_READ, _REMOTE_WRITE)
_ALL_OPS = sorted({op for _b, _e, op, _h, _m, _f in _CMD_TAB}
                  | {_REMOTE_READ, _REMOTE_WRITE})
_N_CMDS = len(_CMD_TAB)
_N_RESPS = len(_SAT_HIT_CID)
#: Counter slot that absorbs "no counter" outcomes.
_NO_COUNTER = len(COUNTER_NAMES)
#: A tenure's kind packs its slot, command and response into one small
#: integer, ``slot << _SLOT_SHIFT | command * _N_RESPS + response``, over
#: the raw 4-bit command and 2-bit response fields, so every field value
#: has a kind of its own.
_CMD_VALUES = 16
_SLOT_SHIFT = (_CMD_VALUES * _N_RESPS - 1).bit_length()
_KINDS_PER_SLOT = 1 << _SLOT_SHIFT
#: A lane tenure's outcome: hit, the state it leaves or fills, and its
#: victim's state plus one (0: nothing evicted), coded in the narrowest
#: integer type that holds every code.
_OUTCOMES = 2 * _N_STATES * (_N_STATES + 1)
_OUTCOME_TYPE = np.min_scalar_type(-_OUTCOMES)


def _src_table(assoc: int) -> np.ndarray:
    """``SRC[code, j]``: the column ``j`` of a row takes its new content
    from.  Column ``assoc`` is the spare (probe tag, new state), column
    ``assoc + 1`` the empty one; both keep their own content.

    Codes: ``PUT(w)`` for w in 0..assoc (``PUT(assoc)`` leaves the row
    as it is); then ``FRONT(w)`` for w in 0..assoc (the spare moves to
    way 0 and ways 0..w-1 shift back one, so ``FRONT(assoc)`` is
    insert-front dropping the last way); then ``REMOVE(w)`` for w in
    0..assoc-1.
    """
    spare, empty = assoc, assoc + 1
    rows = [[spare if j == w else j for j in range(assoc)]
            for w in range(assoc + 1)]
    rows += [[spare if j == 0 else j - 1 if j <= w else j
              for j in range(assoc)] for w in range(assoc + 1)]
    rows += [[j if j < w else j + 1 if j + 1 < assoc else empty
              for j in range(assoc)] for w in range(assoc)]
    return np.array([row + [spare, empty] for row in rows], dtype=np.intp)


def _as_rows(array: np.ndarray) -> np.ndarray:
    """A C-contiguous 2-D array as a 1-D array of its rows, one opaque
    item each: a fancy setitem then copies whole rows, where indexing
    rows this short would run numpy's inner loop once per row."""
    row = np.dtype((np.void, array.shape[1] * array.itemsize))
    return array.view(row).reshape(-1)


def _complete_states(node) -> Optional[frozenset]:
    """States with a transition for every op on ``node``; None when a
    fill or a transition leads out of them.  Lanes look transitions up
    for every row, so they hold only lines whose every lookup is one the
    loop could make."""
    trans = node.trans
    complete = frozenset(
        state for state in range(_N_STATES)
        if all(trans[op][state] is not None for op in _ALL_OPS)
    )
    reached = {node.fill_write, node.fill_read_shared, node.fill_read_alone}
    for op in _ALL_OPS:
        for state in complete:
            next_state, invalidates, _is_hit = trans[op][state]
            if not invalidates:
                reached.add(next_state)
    return complete if reached <= complete else None


def plan(local_table, controllers) -> Optional["SetLanes"]:
    """The lockstep form of one coherence group, or None when its nodes
    do not share one set mapping, associativity and policy, or run a
    protocol whose transitions leave its complete states."""
    first = controllers[0]
    geometry = (first.off_bits, first.set_mask, first.tag_shift,
                first.assoc, first.policy_code)
    for node in controllers:
        if (node.off_bits, node.set_mask, node.tag_shift, node.assoc,
                node.policy_code) != geometry:
            return None
        if _complete_states(node) is None:
            return None
    return SetLanes(local_table, controllers)


def _one_hot(cids) -> np.ndarray:
    """Rows that add one to counter ``cids[i]`` (``_NO_COUNTER``: none)."""
    table = np.zeros((len(cids), _NO_COUNTER + 1), dtype=np.int64)
    table[np.arange(len(cids)), cids] = 1
    return table


class SetLanes:
    """Static tables of one group's lockstep form; :meth:`order` and
    :meth:`replay` replay a call, :meth:`commit` commits its windows.
    Built by :func:`plan`."""

    def __init__(self, local_table, controllers) -> None:
        nodes = tuple(controllers)
        self.nodes = nodes
        n_nodes = len(nodes)
        first = nodes[0]
        self.off_bits = first.off_bits
        self.set_mask = first.set_mask
        self.tag_shift = first.tag_shift
        assoc = first.assoc
        self.assoc = assoc
        self.src = _src_table(assoc)
        put, front, remove = 0, assoc + 1, 2 * assoc + 2
        self.remove = remove
        # Local row code by hit * 2 + invalidates, before the way added to
        # it: the hit way, or ``assoc`` on a miss (insert-front) — PLRU
        # adds its allocation way instead.
        bases = {
            _POLICY_LRU: (front, front, front, remove),
            _POLICY_FIFO: (front, front, put, remove),
            _POLICY_PLRU: (put, put, put, remove),
        }[first.policy_code]
        self.local_code = np.array(bases, dtype=np.intp)

        # A tenure's kind: its slot (the group's nodes, then unmapped
        # processors, whose castouts touch nothing, as in
        # ``CacheEmulationFirmware.process``, then
        # the other unmapped masters, I/O bridges, whose castouts snoop as
        # writes), its command and its response.
        index_of = {id(node): i for i, node in enumerate(nodes)}
        unmapped_cpu, unmapped_other = n_nodes, n_nodes + 1
        n_slots = n_nodes + 2
        self.n_slots = n_slots
        #: Outcome keys, by (hit, state, victim state + 1, kind).
        self.n_keys = _OUTCOMES * n_slots * _KINDS_PER_SLOT
        slot_of_cpu = np.full(len(local_table), unmapped_other, dtype=np.int16)
        slot_of_cpu[:MAX_PROCESSOR_ID + 1] = unmapped_cpu
        for cpu, node in enumerate(local_table):
            if node is not None:
                slot_of_cpu[cpu] = index_of[id(node)]
        # At most 258 slots of 64 kinds: int16 holds every kind.
        self.kind_of_cpu = slot_of_cpu << _SLOT_SHIFT

        # By (node, cmd, state): the local next state, whether it
        # invalidates, and the write snoop of a write hit on SHARED/OWNED.
        shape = (n_nodes, _N_CMDS, _N_STATES)
        local_next = np.zeros(shape, dtype=np.int8)
        local_inv = np.zeros(shape, dtype=bool)
        hit_pop = np.zeros(shape, dtype=np.int8)
        # By (node, broadcast, state): whether the peer loses the line,
        # its next state and supplied-dirty flag.  No broadcast leaves
        # the peer as it is.
        pshape = (n_nodes, len(_POP_OPS), _N_STATES)
        peer_lost = np.zeros(pshape, dtype=bool)
        peer_next = np.zeros(pshape, dtype=np.int8)
        peer_next[:, _POP_NONE] = np.arange(_N_STATES)
        peer_dirty = np.zeros(pshape, dtype=bool)
        # One more column, always False, for states outside the table.
        complete = np.zeros((n_nodes, _N_STATES + 1), dtype=bool)
        # By kind: whether the lanes take it, whether it is mapped, its
        # home node (an unmapped tenure's stand-in is node 0), its key
        # into the local tables, its fill when a peer holds the line and
        # when none does (castouts and writes fill the same either way),
        # and what its miss broadcasts: castouts nothing, writes a write
        # snoop, reads a read snoop; unmapped masters read or write.
        # Commands the address filter never admits keep zeros.
        kinds = (n_slots, _CMD_VALUES, _N_RESPS)
        keep = np.ones(kinds, dtype=bool)
        keep[unmapped_cpu, _CASTOUT] = False
        mapped = np.zeros(kinds, dtype=bool)
        mapped[:n_nodes] = True
        home = np.zeros(kinds, dtype=np.intp)
        home[:n_nodes] = np.arange(n_nodes)[:, None, None]
        local_key = np.zeros(kinds, dtype=np.intp)
        fill_shared = np.zeros(kinds, dtype=np.int8)
        fill_alone = np.zeros(kinds, dtype=np.int8)
        miss_pop = np.zeros(kinds, dtype=np.int8)
        for cmd, (_b, _e, op, _h, _m, _f) in enumerate(_CMD_TAB):
            miss_pop[:n_nodes, cmd] = (_POP_NONE if op == _LOCAL_CASTOUT
                                       else _POP_WRITE if op == _LOCAL_WRITE
                                       else _POP_READ)
            miss_pop[n_nodes:, cmd] = (_POP_READ if cmd == _READ
                                       else _POP_WRITE)
        for n, node in enumerate(nodes):
            for state in _complete_states(node):
                complete[n, state] = True
                for cmd, (_b, _e, op, _h, _m, _f) in enumerate(_CMD_TAB):
                    next_state, invalidates, _is_hit = node.trans[op][state]
                    local_next[n, cmd, state] = next_state
                    local_inv[n, cmd, state] = invalidates
                    if op == _LOCAL_WRITE and state in (_SHARED, _OWNED):
                        hit_pop[n, cmd, state] = _POP_WRITE
                for pop in (_POP_READ, _POP_WRITE):
                    next_state, invalidates, is_hit = (
                        node.trans[_POP_OPS[pop]][state]
                    )
                    peer_next[n, pop, state] = next_state
                    peer_lost[n, pop, state] = invalidates
                    peer_dirty[n, pop, state] = is_hit and _DIRTY_OF[state]
            for cmd, (_b, _e, op, _h, _m, _f) in enumerate(_CMD_TAB):
                local_key[n, cmd] = (n * _N_CMDS + cmd) * _N_STATES
                if op == _LOCAL_CASTOUT or op == _LOCAL_WRITE:
                    fill_shared[n, cmd] = fill_alone[n, cmd] = node.fill_write
                else:
                    fill_shared[n, cmd] = node.fill_read_shared
                    fill_alone[n, cmd] = node.fill_read_alone
        self.local_next = local_next.ravel()
        self.local_inv = local_inv.ravel()
        self.hit_pop = hit_pop.ravel()
        self.peer_lost = peer_lost.ravel()
        self.peer_next = peer_next.ravel()
        # A peer's outcome flags: bit ``node`` when it supplies dirty
        # data, bit ``nodes + node`` when it loses the line.
        node_bit = (1 << np.arange(n_nodes, dtype=np.intp))[:, None, None]
        self.peer_flag = (peer_dirty * node_bit
                          + peer_lost * (node_bit << n_nodes)).ravel()
        self.peer_offset = np.arange(n_nodes, dtype=np.intp) * pshape[1] * pshape[2]
        self.complete = complete
        self.keep = keep.ravel()
        self.mapped = mapped.ravel()
        self.home = home.ravel()
        self.local_key = local_key.ravel()
        self.fill_shared = fill_shared.ravel()
        self.fill_alone = fill_alone.ravel()
        self.miss_pop = miss_pop.ravel()

        # PLRU tree bits: touch[meta * assoc + way] and victim[meta]
        # (at most 2**8 * 8 entries: associativity is at most 8).
        self.touch = self.victim = None
        if first.policy_code == _POLICY_PLRU:
            metas = range(1 << assoc)
            self.touch = np.array(
                [first.touch_meta(way, meta)
                 for meta in metas for way in range(assoc)],
                dtype=np.int64,
            )
            self.victim = np.array(
                [first.victim_way(meta) for meta in metas], dtype=np.intp
            )

        # How many of each counter one tenure adds, by (cmd, resp, hit):
        # primary, secondary, hit or miss, inclusion, satisfaction.
        events = np.zeros((_CMD_VALUES, _N_RESPS, 2, _NO_COUNTER + 1),
                          dtype=np.int64)
        for cmd, (base, extra, op, hit_cid, miss_cid, fetches) in enumerate(
            _CMD_TAB
        ):
            for resp in range(_N_RESPS):
                for hit in (0, 1):
                    row = events[cmd, resp, hit]
                    row[base] += 1
                    if extra >= 0:
                        row[extra] += 1
                    row[hit_cid if hit else miss_cid] += 1
                    if not hit and op == _LOCAL_CASTOUT:
                        row[_CID_INCLUSION] += 1
                    sat = (_SAT_HIT_CID if hit else _SAT_MISS_CID)[resp]
                    if fetches and sat >= 0:
                        row[sat] += 1
        self.event_counters = events.reshape(-1, _NO_COUNTER + 1)
        # By hit * states + outcome state: fill.X on a miss, hit_state.X
        # on a hit.
        self.state_counters = _one_hot(list(_FILL_CID) + list(_HIT_STATE_CID))
        # By victim state + 1 (0: nothing evicted).
        self.evict_counters = _one_hot(
            [_NO_COUNTER] + [
                _CID_EVICT_DIRTY if _DIRTY_OF[s] else _CID_EVICT_CLEAN
                for s in range(_N_STATES)
            ]
        )
        # What each outcome broadcasts, by (hit, state, slot, kind in
        # slot): a miss its kind's, a hit the write snoop of a write on
        # SHARED/OWNED (unmapped tenures never hit).
        broadcast = np.zeros((2, _N_STATES) + kinds, dtype=np.int8)
        broadcast[0] = miss_pop
        broadcast[1, :, :n_nodes, :_N_CMDS] = hit_pop.transpose(2, 0, 1)[
            ..., None
        ]
        self.broadcast = broadcast.reshape(
            2, _N_STATES, n_slots, _KINDS_PER_SLOT
        )

    # -- one call ------------------------------------------------------------- #

    def order(self, cpus, cmds, addrs, resps):
        """Order one call's admitted tenures into lanes, or None when the
        lanes cannot represent a set they touch; writes nothing.

        ``cpus``, ``cmds`` and ``resps`` are the decoder's ``uint8``
        fields; a command times ``_N_RESPS`` plus a response is at most
        63, so their packing stays in ``uint8``.
        """
        # Set indices are below 2**63: reading them as intp is exact.
        sets = addrs >> np.uint64(self.off_bits)
        sets &= np.uint64(self.set_mask)
        sets = sets.view(np.intp)
        kind = self.kind_of_cpu.take(cpus)
        cmd_resp = cmds * np.uint8(_N_RESPS)
        cmd_resp += resps
        kind += cmd_resp
        del cmd_resp
        keep = self.keep.take(kind)
        depth = np.bincount(sets if keep.all() else sets[keep])
        touched = np.flatnonzero(depth)
        if not self._representable(touched):
            return None
        # Deepest first, so the lanes live at each step are a prefix.
        touched = touched[np.argsort(-depth[touched], kind="stable")]
        lane_of_set = np.full(self.set_mask + 1, -1, dtype=np.intp)
        lane_of_set[touched] = np.arange(touched.shape[0])
        return (touched, depth[touched], np.flatnonzero(keep),
                lane_of_set.take(sets), kind)

    def replay(self, order, addrs):
        """Replay the tenures :meth:`order` ordered; returns their
        outcomes, in chunk order, for :meth:`commit` (None when the lanes
        took no tenure).

        The lanes' rows go straight back into the directories' arrays;
        nothing the statistics show changes until a window commits.
        """
        lane_sets, depths, picked, lanes, kind = order
        if not lane_sets.shape[0]:
            return None
        n_nodes = len(self.nodes)
        tags, states, meta = self._gather(lane_sets)
        outcomes = self._replay(tags, states, meta, depths, picked, lanes,
                                kind, addrs)
        # Scatter every lane row back (row = lane * nodes + node).
        assoc = self.assoc
        tags = tags.reshape(-1, n_nodes, assoc + 2)
        states = states.reshape(-1, n_nodes, assoc + 2)
        for n, node in enumerate(self.nodes):
            directory = node.directory
            directory._tags[lane_sets] = tags[:, n, :assoc]
            directory._states[lane_sets] = states[:, n, :assoc]
            if meta is not None:
                directory._meta[lane_sets] = meta[n::n_nodes]
        del tags, states, meta
        return self._outcome(*outcomes, addrs.shape[0])

    def _representable(self, sets) -> bool:
        """Whether the lanes can hold ``sets`` on every node: every line
        in a complete state and, under PLRU, tree bits in the tables."""
        # States past the table's end index its all-False sentinel column.
        last = self.complete.shape[1] - 1
        for n, node in enumerate(self.nodes):
            directory = node.directory
            # ``take`` along the set axis: a fancy row index runs numpy's
            # inner loop once per set.
            states = np.minimum(directory._states.take(sets, axis=0), last)
            good = directory._tags.take(sets, axis=0) < 0
            good |= self.complete[n].take(states)
            if self.touch is not None:
                meta = directory._meta.take(sets)
                good &= ((meta >= 0) & (meta < 1 << self.assoc))[:, None]
            if not good.all():
                return False
        return True

    def _gather(self, sets):
        """The rows of ``sets`` on every node (row = set position * nodes
        + node), padded to ``assoc + 2`` columns: tags, states, and the
        PLRU bits (or None)."""
        n_nodes = len(self.nodes)
        assoc = self.assoc
        shape = (sets.shape[0], n_nodes, assoc + 2)
        tags = np.full(shape, EMPTY_TAG, dtype=np.int64)
        states = np.zeros(shape, dtype=np.int8)
        for n, node in enumerate(self.nodes):
            directory = node.directory
            # ``take`` along the set axis: a fancy row index runs numpy's
            # inner loop once per row.
            tags[:, n, :assoc] = directory._tags.take(sets, axis=0)
            states[:, n, :assoc] = directory._states.take(sets, axis=0)
        meta = None
        if self.touch is not None:
            meta = np.stack(
                [node.directory._meta[sets] for node in self.nodes], axis=1
            ).reshape(-1)
        return (tags.reshape(-1, assoc + 2), states.reshape(-1, assoc + 2),
                meta)

    def _replay(self, tags, states, meta, depths, picked, lanes, kind,
                addrs):
        """Step the lanes (their rows updated in place) through the
        tenures ``picked`` (chunk indices, in chunk order); returns their
        outcomes in step order, and the chunk index of each step
        position."""
        n_nodes = len(self.nodes)
        assoc = self.assoc
        width = assoc + 2
        spare = assoc
        n_lanes = depths.shape[0]
        tags_flat = tags.reshape(-1)
        states_flat = states.reshape(-1)

        # Step k holds the rank-k tenure of lanes 0..live[k]-1, in lane
        # order, at step_start[k] onwards.  One sort of (lane, chunk
        # index) keys, unique and so stable, lists each lane's tenures in
        # chunk order from lane_start[lane] on; step position p then
        # holds lane p - step_start[k] at rank k.
        n = picked.shape[0]
        index_bits = int(picked[-1]).bit_length()
        key_type = (np.uint32 if (n_lanes - 1).bit_length() + index_bits <= 32
                    else np.uint64)
        key = lanes.take(picked).astype(key_type)
        key <<= key_type(index_bits)
        key |= picked.astype(key_type)
        del picked
        key.sort()
        key &= key_type((1 << index_bits) - 1)  # the chunk indices
        lane_start = np.zeros(n_lanes, dtype=np.intp)
        np.cumsum(depths[:-1], out=lane_start[1:])
        max_depth = int(depths[0])
        live = np.searchsorted(-depths, -np.arange(max_depth), side="left")
        step_start = np.zeros(max_depth + 1, dtype=np.intp)
        np.cumsum(live, out=step_start[1:])
        lane = np.arange(n, dtype=np.intp)
        lane -= np.repeat(step_start[:-1], live)
        at = np.repeat(np.arange(max_depth, dtype=np.intp), live)
        at += lane_start.take(lane)
        chunk_of = key.take(at).astype(np.intp)
        del key, at

        # Per tenure, each by one take of a per-kind table.
        kind = kind.take(chunk_of).astype(np.intp)
        # Tags are below 2**50: reading them as int64 is exact.
        tag = addrs.take(chunk_of)
        tag >>= np.uint64(self.tag_shift)
        tag = tag.view(np.int64)
        is_mapped = self.mapped.take(kind)
        local_row = lane
        local_row *= n_nodes
        local_row += self.home.take(kind)
        local_base = local_row * width
        local_key = self.local_key.take(kind)
        fill_shared = self.fill_shared.take(kind)
        fill_alone = self.fill_alone.take(kind)
        miss_pop = self.miss_pop.take(kind)
        n_rows = n_lanes * n_nodes
        # A mapped tenure's own row, which is no peer; an unmapped
        # tenure's stand-in row is, so it names a row past the lanes.
        own_row = np.where(is_mapped, local_row, n_rows)

        hit_out = np.empty(n, dtype=bool)
        state_out = np.empty(n, dtype=np.int8)
        victim_out = np.empty(n, dtype=np.int8)
        # Peer outcome flags by tenure (:attr:`peer_flag`); only the
        # rows holding the line add theirs.
        flag_out = np.zeros(n, dtype=np.intp)

        # By row: the lane (the tenure's position in its step) and the
        # node's offset into the peer tables.
        row_lane = np.repeat(np.arange(n_lanes, dtype=np.intp), n_nodes)
        row_offset = np.tile(self.peer_offset, n_lanes)
        # Step buffers, allocated once: fresh arrays this size cost page
        # faults on every step.  ``way_buf`` has one more entry, the own
        # row of unmapped tenures.
        way_buf = np.empty(n_rows + 1, dtype=np.int8)
        match = np.empty(n_rows, dtype=bool)
        shared = np.empty(n_lanes, dtype=bool)
        gather_buf = np.empty((n_rows, width), dtype=np.intp)
        tag_buf = np.empty((n_rows, width), dtype=tags.dtype)
        state_buf = np.empty((n_rows, width), dtype=states.dtype)
        tag_rows, state_rows = _as_rows(tags), _as_rows(states)
        tag_buf_rows, state_buf_rows = _as_rows(tag_buf), _as_rows(state_buf)
        src = self.src
        local_next, local_inv = self.local_next, self.local_inv
        hit_pop, local_code = self.hit_pop, self.local_code
        peer_lost, peer_next = self.peer_lost, self.peer_next
        peer_flag = self.peer_flag
        touch, victim = self.touch, self.victim
        remove = self.remove
        for k in range(max_depth):
            m = int(live[k])
            b0 = int(step_start[k])
            b1 = b0 + m
            rows_m = m * n_nodes
            probe = tag[b0:b1]
            mapped = is_mapped[b0:b1]
            lr = local_row[b0:b1]
            lr_base = local_base[b0:b1]
            spare_at = lr_base + spare

            # Probe every row, last way first, so that the first copy of
            # a duplicated tag wins; ``assoc`` is a miss.
            way = way_buf[:rows_m]
            way.fill(assoc)
            row_probe = np.repeat(probe, n_nodes)
            found = match[:rows_m]
            for j in range(assoc - 1, -1, -1):
                np.equal(tags[:rows_m, j], row_probe, out=found)
                np.copyto(way, j, where=found)
            # Install codes copy the new line from the spare column.
            tags_flat[spare_at] = probe

            # The local tenure reads its own row only.
            local_way = way[lr]
            local_state = states_flat[lr_base + local_way]
            hit = (local_way < assoc) & mapped
            key = local_key[b0:b1] + local_state
            next_state = local_next[key]
            invalidates = local_inv[key]
            pop = np.where(hit, hit_pop[key], miss_pop[b0:b1])

            # Peer snoops: the rows that hold the line, less the mapped
            # tenures' own rows.  A tenure that broadcasts nothing looks
            # its peers up under ``_POP_NONE``, which leaves them as they
            # are; its fill does not depend on them.
            way_buf[own_row[b0:b1]] = assoc
            peer = np.flatnonzero(way < assoc)
            owner = row_lane[peer]
            peer_way = way[peer]
            peer_at = peer * width
            peer_at += peer_way
            peer_key = row_offset[peer]
            peer_key += pop[owner] * _N_STATES
            peer_key += states_flat[peer_at]
            lost = peer_lost[peer_key]
            # A peer that keeps the line changes its state in place.
            kept = ~lost
            states_flat[peer_at[kept]] = peer_next[peer_key[kept]]
            # Each node of a tenure adds its own bits: adding is or-ing.
            np.add.at(flag_out, owner + b0, peer_flag[peer_key])
            shared[:m] = False
            shared[owner] = True
            fill = np.where(shared[:m], fill_shared[b0:b1],
                            fill_alone[b0:b1])

            # The local row: its allocation and victim.
            if touch is None:
                alloc_way = local_way
                full = tags_flat[lr_base + (assoc - 1)] >= 0
                victim_col = assoc - 1
            else:
                # Lines are a prefix of the row: count them column by
                # column (a row sum this short is slow).
                present = tags.take(lr, axis=0) >= 0
                filled = present[:, 0].astype(np.intp)
                for j in range(1, assoc):
                    filled += present[:, j]
                full = filled == assoc
                local_meta = meta[lr]
                victim_col = np.where(full, victim[local_meta], filled)
                alloc_way = np.where(hit, local_way, victim_col)
                moved = mapped & ~(hit & invalidates)
                meta[lr] = np.where(
                    moved, touch[local_meta * assoc + alloc_way], local_meta
                )
            evicted = full & ~hit & mapped
            victim_state = np.where(
                evicted, states_flat[lr_base + victim_col], -1
            )
            states_flat[spare_at] = np.where(hit, next_state, fill)

            # Mapped local rows and invalidated peers take their new
            # contents through one gather.
            code = local_code[hit * 2 + invalidates] + alloc_way
            rows = np.concatenate((lr[mapped], peer[lost]))
            code = np.concatenate((code[mapped], remove + peer_way[lost]))
            # Every index is in range by construction; ``clip`` spares
            # ``take`` the copy through a buffer it makes to check them.
            count = rows.shape[0]
            gather = gather_buf[:count]
            np.take(src, code, axis=0, out=gather, mode="clip")
            gather += (rows * width)[:, None]
            np.take(tags_flat, gather, out=tag_buf[:count], mode="clip")
            np.take(states_flat, gather, out=state_buf[:count], mode="clip")
            tag_rows[rows] = tag_buf_rows[:count]
            state_rows[rows] = state_buf_rows[:count]

            hit_out[b0:b1] = hit
            state_out[b0:b1] = np.where(hit, local_state, fill)
            victim_out[b0:b1] = victim_state
        del tag, local_row, local_base, local_key, own_row
        del fill_shared, fill_alone, miss_pop, is_mapped

        return kind, hit_out, state_out, victim_out, flag_out, chunk_of

    def _outcome(self, kind, hit, state, victim, flag, chunk_of, n):
        """The outcomes of the lanes' tenures (given in step order), as
        codes in chunk order for :meth:`commit`.

        A tenure's outcome is its key (hit, outcome state, victim state +
        1, kind) and which peers supplied dirty data and which lost the
        line.  Returns per tenure the code of its outcome among the
        call's distinct ones, whose effects and issuers :meth:`_effects`
        lists; tenures the lanes do not take (unmapped processors'
        castouts) have the code past the last, which has none.
        """
        n_nodes = len(self.nodes)
        n_states = _N_STATES
        outcome = hit.astype(_OUTCOME_TYPE)
        outcome *= n_states
        outcome += state
        outcome *= n_states + 1
        outcome += victim
        outcome += 1
        key = outcome.astype(np.intp)
        del outcome
        key *= self.n_slots * _KINDS_PER_SLOT
        key += kind
        # Number the distinct keys, then the distinct (key, peer flags)
        # pairs, each by one bincount over its range.
        peers = 1 << 2 * n_nodes
        used_keys, key = _numbered(key, self.n_keys)
        key *= peers
        key += flag
        used, code = _numbered(key, used_keys.shape[0] * peers)
        del key, flag
        codes = np.full(n, used.shape[0], dtype=np.intp)
        codes[chunk_of] = code
        key_of, flags = np.divmod(used, peers)
        return (codes,) + self._effects(used_keys.take(key_of), flags)

    def _effects(self, keys, flags):
        """What one tenure of each outcome (``keys`` and peer ``flags``,
        as :meth:`_outcome` packs them) does.

        Returns ``effects``, one row per outcome: the counters it adds on
        every node (its own outcome on its issuer's node, a received
        snoop and its peer outcome on every other), then whether it is an
        admission to each node's buffer; and ``issuer``, its slot times
        two plus whether it broadcast, with ``2 * slots`` for the
        no-outcome code past the last.
        """
        n_nodes = len(self.nodes)
        n_keys = keys.shape[0]
        rest, in_slot = np.divmod(keys, _KINDS_PER_SLOT)
        rest, slot = np.divmod(rest, self.n_slots)
        rest, victim = np.divmod(rest, _N_STATES + 1)
        hit, state = np.divmod(rest, _N_STATES)
        pop = self.broadcast[hit, state, slot, in_slot]
        # Each adds a few events to each counter: int8 holds them.
        counters = np.zeros((n_keys, n_nodes, _NO_COUNTER + 1),
                            dtype=np.int8)
        own = np.flatnonzero(slot < n_nodes)
        counters[own, slot[own]] = (
            self.event_counters[in_slot[own] * 2 + hit[own]]
            + self.state_counters[hit[own] * _N_STATES + state[own]]
            + self.evict_counters[victim[own]]
        )
        # Every other node receives the broadcast: a snoop it admits.
        others = slot[:, None] != np.arange(n_nodes)
        counters[:, :, _CID_REMOTE_READ] += others & (pop == _POP_READ)[:, None]
        counters[:, :, _CID_REMOTE_WRITE] += (
            others & (pop == _POP_WRITE)[:, None]
        )
        # Peers that supplied dirty data or lost the line; a dirty supply
        # to a node's read miss is an intervention on that node.
        supplied = flags[:, None] >> np.arange(n_nodes) & 1
        counters[:, :, _CID_SUPPLIED_DIRTY] += supplied
        counters[:, :, _CID_INVALIDATED] += (
            flags[:, None] >> np.arange(n_nodes, 2 * n_nodes) & 1
        )
        reader = np.flatnonzero((pop == _POP_READ) & (slot < n_nodes))
        counters[reader, slot[reader], _CID_INTERVENTION] += (
            supplied[reader].sum(axis=1)
        )
        admitted = ~others | (pop != _POP_NONE)[:, None]
        effects = np.concatenate(
            (counters.reshape(n_keys, -1), admitted.astype(np.int8)), axis=1
        )
        issuer = np.append(2 * slot + (pop != _POP_NONE), 2 * self.n_slots)
        return effects, issuer

    def commit(self, outcome, nows, lo, hi) -> None:
        """Fold the outcomes of tenures ``lo`` up to ``hi`` (chunk
        indices, timed by ``nows``) into every node's counters and settle
        its buffer (:meth:`~repro.memories.compiled._CompiledNode.settle`).
        """
        if outcome is None:
            return
        codes, effects, issuer = outcome
        nodes = self.nodes
        n_nodes = len(nodes)
        n_slots = self.n_slots
        # The window's effects: one histogram of its outcome codes, over
        # the codes it holds (usually a few of the call's).
        histogram = np.bincount(codes[lo:hi], minlength=effects.shape[0] + 1)
        held = np.flatnonzero(histogram[:-1])
        window = histogram.take(held) @ effects.take(held, axis=0)
        columns = n_nodes * (_NO_COUNTER + 1)
        counts = window[:columns].reshape(n_nodes, -1)[:, :_NO_COUNTER].tolist()
        admissions = window[columns:].tolist()

        # Tenure times rise with the chunk index: the last admission is
        # the largest index, by (slot, whether it broadcast).
        last_at = np.full(2 * n_slots + 1, -1, dtype=np.intp)
        np.maximum.at(last_at, issuer.take(codes[lo:hi]), np.arange(lo, hi))
        last_at = last_at[:-1].reshape(n_slots, 2)
        own = last_at.max(axis=1).tolist()
        broadcast = last_at[:, 1].tolist()
        for n, node in enumerate(nodes):
            # A node with no admission in the window reads no time.
            at = max([own[n]] + broadcast[:n] + broadcast[n + 1:])
            node.settle(counts[n], admissions[n], float(nows[at]))


def _numbered(values, size):
    """The distinct ``values`` (each below ``size``), ascending, and each
    value's index among them."""
    distinct = np.flatnonzero(np.bincount(values, minlength=size))
    index_of = np.zeros(size, dtype=np.intp)
    index_of[distinct] = np.arange(distinct.shape[0])
    return distinct, index_of.take(values)
