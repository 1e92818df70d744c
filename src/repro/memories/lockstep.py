"""Set-lockstep replay: every cache set of a deep chunk stepped at once.

The closed-form runner
(:func:`repro.memories.compiled._closed_form_run`) replays admitted
tenures one interpreter iteration at a time.  When every node of the
coherence group maps an address to the same set, a tenure reads and
writes that one set on every node and nothing else: its local probe,
its peer snoops and its install.  That runner takes no SDRAM-priced
node and settles its buffers in closed form, and :func:`plan` takes no
``random`` group (its victims come from one board-wide RNG stream), so
cache sets are then independent: a chunk may be replayed in any
interleaving that keeps each set's own tenure order.  This module steps
all sets together, as numpy lanes:

* **Order.**  The chunk's tenures are stable-sorted by set and ranked
  within their set.  Lanes are the touched sets, deepest first, so the
  lanes that still have a tenure at rank *k* are a prefix of the lane
  axis.  Step *k* plays the rank-*k* tenure of every such lane; its
  tenures are one contiguous block, in lane order, and index the lane
  arrays with a slice.
* **State.**  Each (lane, node) row is taken from the directory's
  arrays along the set axis, padded to ``assoc + 2`` columns: the ways,
  one spare column for the step's probe tag and the row's new state, and
  one column that stays empty (tag -1).  Lines are a prefix of the ways,
  as in the directory.  At chunk end the rows are scattered straight
  back.
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
* **Counters and buffers.**  Per-tenure outcomes go into int8 arrays;
  counters are bincounts at chunk end.  The closed-form buffer tallies
  need, per issuer, a count and the time of the last admission, which is
  the maximum because tenure times rise.

Sets the lanes cannot represent exactly replay on the loop instead, in
their own order; they share no state with the lanes.  These are sets
that hold a state outside the protocol's complete transition rows, or
whose PLRU bits lie outside the tables.  A set holding a (corrupted)
duplicate tag stays on the lanes: the probe finds the first copy, as
the loop's ``list.index`` and the directory's probe do.  Groups with
mixed set mappings or associativities, or with ``random`` replacement,
have no lanes at all (:func:`plan`).

The lanes pay a fixed cost per chunk and per step, the loop a fixed
cost per tenure, so the lanes pay only on chunks long enough; the
runner chooses (:data:`repro.memories.compiled.LOCKSTEP_MIN_TENURES`).
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
    do not share one set mapping, associativity and policy, use
    ``random``, or run a protocol whose transitions leave its complete
    states."""
    first = controllers[0]
    geometry = (first.off_bits, first.set_mask, first.tag_shift,
                first.assoc, first.policy_code)
    for node in controllers:
        if (node.off_bits, node.set_mask, node.tag_shift, node.assoc,
                node.policy_code) != geometry:
            return None
        if _complete_states(node) is None:
            return None
    if first.policy_code not in (_POLICY_LRU, _POLICY_FIFO, _POLICY_PLRU):
        return None
    return SetLanes(local_table, controllers)


def _one_hot(cids) -> np.ndarray:
    """Rows that add one to counter ``cids[i]`` (``_NO_COUNTER``: none)."""
    table = np.zeros((len(cids), _NO_COUNTER + 1), dtype=np.int64)
    table[np.arange(len(cids)), cids] = 1
    return table


class SetLanes:
    """Static tables of one group's lockstep form; :meth:`run` replays a
    chunk.  Built by :func:`plan`."""

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

        index_of = {id(node): i for i, node in enumerate(nodes)}
        node_of_cpu = np.full(len(local_table), n_nodes, dtype=np.int8)
        for cpu, node in enumerate(local_table):
            if node is not None:
                node_of_cpu[cpu] = index_of[id(node)]
        self.node_of_cpu = node_of_cpu

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
        # By (node, cmd): the fill when a peer holds the line, and when
        # none does (castouts and writes fill the same either way).
        fill_shared = np.zeros((n_nodes, _N_CMDS), dtype=np.int8)
        fill_alone = np.zeros((n_nodes, _N_CMDS), dtype=np.int8)
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
        self.peer_dirty = peer_dirty.ravel()
        self.peer_offset = np.arange(n_nodes, dtype=np.intp) * pshape[1] * pshape[2]
        self.complete = complete
        self.fill_shared = fill_shared.ravel()
        self.fill_alone = fill_alone.ravel()
        # A miss broadcasts by (unmapped, cmd): castouts nothing, writes a
        # write snoop, reads a read snoop; unmapped masters (their
        # processors' castouts never reach the lanes) read or write.
        miss_pop = np.zeros((2, _N_CMDS), dtype=np.int8)
        for cmd, (_b, _e, op, _h, _m, _f) in enumerate(_CMD_TAB):
            miss_pop[0, cmd] = (_POP_NONE if op == _LOCAL_CASTOUT
                                else _POP_WRITE if op == _LOCAL_WRITE
                                else _POP_READ)
            miss_pop[1, cmd] = _POP_READ if cmd == _READ else _POP_WRITE
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

        # How many of each counter one outcome adds, by (cmd, hit, resp):
        # primary, secondary, hit or miss, inclusion, satisfaction.
        events = np.zeros((_N_CMDS, 2, _N_RESPS, _NO_COUNTER + 1),
                          dtype=np.int64)
        for cmd, (base, extra, op, hit_cid, miss_cid, fetches) in enumerate(
            _CMD_TAB
        ):
            for hit in (0, 1):
                for resp in range(_N_RESPS):
                    row = events[cmd, hit, resp]
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

    # -- one chunk ------------------------------------------------------------ #

    def run(self, cpus, cmds, addrs, resps, nows, loop):
        """Replay one chunk's admitted tenures; returns the unmapped-master
        tallies ``(reads, writes, last time)``, as ``loop`` does.

        ``loop(cpus, cmds, addrs, resps, nows)`` is the closed-form loop;
        it replays the tenures of the sets the lanes cannot represent.
        Node counters and admission tallies are updated in place, and the
        lanes' rows go straight back into the directories' arrays.
        """
        n_nodes = len(self.nodes)
        sets = ((addrs >> np.uint64(self.off_bits))
                & np.uint64(self.set_mask)).astype(np.intp)
        local = self.node_of_cpu[cpus]
        # An unmapped processor's castout touches nothing (see the loop).
        keep = ~((local == n_nodes) & (cmds == _CASTOUT)
                 & (cpus <= MAX_PROCESSOR_ID))
        depth = np.bincount(sets[keep], minlength=self.set_mask + 1)
        touched = np.flatnonzero(depth)
        # Deepest first, so the lanes live at each step are a prefix.
        touched = touched[np.argsort(-depth[touched], kind="stable")]
        lane_sets = touched[self._representable(touched)]
        lane_of_set = np.full(self.set_mask + 1, -1, dtype=np.int32)
        lane_of_set[lane_sets] = np.arange(lane_sets.shape[0])
        lanes = lane_of_set[sets]
        on_lanes = keep & (lanes >= 0)

        # The loop goes first: it sets the tallies' last times outright,
        # the lanes then take maxima.
        unmapped = (0, 0, float("-inf"))
        leftover = keep & ~on_lanes
        if leftover.any():
            unmapped = loop(cpus[leftover], cmds[leftover], addrs[leftover],
                            resps[leftover], nows[leftover])
        if lane_sets.shape[0]:
            tags, states, meta = self._gather(lane_sets)
            reads, writes, last = self._replay(
                tags, states, meta, depth[lane_sets],
                np.flatnonzero(on_lanes), lanes, local, cmds, addrs, resps,
                nows,
            )
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
            unmapped = (unmapped[0] + reads, unmapped[1] + writes,
                        max(unmapped[2], last))
        return unmapped

    def _representable(self, sets) -> np.ndarray:
        """Which of ``sets`` the lanes can hold on every node: every line
        in a complete state and, under PLRU, tree bits in the tables."""
        ok = np.ones(sets.shape[0], dtype=bool)
        # States past the table's end index its all-False sentinel column.
        last = self.complete.shape[1] - 1
        for n, node in enumerate(self.nodes):
            directory = node.directory
            # ``take`` along the set axis, and a reduction column by
            # column: indexing or reducing rows this short runs numpy's
            # inner loop once per set.
            states = np.minimum(directory._states.take(sets, axis=0), last)
            good = directory._tags.take(sets, axis=0) < 0
            good |= self.complete[n].take(states)
            for j in range(self.assoc):
                ok &= good[:, j]
            if self.touch is not None:
                meta = directory._meta[sets]
                ok &= (meta >= 0) & (meta < 1 << self.assoc)
        return ok

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

    def _replay(self, tags, states, meta, depths, picked, lanes, local,
                cmds, addrs, resps, nows):
        """Step the lanes (their rows updated in place) through the
        tenures ``picked`` (chunk indices, in chunk order); returns the
        unmapped-master tallies."""
        n_nodes = len(self.nodes)
        assoc = self.assoc
        width = assoc + 2
        spare = assoc
        n_lanes = depths.shape[0]
        tags_flat = tags.reshape(-1)
        states_flat = states.reshape(-1)

        # Step k holds the rank-k tenure of lanes 0..live[k]-1, in lane
        # order, at step_start[k] onwards.  Index fields are int32 and
        # die as soon as they are used: the chunk's decoded inputs are
        # still alive.
        lane = lanes[picked]
        # A 16-bit key sorts by radix, several times faster.
        by_lane = np.argsort(
            lane.astype(np.uint16) if n_lanes <= 1 << 16 else lane,
            kind="stable",
        )
        chunk_of = picked[by_lane].astype(np.int32)
        del picked
        lane = lane[by_lane]
        del by_lane
        lane_start = np.zeros(n_lanes, dtype=np.int32)
        np.cumsum(depths[:-1], out=lane_start[1:])
        max_depth = int(depths[0])
        live = np.searchsorted(-depths, -np.arange(max_depth), side="left")
        step_start = np.zeros(max_depth + 1, dtype=np.int32)
        np.cumsum(live, out=step_start[1:])
        position = np.arange(lane.shape[0], dtype=np.int32)
        position -= lane_start[lane]  # the rank within the lane
        position = step_start[position]
        position += lane
        # Scatter into step order.
        order = np.empty_like(position)
        order[position] = np.arange(position.shape[0], dtype=np.int32)
        del position
        chunk_of = chunk_of[order]
        lane = lane[order]
        del order

        node = local[chunk_of]
        cmd = cmds[chunk_of].astype(np.int8)
        resp = resps[chunk_of].astype(np.int8)
        tag = (addrs[chunk_of] >> np.uint64(self.tag_shift)).astype(np.int64)
        is_mapped = node < n_nodes
        home = np.where(is_mapped, node, 0)  # an unmapped tenure's stand-in
        local_row = lane * np.int32(n_nodes) + home
        del lane
        local_base = local_row * np.int32(width)
        node_cmd = home * np.int32(_N_CMDS) + cmd
        del home
        local_key = node_cmd * np.int32(_N_STATES)
        fill_shared = self.fill_shared[node_cmd]
        fill_alone = self.fill_alone[node_cmd]
        del node_cmd
        miss_pop = self.miss_pop[(~is_mapped) * _N_CMDS + cmd]
        n_rows = n_lanes * n_nodes
        # A mapped tenure's own row, which is no peer; an unmapped
        # tenure's stand-in row is, so it names a row past the lanes.
        own_row = np.where(is_mapped, local_row, n_rows)

        n = chunk_of.shape[0]
        hit_out = np.empty(n, dtype=bool)
        state_out = np.empty(n, dtype=np.int8)
        victim_out = np.empty(n, dtype=np.int8)
        pop_out = np.empty(n, dtype=np.int8)
        # Peer outcomes by (tenure, node); only the rows holding the line
        # are written.
        dirty_out = np.zeros((n, n_nodes), dtype=bool)
        inv_out = np.zeros((n, n_nodes), dtype=bool)
        dirty_flat = dirty_out.reshape(-1)
        inv_flat = inv_out.reshape(-1)

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
        peer_dirty = self.peer_dirty
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
            at = peer + b0 * n_nodes
            dirty_flat[at] = peer_dirty[peer_key]
            inv_flat[at] = lost
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
            pop_out[b0:b1] = pop
        del tag, local_row, local_base, local_key, own_row
        del fill_shared, fill_alone, miss_pop

        return self._tally(node, cmd, resp, hit_out, state_out, victim_out,
                           pop_out, dirty_out, inv_out, chunk_of, nows)

    def _tally(self, node, cmd, resp, hit, state, victim, pop, dirty,
               invalidated, chunk_of, nows):
        """Counters and admission tallies of the lanes' tenures (in step
        order); returns the unmapped-master tallies."""
        nodes = self.nodes
        n_nodes = len(nodes)
        # Outcome rows per node, plus one for unmapped masters, whose
        # local outcomes count nowhere.
        node = node.astype(np.intp)
        n_rows = n_nodes + 1

        def per_node(key, n_keys):
            return np.bincount(node * n_keys + key,
                               minlength=n_rows * n_keys).reshape(n_rows, -1)

        counts = (
            per_node((cmd.astype(np.intp) * 2 + hit) * _N_RESPS + resp,
                     self.event_counters.shape[0]) @ self.event_counters
            + per_node(hit * _N_STATES + state, self.state_counters.shape[0])
            @ self.state_counters
            + per_node(victim.astype(np.intp) + 1,
                       self.evict_counters.shape[0]) @ self.evict_counters
        )
        # Peer by peer: reducing rows this short runs numpy's inner loop
        # once per row.  Peers supplying dirty data to a read miss are
        # interventions.
        reads = pop == _POP_READ
        supplied, lost = [], []
        for n in range(n_nodes):
            dirty_n = dirty[:, n]
            counts[:, _CID_INTERVENTION] += np.bincount(
                node[reads & dirty_n], minlength=n_rows
            )
            supplied.append(int(np.count_nonzero(dirty_n)))
            lost.append(int(np.count_nonzero(invalidated[:, n])))
        del reads

        issued = per_node(pop, 3)
        # Tenure times rise with the chunk index: the last time is the
        # time of the largest index.
        last_at = np.full(n_rows, -1, dtype=np.int32)
        np.maximum.at(last_at, node, chunk_of)
        snooped = pop != _POP_NONE
        last_snoop_at = np.full(n_rows, -1, dtype=np.int32)
        np.maximum.at(last_snoop_at, node[snooped], chunk_of[snooped])
        last, last_snoop = (
            [float(nows[at]) if at >= 0 else float("-inf")
             for at in indices.tolist()]
            for indices in (last_at, last_snoop_at)
        )
        for n, compiled in enumerate(nodes):
            accv = compiled.accv
            for cid, value in enumerate(counts[n, :_NO_COUNTER].tolist()):
                if value:
                    accv[cid] += value
            accv[_CID_SUPPLIED_DIRTY] += supplied[n]
            accv[_CID_INVALIDATED] += lost[n]
            compiled.local_n += int(issued[n].sum())
            compiled.snoop_rd += int(issued[n, _POP_READ])
            compiled.snoop_wr += int(issued[n, _POP_WRITE])
            compiled.local_t = max(compiled.local_t, last[n])
            compiled.snoop_t = max(compiled.snoop_t, last_snoop[n])
        return (int(issued[n_nodes, _POP_READ]),
                int(issued[n_nodes, _POP_WRITE]), last[n_nodes])
