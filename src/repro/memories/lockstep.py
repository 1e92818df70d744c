"""Set-lockstep replay: every cache set of a deep chunk stepped at once.

The closed-form runner
(:func:`repro.memories.compiled._closed_form_run`) replays admitted
tenures one interpreter iteration at a time.  When every node of the
coherence group maps an address to the same set, a tenure reads and
writes that one set on every node and nothing else: its local probe,
its peer snoops and its install.  Cache sets are then independent
(``per_set_independence``), so a chunk may be replayed in any
interleaving that keeps each set's own tenure order.  This module steps
all sets together, as numpy lanes:

* **Order.**  The chunk's tenures are stable-sorted by set and ranked
  within their set.  Lanes are the touched sets, deepest first, so the
  lanes that still have a tenure at rank *k* are a prefix of the lane
  axis.  Step *k* plays the rank-*k* tenure of every such lane; its
  tenures are one contiguous block, in lane order, and index the lane
  arrays with a slice.
* **State.**  Each (lane, node) row holds the set's tag and state lists,
  padded to ``assoc + 2`` columns: the ways, one spare column for the
  step's probe tag and the row's new state, and one column that stays
  empty (tag -1).  Lines are a prefix of the ways, as in the directory's
  lists.
* **Step.**  One tag compare plus ``argmax`` gives the hit way on every
  node (the spare always matches, so ``way == assoc`` is a miss).
  Transition-table gathers give the local and the peer outcomes.  One
  gather through :func:`_src_table` then applies set-state, remove, LRU
  move-to-front, insert-front, PLRU append and PLRU replace to every row
  at once.  PLRU tree bits move through touch and victim tables built
  from the policy's own methods.
* **Counters and buffers.**  Per-tenure outcomes go into int8 arrays;
  counters are bincounts at chunk end.  The closed-form buffer tallies
  need, per issuer, a count and the time of the last admission, which is
  the maximum because tenure times rise.

Sets the lanes cannot represent exactly replay on the loop instead, in
their own order; they share no state with the lanes.  These are sets
whose way map has fewer entries than the set has lines (a flipped tag
that duplicates another leaves one: the map names only the first copy),
that hold a state outside the protocol's complete transition rows, or
whose PLRU bits lie outside the tables.  Groups with
mixed set mappings or associativities, or with ``random`` replacement,
have no lanes at all (:func:`plan`).

The lanes pay a load and a write-back per touched (set, node) row, the
loop a fixed cost per tenure, so the lanes pay only on deep chunks; the
runner chooses (:func:`repro.memories.compiled._deep_chunk_sets`).
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

import numpy as np

from repro.bus.transaction import MAX_PROCESSOR_ID
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

_EMPTY = -1
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
    """``SRC[code, j]``: the column way ``j`` of a row takes its new
    content from.  Column ``assoc`` is the spare (probe tag, new state),
    column ``assoc + 1`` the empty one.

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
    return np.array(rows, dtype=np.intp)


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
        self.set_mask = first.set_mask
        self.tag_shift = first.tag_shift
        assoc = first.assoc
        self.assoc = assoc
        self.src = _src_table(assoc)
        put, front, remove = 0, assoc + 1, 2 * assoc + 2
        self.remove = remove
        # Local row code base by hit * 2 + invalidates; the way added to
        # it is the hit way, or ``assoc`` on a miss (insert-front) — PLRU
        # adds its allocation way instead.
        bases = {
            _POLICY_LRU: (front, front, front, remove),
            _POLICY_FIFO: (front, front, put, remove),
            _POLICY_PLRU: (put, put, put, remove),
        }[first.policy_code]
        self.local_base = np.array(bases, dtype=np.intp)

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
        # By (node, broadcast, state): the peer row's code base (PUT or
        # REMOVE), next state and supplied-dirty flag.
        pshape = (n_nodes, len(_POP_OPS), _N_STATES)
        peer_base = np.full(pshape, put, dtype=np.intp)
        peer_next = np.zeros(pshape, dtype=np.int8)
        peer_dirty = np.zeros(pshape, dtype=bool)
        complete = np.zeros((n_nodes, _N_STATES), dtype=bool)
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
                    if invalidates:
                        peer_base[n, pop, state] = remove
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
        self.peer_base = peer_base.ravel()
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

    def run(self, sets, cpus, cmds, addrs, resps, nows, loop):
        """Replay one chunk's admitted tenures; returns the unmapped-master
        tallies ``(reads, writes, last time)``, as ``loop`` does.

        ``loop(cpus, cmds, addrs, resps, nows)`` is the closed-form loop;
        it replays the tenures of the sets the lanes cannot represent.
        Node counters and admission tallies are updated in place.
        """
        n_nodes = len(self.nodes)
        local = self.node_of_cpu[cpus]
        # An unmapped processor's castout touches nothing (see the loop).
        keep = ~((local == n_nodes) & (cmds == _CASTOUT)
                 & (cpus <= MAX_PROCESSOR_ID))
        depth = np.bincount(sets[keep], minlength=self.set_mask + 1)
        touched = np.flatnonzero(depth)
        # Deepest first, so the lanes live at each step are a prefix.
        touched = touched[np.argsort(-depth[touched], kind="stable")]
        tags, states, meta, ok = self._load(touched)
        lane_sets = touched[ok]
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
            # Only the lanes' own rows, in lane order.
            keep_rows = np.repeat(ok, n_nodes)
            tags, states = tags[keep_rows], states[keep_rows]
            if meta is not None:
                meta = meta[keep_rows]
            written = np.zeros(tags.shape[0], dtype=bool)
            reads, writes, last = self._replay(
                tags, states, meta, written, depth[lane_sets],
                np.flatnonzero(on_lanes), lanes, local, cmds, addrs, resps,
                nows,
            )
            self._store(tags, states, meta, written, lane_sets)
            unmapped = (unmapped[0] + reads, unmapped[1] + writes,
                        max(unmapped[2], last))
        return unmapped

    def _load(self, sets):
        """Copy the given sets of every node into padded row arrays (row
        = set position * nodes + node): tags, states, PLRU bits (or
        None), and which sets the lanes can represent."""
        nodes = self.nodes
        n_nodes = len(nodes)
        assoc = self.assoc
        width = assoc + 2
        set_list = sets.tolist()

        def by_row(per_set):  # [per_set of node n][s] in row order
            columns = [per_set(node) for node in nodes]
            return [column[s] for s in set_list for column in columns]

        tag_lists = by_row(lambda node: node.tags)
        n_rows = len(tag_lists)
        lines = np.fromiter(map(len, tag_lists), dtype=np.intp, count=n_rows)
        total = int(lines.sum())
        # Line j of row r goes to column j of the padded row.
        at = np.arange(total) + np.repeat(
            np.arange(n_rows) * width - (np.cumsum(lines) - lines), lines
        )
        tags = np.full((n_rows, width), _EMPTY, dtype=np.int64)
        tags.reshape(-1)[at] = np.fromiter(
            chain.from_iterable(tag_lists), dtype=np.int64, count=total
        )
        del tag_lists
        states = np.zeros((n_rows, width), dtype=np.int8)
        states.reshape(-1)[at] = np.fromiter(
            chain.from_iterable(by_row(lambda node: node.states)),
            dtype=np.int8, count=total,
        )
        del at
        # Every way-map key names a line of its set, so a map with one
        # entry per line means distinct tags, each mapped to its position.
        row_ok = lines == np.fromiter(
            map(len, by_row(lambda node: node.ways)), dtype=np.intp,
            count=n_rows,
        )
        node_of_row = np.arange(n_rows) % n_nodes
        row_ok &= np.all(
            (tags[:, :assoc] < 0)
            | self.complete[node_of_row[:, None], states[:, :assoc]],
            axis=1,
        )
        meta = None
        if self.touch is not None:
            metas = by_row(lambda node: node.meta)
            in_table = [type(m) is int and 0 <= m < (1 << assoc)
                        for m in metas]
            row_ok &= np.array(in_table, dtype=bool)
            meta = np.array([m if good else 0 for m, good in
                             zip(metas, in_table)], dtype=np.int64)
        return tags, states, meta, row_ok.reshape(-1, n_nodes).all(axis=1)

    def _replay(self, tags, states, meta, written, depths, picked, lanes,
                local, cmds, addrs, resps, nows):
        """Step the lanes (their rows updated in place, the rows written
        marked in ``written``) through the tenures ``picked`` (chunk
        indices, in chunk order); returns the unmapped-master tallies."""
        n_nodes = len(self.nodes)
        assoc = self.assoc
        width = assoc + 2
        spare = assoc
        n_lanes = depths.shape[0]
        tags3 = tags.reshape(n_lanes, n_nodes, width)
        states3 = states.reshape(n_lanes, n_nodes, width)
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
        node_cmd = home * np.int32(_N_CMDS) + cmd
        del home
        local_key = node_cmd * np.int32(_N_STATES)
        fill_shared = self.fill_shared[node_cmd]
        fill_alone = self.fill_alone[node_cmd]
        del node_cmd
        miss_pop = self.miss_pop[(~is_mapped) * _N_CMDS + cmd]

        n = chunk_of.shape[0]
        hit_out = np.empty(n, dtype=bool)
        state_out = np.empty(n, dtype=np.int8)
        victim_out = np.empty(n, dtype=np.int8)
        pop_out = np.empty(n, dtype=np.int8)
        dirty_out = np.empty((n, n_nodes), dtype=bool)
        inv_out = np.empty((n, n_nodes), dtype=bool)

        row_base = np.arange(n_lanes * n_nodes, dtype=np.intp) * width
        gather_buf = np.empty((n_lanes * n_nodes, assoc), dtype=np.intp)
        tag_buf = np.empty((n_lanes * n_nodes, assoc), dtype=tags.dtype)
        state_buf = np.empty((n_lanes * n_nodes, assoc), dtype=states.dtype)
        node_ids = np.arange(n_nodes, dtype=np.int8)
        src = self.src
        local_next, local_inv = self.local_next, self.local_inv
        hit_pop, local_base = self.hit_pop, self.local_base
        peer_base, peer_next = self.peer_base, self.peer_next
        peer_dirty, peer_offset = self.peer_dirty, self.peer_offset
        touch, victim = self.touch, self.victim
        remove = self.remove
        identity = spare  # PUT(assoc)
        for k in range(max_depth):
            m = int(live[k])
            b0 = int(step_start[k])
            b1 = b0 + m
            rows_m = m * n_nodes
            probe = tag[b0:b1]
            mapped = is_mapped[b0:b1]
            lr = local_row[b0:b1]
            lr_base = lr * width

            # Probe every node: the spare matches when no way does.
            tags3[:m, :, spare] = probe[:, None]
            way = (tags3[:m, :, :spare + 1] == probe[:, None, None]).argmax(2)
            way_flat = way.reshape(-1)
            state = states_flat[row_base[:rows_m] + way_flat]

            # The local tenure.
            local_way = way_flat[lr]
            local_state = state[lr]
            hit = (local_way < assoc) & mapped
            key = local_key[b0:b1] + local_state
            next_state = local_next[key]
            invalidates = local_inv[key]
            pop = np.where(hit, hit_pop[key], miss_pop[b0:b1])

            # Peer snoops.
            snoop = ((way < assoc) & (node[b0:b1, None] != node_ids)
                     & (pop != _POP_NONE)[:, None])
            peer_key = (state.reshape(m, n_nodes)
                        + (pop.astype(np.intp) * _N_STATES)[:, None]
                        + peer_offset)
            base = peer_base[peer_key]
            code = np.where(snoop, base + way, identity)
            dirty = peer_dirty[peer_key] & snoop
            fill = np.where(snoop.any(1), fill_shared[b0:b1],
                            fill_alone[b0:b1])

            # The local row: its code, its allocation and victim.
            if touch is None:
                alloc_way = local_way
                full = tags_flat[lr_base + (assoc - 1)] >= 0
                victim_col = assoc - 1
            else:
                filled = (tags[lr, :assoc] >= 0).sum(1)
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
            code_flat = code.reshape(-1)
            code_flat[lr] = np.where(
                mapped, local_base[hit * 2 + invalidates] + alloc_way,
                code_flat[lr],
            )
            states3[:m, :, spare] = peer_next[peer_key]
            spare_at = lr_base + spare
            states_flat[spare_at] = np.where(
                mapped, np.where(hit, next_state, fill), states_flat[spare_at]
            )

            # Apply every changed row's code with one gather (into
            # buffers allocated once: fresh arrays this size cost page
            # faults on every step).
            changed = np.flatnonzero(code_flat != identity)
            written[changed] = True
            count = changed.shape[0]
            gather = gather_buf[:count]
            np.take(src, code_flat[changed], axis=0, out=gather)
            gather += row_base[changed, None]
            np.take(tags_flat, gather, out=tag_buf[:count])
            np.take(states_flat, gather, out=state_buf[:count])
            tags[changed, :assoc] = tag_buf[:count]
            states[changed, :assoc] = state_buf[:count]

            hit_out[b0:b1] = hit
            state_out[b0:b1] = np.where(hit, local_state, fill)
            victim_out[b0:b1] = victim_state
            pop_out[b0:b1] = pop
            dirty_out[b0:b1] = dirty
            inv_out[b0:b1] = snoop & (base == remove)
        del tag, local_row, local_key, fill_shared, fill_alone, miss_pop

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
        # Peers supplying dirty data to a read miss are interventions.
        reads = pop == _POP_READ
        counts[:, _CID_INTERVENTION] += np.bincount(
            node[reads], weights=dirty[reads].sum(axis=1), minlength=n_rows,
        ).astype(np.int64)
        del reads
        supplied = dirty.sum(axis=0).tolist()
        lost = invalidated.sum(axis=0).tolist()

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

    def _store(self, tags, states, meta, written, sets) -> None:
        """Write the rows the lanes changed back into the directories'
        lists and way maps.

        Each new list and map replaces one that dies at once, so the
        write-back leaves the garbage collector's counts where they were
        (row lists made all at once would push the next board's set-up
        into a full collection).
        """
        assoc = self.assoc
        nodes = self.nodes
        n_nodes = len(nodes)
        rows = np.flatnonzero(written)
        ways = tags[rows, :assoc]
        lines = (ways >= 0).sum(1).tolist()
        all_tags = ways.reshape(-1).tolist()
        all_states = states[rows, :assoc].reshape(-1).tolist()
        metas = meta[rows].tolist() if meta is not None else None
        set_list = sets.tolist()
        for i, row in enumerate(rows.tolist()):
            s = set_list[row // n_nodes]
            node = nodes[row % n_nodes]
            start = i * assoc
            stop = start + lines[i]
            set_tags = all_tags[start:stop]
            node.tags[s] = set_tags
            node.states[s] = all_states[start:stop]
            node.ways[s] = dict(zip(set_tags, range(stop - start)))
            if metas is not None:
                node.meta[s] = metas[i]
