"""The compiled replay engine: block protocol kernels over flat arrays.

The batched engine (:mod:`repro.memories.batch`) removed the filter,
clock and global-counter work from the per-tenure Python loop, but every
admitted tenure still walks the protocol transition through boxed Python
objects — list-of-list directories, dict way maps, string-keyed counter
accumulators.  This module lowers that fused hot path one step further,
into **block-processing kernels over flat numpy state arrays**:

* tags and states live in one dense ``int64`` array per board, indexed
  ``line_base[node] + set * assoc + way`` (per-set fill level in a
  parallel ``set_len`` array, replacement metadata in ``meta``);
* the per-node ``(op, state)`` transition table is flattened into
  parallel ``next_state`` / ``invalidates`` / ``is_hit`` / ``defined``
  arrays indexed ``(node * N_OPS + op) * N_STATES + state``;
* transaction-buffer finish times sit in per-node ring buffers inside
  one ``float64`` array (``ft_base`` / ``ft_head`` / ``ft_len``);
* counters accumulate into an ``acc[node, counter_id]`` matrix over a
  fixed counter-name vocabulary (:data:`COUNTER_NAMES`) and are flushed
  into the real :class:`~repro.memories.counters.CounterBank` objects at
  telemetry boundaries and at the end of the call;
* coherence-group routing (local node per ``(group, cpu)``, peer lists,
  group controller lists) is baked into index arrays at lowering time.

The kernel itself (:func:`_kernel`) is written in the numba-compatible
subset of Python — flat-array indexing, integer arithmetic, no
closures — and is wrapped with ``numba.njit`` when numba is importable.
Without numba the same function still runs interpreted (the test suite
forces this via :data:`_FORCE_FLAT_KERNEL` to prove the lowering), but
interpreted numpy scalar indexing is *slower* than the fused object
path, so the production no-numba fallback is :func:`_python_runner`
instead: the fused loop with integer-indexed counter accumulators,
cpu-indexed routing tables, an inlined install path (incremental way
maps instead of per-miss rebuilds) and inlined peer probes, with the
transaction buffers settled in closed form once per chunk.

Bit-identity argument, per structure:

* **Clock** — chunking and ``now`` values come from
  :func:`repro.memories.batch.replay_with_runner`, unchanged.
* **Directory** — the flat arrays store exactly the scalar directory's
  way order; LRU move-to-front, FIFO insert-front/evict-back and the
  PLRU tree-bit updates are transcribed from
  :mod:`repro.memories.replacement` operation for operation, so every
  victim choice matches.  (``random`` replacement is denied statically:
  the capability prover withholds ``DETERMINISTIC_REPLACEMENT``.)
* **Buffers** — the flat kernel's ring buffer replays the exact
  drain/occupancy arithmetic of
  :class:`~repro.memories.tx_buffer.TransactionBuffer`; finish times are
  the same IEEE-754 sums in the same order.  The Python runner needs
  ``NO_GLOBAL_ORDER_COUPLING`` (no service time above the bus tenure):
  float addition is monotone, so every finish time is at most the next
  tenure's time, each admission finds its queue drained, and a chunk's
  admissions leave ``accepted += n`` and the single finish time
  ``t_last + service`` (:meth:`_CompiledNode.settle`).  Both the
  capability and a drained starting queue are checked on entry
  (:func:`_buffers_decoupled`); otherwise the call replays on batched.
* **Counters** — the accumulator matrix is a commutative reordering of
  increments within one chunk, flushed before any observer
  (``on_countdown`` → ``board.statistics()``) can look.

State is loaded from the board objects once per replay call, counter and
buffer statistics are flushed at every telemetry boundary (directories
are *not* — ``statistics()`` never reads directory contents), and the
directories, way maps and finish-time deques are written back when the
call returns.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

import numpy as np

from repro.common.errors import EmulationError
from repro.engines.capabilities import Capability, prove_capabilities
from repro.memories.batch import (
    _CASTOUT,
    _DIRTY_OF,
    _FILL_KEY,
    _HIT_STATE_KEY,
    _LOCAL_CASTOUT,
    _LOCAL_CMD,
    _LOCAL_WRITE,
    _MAX_PROCESSOR_ID,
    _N_OPS,
    _N_STATES,
    _OWNED,
    _READ,
    _REMOTE_READ,
    _REMOTE_WRITE,
    _SAT_HIT,
    _SAT_MISS,
    _SHARED,
    _FusedNode,
    _invalidate,
    replay_with_runner,
    replay_words_batched,
)
from repro.memories.protocol_table import LineState
from repro.memories.replacement import FifoPolicy, LruPolicy, PlruPolicy

try:  # pragma: no cover - numba is optional and absent from the CI image
    import numba as _numba
except ImportError:
    _numba = None

HAVE_NUMBA = _numba is not None

#: Test hook: run the flat kernel interpreted even without numba, to
#: prove the lowering itself (slow — only sensible on short traces).
_FORCE_FLAT_KERNEL = False


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
#: fixed order; counter id == index into this list == column of the
#: kernel's accumulator matrix.
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

#: Kernel-side constant tables (module globals are frozen into the
#: compiled kernel as read-only constants by numba).
_K_CMD_BASE = np.array([t[0] for t in _CMD_TAB], dtype=np.int64)
_K_CMD_EXTRA = np.array([t[1] for t in _CMD_TAB], dtype=np.int64)
_K_CMD_OP = np.array([t[2] for t in _CMD_TAB], dtype=np.int64)
_K_CMD_HIT = np.array([t[3] for t in _CMD_TAB], dtype=np.int64)
_K_CMD_MISS = np.array([t[4] for t in _CMD_TAB], dtype=np.int64)
_K_CMD_FETCH = np.array(
    [1 if t[5] else 0 for t in _CMD_TAB], dtype=np.int64
)
_K_HIT_STATE = np.array(_HIT_STATE_CID, dtype=np.int64)
_K_FILL = np.array(_FILL_CID, dtype=np.int64)
_K_DIRTY = np.array([1 if d else 0 for d in _DIRTY_OF], dtype=np.int64)
_K_SAT_HIT = np.array(_SAT_HIT_CID, dtype=np.int64)
_K_SAT_MISS = np.array(_SAT_MISS_CID, dtype=np.int64)

_POLICY_LRU = 0
_POLICY_FIFO = 1
_POLICY_PLRU = 2
_POLICY_CODE = {LruPolicy: _POLICY_LRU, FifoPolicy: _POLICY_FIFO, PlruPolicy: _POLICY_PLRU}


# ---------------------------------------------------------------------------
# Lowering: firmware object graph -> static image + flat mutable state.
# ---------------------------------------------------------------------------


class _CompiledImage:
    """Static lowering of one firmware image (geometry, tables, routing).

    Immutable across a replay call; the mutable state lives in
    :class:`_KernelState`.  Built fresh per call — construction is
    O(nodes + transition table), negligible next to state loading.
    """

    __slots__ = (
        "nodes", "n_nodes", "n_groups",
        "off_bits", "set_mask", "tag_shift", "assoc", "num_sets",
        "set_base", "line_base", "total_sets", "total_lines",
        "policy", "plru_levels",
        "fill_write", "fill_read_shared", "fill_read_alone",
        "cap", "service", "ft_base", "total_cap",
        "tr_next", "tr_inval", "tr_hit", "tr_def",
        "local_node", "grp_start", "grp_len", "grp_nodes",
        "peer_start", "peer_len", "peer_nodes",
    )


def lower_image(firmware) -> Optional[_CompiledImage]:
    """Lower a firmware image to flat arrays; None when it cannot be.

    Mirrors the :data:`~repro.engines.capabilities.Capability`
    ``DENSE_PROTOCOL_STATE`` / ``DETERMINISTIC_REPLACEMENT`` denials as a
    dynamic safety net — the registry should never route an ineligible
    board here, but a direct caller gets a clean refusal, not corruption.
    """
    groups = getattr(firmware, "_groups", None)
    if groups is None:
        return None
    order: dict = {}
    nodes: list = []
    for _local_by_cpu, _peers_of, controllers in groups:
        for node in controllers:
            if node.sdram is not None or node.ecc:
                return None
            if type(node.directory.policy) not in _POLICY_CODE:
                return None
            if id(node) not in order:
                order[id(node)] = len(nodes)
                nodes.append(node)
    n = len(nodes)
    if n == 0:
        return None

    img = _CompiledImage()
    img.nodes = nodes
    img.n_nodes = n
    img.n_groups = len(groups)

    img.off_bits = np.zeros(n, dtype=np.int64)
    img.set_mask = np.zeros(n, dtype=np.int64)
    img.tag_shift = np.zeros(n, dtype=np.int64)
    img.assoc = np.zeros(n, dtype=np.int64)
    img.num_sets = np.zeros(n, dtype=np.int64)
    img.set_base = np.zeros(n, dtype=np.int64)
    img.line_base = np.zeros(n, dtype=np.int64)
    img.policy = np.zeros(n, dtype=np.int64)
    img.plru_levels = np.zeros(n, dtype=np.int64)
    img.fill_write = np.zeros(n, dtype=np.int64)
    img.fill_read_shared = np.zeros(n, dtype=np.int64)
    img.fill_read_alone = np.zeros(n, dtype=np.int64)
    img.cap = np.zeros(n, dtype=np.int64)
    img.service = np.zeros(n, dtype=np.float64)
    img.ft_base = np.zeros(n, dtype=np.int64)

    table_size = _N_OPS * _N_STATES
    img.tr_next = np.zeros(n * table_size, dtype=np.int64)
    img.tr_inval = np.zeros(n * table_size, dtype=np.int64)
    img.tr_hit = np.zeros(n * table_size, dtype=np.int64)
    img.tr_def = np.zeros(n * table_size, dtype=np.int64)

    set_cursor = 0
    line_cursor = 0
    ft_cursor = 0
    for nid, node in enumerate(nodes):
        directory = node.directory
        amap = directory.amap
        img.off_bits[nid] = amap.offset_bits
        img.set_mask[nid] = amap.num_sets - 1
        img.tag_shift[nid] = amap.offset_bits + amap.index_bits
        img.assoc[nid] = node.config.assoc
        img.num_sets[nid] = amap.num_sets
        img.set_base[nid] = set_cursor
        img.line_base[nid] = line_cursor
        set_cursor += amap.num_sets
        line_cursor += amap.num_sets * node.config.assoc

        policy = directory.policy
        img.policy[nid] = _POLICY_CODE[type(policy)]
        if type(policy) is PlruPolicy:
            img.plru_levels[nid] = policy._levels

        fill = node._fill
        img.fill_write[nid] = int(fill.write)
        img.fill_read_shared[nid] = int(fill.read_shared)
        img.fill_read_alone[nid] = int(fill.read_alone)

        buffer = node.buffer
        img.cap[nid] = buffer.capacity
        img.service[nid] = buffer.service_cycles
        img.ft_base[nid] = ft_cursor
        ft_cursor += buffer.capacity

        for (op, state), transition in node._table.items():
            idx = (nid * _N_OPS + int(op)) * _N_STATES + int(state)
            img.tr_next[idx] = int(transition.next_state)
            img.tr_inval[idx] = 1 if transition.next_state is LineState.INVALID else 0
            img.tr_hit[idx] = 1 if transition.is_hit else 0
            img.tr_def[idx] = 1
    img.total_sets = set_cursor
    img.total_lines = line_cursor
    img.total_cap = ft_cursor

    img.local_node = np.full(img.n_groups * 256, -1, dtype=np.int64)
    img.grp_start = np.zeros(img.n_groups, dtype=np.int64)
    img.grp_len = np.zeros(img.n_groups, dtype=np.int64)
    grp_nodes: List[int] = []
    img.peer_start = np.zeros(n, dtype=np.int64)
    img.peer_len = np.zeros(n, dtype=np.int64)
    peer_nodes: List[int] = []
    for g, (local_by_cpu, peers_of, controllers) in enumerate(groups):
        img.grp_start[g] = len(grp_nodes)
        img.grp_len[g] = len(controllers)
        grp_nodes.extend(order[id(node)] for node in controllers)
        for cpu, node in local_by_cpu.items():
            if cpu > 255:  # the packed trace cpu field is 8 bits wide
                return None
            img.local_node[(g << 8) + cpu] = order[id(node)]
        for node in controllers:
            nid = order[id(node)]
            peers = peers_of[node.index]
            img.peer_start[nid] = len(peer_nodes)
            img.peer_len[nid] = len(peers)
            peer_nodes.extend(order[id(peer)] for peer in peers)
    img.grp_nodes = np.array(grp_nodes, dtype=np.int64)
    img.peer_nodes = (
        np.array(peer_nodes, dtype=np.int64)
        if peer_nodes
        else np.zeros(0, dtype=np.int64)
    )
    return img


class _KernelState:
    """Flat mutable state: loaded from the board, flushed / stored back."""

    __slots__ = (
        "tags", "states", "set_len", "meta",
        "ft", "ft_head", "ft_len", "last_finish",
        "accepted", "rejected", "high_water",
        "acc",
    )


def _load_state(img: _CompiledImage) -> _KernelState:
    st = _KernelState()
    st.tags = np.zeros(img.total_lines, dtype=np.int64)
    st.states = np.zeros(img.total_lines, dtype=np.int64)
    st.set_len = np.zeros(img.total_sets, dtype=np.int64)
    st.meta = np.zeros(img.total_sets, dtype=np.int64)
    st.ft = np.zeros(img.total_cap, dtype=np.float64)
    n = img.n_nodes
    st.ft_head = np.zeros(n, dtype=np.int64)
    st.ft_len = np.zeros(n, dtype=np.int64)
    st.last_finish = np.zeros(n, dtype=np.float64)
    st.accepted = np.zeros(n, dtype=np.int64)
    st.rejected = np.zeros(n, dtype=np.int64)
    st.high_water = np.zeros(n, dtype=np.int64)
    st.acc = np.zeros((n, len(COUNTER_NAMES)), dtype=np.int64)
    for nid, node in enumerate(img.nodes):
        directory = node.directory
        set_base = int(img.set_base[nid])
        line_base = int(img.line_base[nid])
        assoc = int(img.assoc[nid])
        for s, (set_tags, set_states) in enumerate(
            zip(directory._tags, directory._states)
        ):
            fill_level = len(set_tags)
            st.set_len[set_base + s] = fill_level
            if fill_level:
                base = line_base + s * assoc
                st.tags[base : base + fill_level] = set_tags
                st.states[base : base + fill_level] = set_states
        st.meta[set_base : set_base + int(img.num_sets[nid])] = directory._meta
        buffer = node.buffer
        queue = list(buffer._finish_times)
        ft_base = int(img.ft_base[nid])
        if queue:
            st.ft[ft_base : ft_base + len(queue)] = queue
        st.ft_len[nid] = len(queue)
        st.last_finish[nid] = buffer._last_finish
        stats = buffer.stats
        st.accepted[nid] = stats.accepted
        st.rejected[nid] = stats.rejected
        st.high_water[nid] = stats.high_water
    return st


def _flush_stats(img: _CompiledImage, st: _KernelState) -> None:
    """Flush counters and buffer statistics into the board objects.

    Called at telemetry boundaries (before ``on_countdown`` reads
    ``board.statistics()``) and at end of call.  Counter deltas are
    zeroed after flushing; buffer statistics are absolute, so repeated
    flushes are idempotent.  Directory contents are deliberately *not*
    synchronised here — ``statistics()`` never reads them.
    """
    acc = st.acc
    for nid, node in enumerate(img.nodes):
        row = acc[nid]
        nonzero = np.nonzero(row)[0]
        if nonzero.size:
            counters = node.counters
            for cid in nonzero.tolist():
                counters.increment(COUNTER_NAMES[cid], int(row[cid]))
            row[nonzero] = 0
        buffer = node.buffer
        buffer._last_finish = float(st.last_finish[nid])
        stats = buffer.stats
        stats.accepted = int(st.accepted[nid])
        stats.rejected = int(st.rejected[nid])
        stats.high_water = int(st.high_water[nid])


def _store_state(img: _CompiledImage, st: _KernelState) -> None:
    """Write every flat structure back into the board object graph."""
    _flush_stats(img, st)
    for nid, node in enumerate(img.nodes):
        directory = node.directory
        set_base = int(img.set_base[nid])
        line_base = int(img.line_base[nid])
        assoc = int(img.assoc[nid])
        for s in range(int(img.num_sets[nid])):
            fill_level = int(st.set_len[set_base + s])
            base = line_base + s * assoc
            set_tags = st.tags[base : base + fill_level].tolist()
            set_states = st.states[base : base + fill_level].tolist()
            directory._tags[s] = set_tags
            directory._states[s] = set_states
            # Reversed so the first occurrence wins, matching
            # TagStateDirectory._rebuild_way_map.
            directory._ways[s] = {
                set_tags[way]: way for way in range(fill_level - 1, -1, -1)
            }
        directory._meta = st.meta[
            set_base : set_base + int(img.num_sets[nid])
        ].tolist()
        buffer = node.buffer
        cap = int(img.cap[nid])
        ft_base = int(img.ft_base[nid])
        head = int(st.ft_head[nid])
        length = int(st.ft_len[nid])
        if head + length <= cap:
            queue = st.ft[ft_base + head : ft_base + head + length].tolist()
        else:
            wrap = head + length - cap
            queue = (
                st.ft[ft_base + head : ft_base + cap].tolist()
                + st.ft[ft_base : ft_base + wrap].tolist()
            )
        buffer._finish_times = deque(queue)


# ---------------------------------------------------------------------------
# The flat kernel (numba-compatible subset; njit-wrapped when available).
# ---------------------------------------------------------------------------


def _plru_touch(way, meta, levels):
    node = 1
    for level in range(levels - 1, -1, -1):
        bit = (way >> level) & 1
        if bit:
            meta &= ~(1 << node)
        else:
            meta |= 1 << node
        node = (node << 1) | bit
    return meta


def _plru_victim(meta, levels):
    node = 1
    way = 0
    for _ in range(levels):
        bit = (meta >> node) & 1
        way = (way << 1) | bit
        node = (node << 1) | bit
    return way


def _remote_flat(
    nid, op, addr, now,
    off_bits, set_mask, tag_shift, assoc, set_base, line_base,
    cap, service, ft_base,
    tr_next, tr_inval, tr_hit, tr_def,
    tags, states, set_len,
    ft, ft_head, ft_len, last_finish, accepted, rejected, high_water,
    acc,
):
    """Flat-array NodeController.process_remote.

    Returns -1 on an undefined transition, else a bit mask:
    bit 0 = line held, bit 1 = supplied dirty.
    """
    if op == _REMOTE_READ:
        acc[nid, _CID_REMOTE_READ] += 1
    else:
        acc[nid, _CID_REMOTE_WRITE] += 1
    base = ft_base[nid]
    capacity = cap[nid]
    head = ft_head[nid]
    length = ft_len[nid]
    while length > 0 and ft[base + head] <= now:
        head += 1
        if head == capacity:
            head = 0
        length -= 1
    ft_head[nid] = head
    ft_len[nid] = length
    if length >= capacity:
        rejected[nid] += 1
        return 0
    last = last_finish[nid]
    start = now if now > last else last
    finish = start + service[nid]
    tail = head + length
    if tail >= capacity:
        tail -= capacity
    ft[base + tail] = finish
    ft_len[nid] = length + 1
    last_finish[nid] = finish
    accepted[nid] += 1
    if length + 1 > high_water[nid]:
        high_water[nid] = length + 1
    set_index = (addr >> off_bits[nid]) & set_mask[nid]
    tag = addr >> tag_shift[nid]
    node_assoc = assoc[nid]
    set_slot = set_base[nid] + set_index
    line_slot = line_base[nid] + set_index * node_assoc
    fill_level = set_len[set_slot]
    way = -1
    for candidate in range(fill_level):
        if tags[line_slot + candidate] == tag:
            way = candidate
            break
    if way < 0:
        return 0
    state = states[line_slot + way]
    t_index = (nid * _N_OPS + op) * _N_STATES + state
    if tr_def[t_index] == 0:
        return -1
    result = 1
    if tr_hit[t_index] != 0 and _K_DIRTY[state] != 0:
        acc[nid, _CID_SUPPLIED_DIRTY] += 1
        result = 3
    if tr_inval[t_index] != 0:
        for shift in range(way, fill_level - 1):
            tags[line_slot + shift] = tags[line_slot + shift + 1]
            states[line_slot + shift] = states[line_slot + shift + 1]
        set_len[set_slot] = fill_level - 1
        acc[nid, _CID_INVALIDATED] += 1
    else:
        states[line_slot + way] = tr_next[t_index]
    return result


def _kernel(
    cpus, cmds, addrs, resps, nows,
    n_groups, local_node, grp_start, grp_len, grp_nodes,
    peer_start, peer_len, peer_nodes,
    off_bits, set_mask, tag_shift, assoc, set_base, line_base,
    policy, plru_levels, fill_write, fill_read_shared, fill_read_alone,
    cap, service, ft_base,
    tr_next, tr_inval, tr_hit, tr_def,
    tags, states, set_len, meta,
    ft, ft_head, ft_len, last_finish, accepted, rejected, high_water,
    acc, out,
):
    """One chunk of admitted tenures over flat state; out = [retries, error]."""
    retries = 0
    for i in range(cpus.shape[0]):
        cpu = cpus[i]
        cmd = cmds[i]
        addr = addrs[i]
        resp = resps[i]
        now = nows[i]

        # Admission pre-check across every group before any state
        # changes (a refused tenure must be side-effect free).
        refused = False
        for g in range(n_groups):
            nid = local_node[(g << 8) + cpu]
            if nid >= 0:
                base = ft_base[nid]
                capacity = cap[nid]
                head = ft_head[nid]
                length = ft_len[nid]
                while length > 0 and ft[base + head] <= now:
                    head += 1
                    if head == capacity:
                        head = 0
                    length -= 1
                ft_head[nid] = head
                ft_len[nid] = length
                if length >= capacity:
                    rejected[nid] += 1
                    refused = True
        if refused:
            retries += 1
            continue

        for g in range(n_groups):
            nid = local_node[(g << 8) + cpu]
            if nid < 0:
                # Unmapped master (see CacheEmulationFirmware.process).
                if cmd == _READ:
                    remote_op = _REMOTE_READ
                elif cmd == _CASTOUT and cpu <= _MAX_PROCESSOR_ID:
                    continue
                else:
                    remote_op = _REMOTE_WRITE
                group_base = grp_start[g]
                for k in range(grp_len[g]):
                    held = _remote_flat(
                        grp_nodes[group_base + k], remote_op, addr, now,
                        off_bits, set_mask, tag_shift, assoc, set_base,
                        line_base, cap, service, ft_base,
                        tr_next, tr_inval, tr_hit, tr_def,
                        tags, states, set_len,
                        ft, ft_head, ft_len, last_finish, accepted,
                        rejected, high_water, acc,
                    )
                    if held < 0:
                        out[1] = 1
                        return
                continue

            # Local path; the pre-check guarantees buffer room at `now`.
            base = ft_base[nid]
            capacity = cap[nid]
            head = ft_head[nid]
            length = ft_len[nid]
            last = last_finish[nid]
            start = now if now > last else last
            finish = start + service[nid]
            tail = head + length
            if tail >= capacity:
                tail -= capacity
            ft[base + tail] = finish
            length += 1
            ft_len[nid] = length
            last_finish[nid] = finish
            accepted[nid] += 1
            if length > high_water[nid]:
                high_water[nid] = length

            acc[nid, _K_CMD_BASE[cmd]] += 1
            extra_cid = _K_CMD_EXTRA[cmd]
            if extra_cid >= 0:
                acc[nid, extra_cid] += 1
            op = _K_CMD_OP[cmd]

            set_index = (addr >> off_bits[nid]) & set_mask[nid]
            tag = addr >> tag_shift[nid]
            node_assoc = assoc[nid]
            set_slot = set_base[nid] + set_index
            line_slot = line_base[nid] + set_index * node_assoc
            fill_level = set_len[set_slot]
            way = -1
            for candidate in range(fill_level):
                if tags[line_slot + candidate] == tag:
                    way = candidate
                    break

            if way >= 0:
                state = states[line_slot + way]
                t_index = (nid * _N_OPS + op) * _N_STATES + state
                if tr_def[t_index] == 0:
                    out[1] = 1
                    return
                acc[nid, _K_CMD_HIT[cmd]] += 1
                acc[nid, _K_HIT_STATE[state]] += 1
                if tr_inval[t_index] != 0:
                    for shift in range(way, fill_level - 1):
                        tags[line_slot + shift] = tags[line_slot + shift + 1]
                        states[line_slot + shift] = states[line_slot + shift + 1]
                    set_len[set_slot] = fill_level - 1
                else:
                    states[line_slot + way] = tr_next[t_index]
                    node_policy = policy[nid]
                    if node_policy == _POLICY_LRU:
                        if way != 0:
                            moved_tag = tags[line_slot + way]
                            moved_state = states[line_slot + way]
                            for shift in range(way, 0, -1):
                                tags[line_slot + shift] = tags[line_slot + shift - 1]
                                states[line_slot + shift] = states[line_slot + shift - 1]
                            tags[line_slot] = moved_tag
                            states[line_slot] = moved_state
                    elif node_policy == _POLICY_PLRU:
                        meta[set_slot] = _plru_touch(
                            way, meta[set_slot], plru_levels[nid]
                        )
                if op == _LOCAL_WRITE and (state == _SHARED or state == _OWNED):
                    probe_base = peer_start[nid]
                    for k in range(peer_len[nid]):
                        held = _remote_flat(
                            peer_nodes[probe_base + k], _REMOTE_WRITE, addr,
                            now,
                            off_bits, set_mask, tag_shift, assoc, set_base,
                            line_base, cap, service, ft_base,
                            tr_next, tr_inval, tr_hit, tr_def,
                            tags, states, set_len,
                            ft, ft_head, ft_len, last_finish, accepted,
                            rejected, high_water, acc,
                        )
                        if held < 0:
                            out[1] = 1
                            return
                if _K_CMD_FETCH[cmd] != 0:
                    sat_cid = _K_SAT_HIT[resp]
                    if sat_cid >= 0:
                        acc[nid, sat_cid] += 1
                continue

            # Miss path.
            acc[nid, _K_CMD_MISS[cmd]] += 1
            if op == _LOCAL_CASTOUT:
                acc[nid, _CID_INCLUSION] += 1
                fill = fill_write[nid]
            elif op == _LOCAL_WRITE:
                probe_base = peer_start[nid]
                for k in range(peer_len[nid]):
                    held = _remote_flat(
                        peer_nodes[probe_base + k], _REMOTE_WRITE, addr, now,
                        off_bits, set_mask, tag_shift, assoc, set_base,
                        line_base, cap, service, ft_base,
                        tr_next, tr_inval, tr_hit, tr_def,
                        tags, states, set_len,
                        ft, ft_head, ft_len, last_finish, accepted,
                        rejected, high_water, acc,
                    )
                    if held < 0:
                        out[1] = 1
                        return
                fill = fill_write[nid]
            else:  # LOCAL_READ
                shared_elsewhere = False
                probe_base = peer_start[nid]
                for k in range(peer_len[nid]):
                    held = _remote_flat(
                        peer_nodes[probe_base + k], _REMOTE_READ, addr, now,
                        off_bits, set_mask, tag_shift, assoc, set_base,
                        line_base, cap, service, ft_base,
                        tr_next, tr_inval, tr_hit, tr_def,
                        tags, states, set_len,
                        ft, ft_head, ft_len, last_finish, accepted,
                        rejected, high_water, acc,
                    )
                    if held < 0:
                        out[1] = 1
                        return
                    if held > 0:
                        shared_elsewhere = True
                    if held == 3:
                        acc[nid, _CID_INTERVENTION] += 1
                if shared_elsewhere:
                    fill = fill_read_shared[nid]
                else:
                    fill = fill_read_alone[nid]

            # Install (replacement transcribed from repro.memories.replacement).
            victim_state = -1
            node_policy = policy[nid]
            if node_policy == _POLICY_PLRU:
                if fill_level < node_assoc:
                    tags[line_slot + fill_level] = tag
                    states[line_slot + fill_level] = fill
                    set_len[set_slot] = fill_level + 1
                    meta[set_slot] = _plru_touch(
                        fill_level, meta[set_slot], plru_levels[nid]
                    )
                else:
                    victim_way = _plru_victim(meta[set_slot], plru_levels[nid])
                    victim_state = states[line_slot + victim_way]
                    tags[line_slot + victim_way] = tag
                    states[line_slot + victim_way] = fill
                    meta[set_slot] = _plru_touch(
                        victim_way, meta[set_slot], plru_levels[nid]
                    )
            else:  # LRU / FIFO: insert at front, evict from the back.
                if fill_level >= node_assoc:
                    victim_state = states[line_slot + fill_level - 1]
                    fill_level -= 1
                for shift in range(fill_level, 0, -1):
                    tags[line_slot + shift] = tags[line_slot + shift - 1]
                    states[line_slot + shift] = states[line_slot + shift - 1]
                tags[line_slot] = tag
                states[line_slot] = fill
                set_len[set_slot] = fill_level + 1
            acc[nid, _K_FILL[fill]] += 1
            if victim_state >= 0:
                if _K_DIRTY[victim_state] != 0:
                    acc[nid, _CID_EVICT_DIRTY] += 1
                else:
                    acc[nid, _CID_EVICT_CLEAN] += 1
            if _K_CMD_FETCH[cmd] != 0:
                sat_cid = _K_SAT_MISS[resp]
                if sat_cid >= 0:
                    acc[nid, sat_cid] += 1
    out[0] = retries


if HAVE_NUMBA:  # pragma: no cover - numba absent from the CI image
    _plru_touch = _numba.njit(cache=True)(_plru_touch)
    _plru_victim = _numba.njit(cache=True)(_plru_victim)
    _remote_flat = _numba.njit(cache=True)(_remote_flat)
    _kernel = _numba.njit(cache=True)(_kernel)


def _flat_runner(img: _CompiledImage, st: _KernelState):
    """Adapt the flat kernel to the replay_with_runner interface."""
    out = np.zeros(2, dtype=np.int64)

    def run(cpus, cmds, addrs, resps, nows) -> int:
        out[0] = 0
        out[1] = 0
        _kernel(
            cpus.astype(np.int64), cmds.astype(np.int64),
            addrs.astype(np.int64), resps.astype(np.int64),
            np.ascontiguousarray(nows),
            img.n_groups, img.local_node, img.grp_start, img.grp_len,
            img.grp_nodes, img.peer_start, img.peer_len, img.peer_nodes,
            img.off_bits, img.set_mask, img.tag_shift, img.assoc,
            img.set_base, img.line_base,
            img.policy, img.plru_levels,
            img.fill_write, img.fill_read_shared, img.fill_read_alone,
            img.cap, img.service, img.ft_base,
            img.tr_next, img.tr_inval, img.tr_hit, img.tr_def,
            st.tags, st.states, st.set_len, st.meta,
            st.ft, st.ft_head, st.ft_len, st.last_finish,
            st.accepted, st.rejected, st.high_water,
            st.acc, out,
        )
        if out[1]:
            raise EmulationError(
                "compiled kernel hit an undefined protocol transition"
            )
        return int(out[0])

    return run


# ---------------------------------------------------------------------------
# Production no-numba fallback: fused object path with compiled-style
# integer-id accumulators, inlined install and inlined peer probes.  No
# per-tenure buffer admission runs here: the transaction buffers are
# settled in closed form at chunk end (see _CompiledNode.settle).
# ---------------------------------------------------------------------------

_NEVER = float("-inf")


class _CompiledNode(_FusedNode):
    """_FusedNode with an integer-indexed counter accumulator, the extra
    per-node constants the inlined install path needs, and the chunk's
    buffer-admission tallies.

    The tallies (reset by :meth:`begin`): ``local_n`` / ``local_t`` count
    this node's own tenures and hold the time of the last;
    ``snoop_rd`` / ``snoop_wr`` count the read and write snoops it
    broadcast to its peers and ``snoop_t`` holds the time of the last.
    """

    __slots__ = (
        "accv", "policy_code", "assoc", "victim_way",
        "local_n", "local_t", "snoop_rd", "snoop_wr", "snoop_t",
    )

    def __init__(self, node) -> None:
        super().__init__(node)
        self.accv = [0] * len(COUNTER_NAMES)
        policy = node.directory.policy
        self.policy_code = _POLICY_CODE[type(policy)]
        self.assoc = node.config.assoc
        self.victim_way = (
            policy.victim_way if type(policy) is PlruPolicy else None
        )

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
        accv = self.accv
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
            accv[_CID_REMOTE_READ] += reads
            accv[_CID_REMOTE_WRITE] += writes
        counters = self.counters
        for cid, value in enumerate(accv):
            if value:
                counters.increment(COUNTER_NAMES[cid], value)
                accv[cid] = 0


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
        _invalidate(peer, set_index, way)
        accv[_CID_INVALIDATED] += 1
    else:
        states_in_set[way] = next_state
    return supplied_dirty


def _process_local(local: _CompiledNode, cmd, addr, resp, now) -> None:
    """One local tenure on a _CompiledNode (multi-group path).

    The single-group runner inlines this same sequence for speed; the
    two stay in lock-step via the shared bit-identity suite.
    """
    local.local_n += 1
    local.local_t = now
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
            _invalidate(local, set_index, way)
        else:
            states_in_set[way] = next_state
            if local.is_lru:
                if way:
                    tags_in_set = local.tags[set_index]
                    tags_in_set.insert(0, tags_in_set.pop(way))
                    states_in_set.insert(0, states_in_set.pop(way))
                    for position in range(way + 1):
                        ways[tags_in_set[position]] = position
            elif local.touch_meta is not None:
                meta = local.meta
                meta[set_index] = local.touch_meta(way, meta[set_index])
        if op == _LOCAL_WRITE and (state == _SHARED or state == _OWNED):
            local.snoop_wr += 1
            local.snoop_t = now
            for peer in local.peers:
                peer_set = (addr >> peer.off_bits) & peer.set_mask
                peer_way = peer.ways[peer_set].get(addr >> peer.tag_shift, -1)
                if peer_way >= 0:
                    _snoop_hit(peer, _REMOTE_WRITE, peer_set, peer_way)
        if fetches:
            accv[_SAT_HIT_CID[resp]] += 1
        return

    accv[miss_cid] += 1
    if op == _LOCAL_CASTOUT:
        accv[_CID_INCLUSION] += 1
        fill = local.fill_write
    elif op == _LOCAL_WRITE:
        local.snoop_wr += 1
        local.snoop_t = now
        for peer in local.peers:
            peer_set = (addr >> peer.off_bits) & peer.set_mask
            peer_way = peer.ways[peer_set].get(addr >> peer.tag_shift, -1)
            if peer_way >= 0:
                _snoop_hit(peer, _REMOTE_WRITE, peer_set, peer_way)
        fill = local.fill_write
    else:
        local.snoop_rd += 1
        local.snoop_t = now
        shared_elsewhere = False
        for peer in local.peers:
            peer_set = (addr >> peer.off_bits) & peer.set_mask
            peer_way = peer.ways[peer_set].get(addr >> peer.tag_shift, -1)
            if peer_way >= 0:
                shared_elsewhere = True
                if _snoop_hit(peer, _REMOTE_READ, peer_set, peer_way):
                    accv[_CID_INTERVENTION] += 1
        fill = local.fill_read_shared if shared_elsewhere else local.fill_read_alone
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
    matches the object path.
    """
    tags_in_set = local.tags[set_index]
    states_in_set = local.states[set_index]
    ways = local.ways[set_index]
    if local.policy_code == _POLICY_PLRU:
        meta = local.meta
        fill_level = len(tags_in_set)
        if fill_level < local.assoc:
            tags_in_set.append(tag)
            states_in_set.append(fill)
            ways[tag] = fill_level
            meta[set_index] = local.touch_meta(fill_level, meta[set_index])
            return -1
        way = local.victim_way(meta[set_index])
        victim_state = states_in_set[way]
        del ways[tags_in_set[way]]
        tags_in_set[way] = tag
        states_in_set[way] = fill
        ways[tag] = way
        meta[set_index] = local.touch_meta(way, meta[set_index])
        return victim_state
    # LRU / FIFO: insert at front, evict from the back.
    victim_state = -1
    if len(tags_in_set) >= local.assoc:
        victim_tag = tags_in_set.pop()
        victim_state = states_in_set.pop()
        del ways[victim_tag]
    tags_in_set.insert(0, tag)
    states_in_set.insert(0, fill)
    for position in range(len(tags_in_set)):
        ways[tags_in_set[position]] = position
    return victim_state


def _python_runner(firmware):
    """Build the no-numba compiled runner, or None when ineligible."""
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
    if len(compiled_groups) == 1:
        return _single_group_run(compiled_groups[0], all_nodes)
    return _multi_group_run(compiled_groups, all_nodes)


def _multi_group_run(compiled_groups, all_nodes):
    def run(cpus, cmds, addrs, resps, nows) -> int:
        for fused in all_nodes:
            fused.begin()
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
                    _process_local(local, cmd, addr, resp, now)
                    continue
                if cmd == _READ:
                    op = _REMOTE_READ
                    unmapped[0] += 1
                elif cmd == _CASTOUT and cpu <= _MAX_PROCESSOR_ID:
                    continue
                else:
                    op = _REMOTE_WRITE
                    unmapped[1] += 1
                unmapped[2] = now
                for fused in controllers:
                    fused_set = (addr >> fused.off_bits) & fused.set_mask
                    fused_way = fused.ways[fused_set].get(
                        addr >> fused.tag_shift, -1
                    )
                    if fused_way >= 0:
                        _snoop_hit(fused, op, fused_set, fused_way)
        for _local_table, controllers, unmapped in groups:
            _settle_group(controllers, unmapped)
        return 0

    return run


def _single_group_run(group, all_nodes):
    """The single-coherence-group fast path (the common machine shape):
    routing collapses to one table lookup and the whole local tenure,
    peer probes included, is inlined."""
    local_table, controllers = group
    cmd_tab = _CMD_TAB
    hit_state_cid = _HIT_STATE_CID
    fill_cid = _FILL_CID
    dirty_of = _DIRTY_OF
    sat_hit_cid = _SAT_HIT_CID
    sat_miss_cid = _SAT_MISS_CID
    snoop_hit = _snoop_hit
    invalidate = _invalidate
    install = _install_inline

    def run(cpus, cmds, addrs, resps, nows) -> int:
        for fused in all_nodes:
            fused.begin()
        u_reads = u_writes = 0
        u_time = _NEVER
        for cpu, cmd, addr, resp, now in zip(
            cpus.tolist(), cmds.tolist(), addrs.tolist(),
            resps.tolist(), nows.tolist(),
        ):
            local = local_table[cpu]
            if local is None:
                # Unmapped master: probe the group's controllers directly.
                if cmd == _READ:
                    op = _REMOTE_READ
                    u_reads += 1
                elif cmd == _CASTOUT and cpu <= _MAX_PROCESSOR_ID:
                    continue
                else:
                    op = _REMOTE_WRITE
                    u_writes += 1
                u_time = now
                for fused in controllers:
                    fused_set = (addr >> fused.off_bits) & fused.set_mask
                    fused_way = fused.ways[fused_set].get(
                        addr >> fused.tag_shift, -1
                    )
                    if fused_way >= 0:
                        snoop_hit(fused, op, fused_set, fused_way)
                continue

            local.local_n += 1
            local.local_t = now
            accv = local.accv
            base_cid, extra_cid, op, hit_cid, miss_cid, fetches = cmd_tab[cmd]
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
                accv[hit_state_cid[state]] += 1
                if invalidates:
                    invalidate(local, set_index, way)
                else:
                    states_in_set[way] = next_state
                    if local.is_lru:
                        if way:
                            tags_in_set = local.tags[set_index]
                            tags_in_set.insert(0, tags_in_set.pop(way))
                            states_in_set.insert(0, states_in_set.pop(way))
                            for position in range(way + 1):
                                ways[tags_in_set[position]] = position
                    elif local.touch_meta is not None:
                        meta = local.meta
                        meta[set_index] = local.touch_meta(way, meta[set_index])
                if op == _LOCAL_WRITE and (state == _SHARED or state == _OWNED):
                    local.snoop_wr += 1
                    local.snoop_t = now
                    for peer in local.peers:
                        peer_set = (addr >> peer.off_bits) & peer.set_mask
                        peer_way = peer.ways[peer_set].get(
                            addr >> peer.tag_shift, -1
                        )
                        if peer_way >= 0:
                            snoop_hit(peer, _REMOTE_WRITE, peer_set, peer_way)
                if fetches:
                    accv[sat_hit_cid[resp]] += 1
                continue

            accv[miss_cid] += 1
            if op == _LOCAL_CASTOUT:
                accv[_CID_INCLUSION] += 1
                fill = local.fill_write
            elif op == _LOCAL_WRITE:
                local.snoop_wr += 1
                local.snoop_t = now
                for peer in local.peers:
                    peer_set = (addr >> peer.off_bits) & peer.set_mask
                    peer_way = peer.ways[peer_set].get(
                        addr >> peer.tag_shift, -1
                    )
                    if peer_way >= 0:
                        snoop_hit(peer, _REMOTE_WRITE, peer_set, peer_way)
                fill = local.fill_write
            else:
                local.snoop_rd += 1
                local.snoop_t = now
                shared_elsewhere = False
                for peer in local.peers:
                    peer_set = (addr >> peer.off_bits) & peer.set_mask
                    peer_way = peer.ways[peer_set].get(
                        addr >> peer.tag_shift, -1
                    )
                    if peer_way >= 0:
                        shared_elsewhere = True
                        if snoop_hit(peer, _REMOTE_READ, peer_set, peer_way):
                            accv[_CID_INTERVENTION] += 1
                fill = (
                    local.fill_read_shared
                    if shared_elsewhere
                    else local.fill_read_alone
                )
            victim_state = install(local, set_index, tag, fill)
            accv[fill_cid[fill]] += 1
            if victim_state >= 0:
                if dirty_of[victim_state]:
                    accv[_CID_EVICT_DIRTY] += 1
                else:
                    accv[_CID_EVICT_CLEAN] += 1
            if fetches:
                accv[sat_miss_cid[resp]] += 1
        _settle_group(controllers, (u_reads, u_writes, u_time))
        return 0

    return run


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _buffers_decoupled(board) -> bool:
    """Whether the closed-form buffer settlement is exact for this call.

    Two conditions.  The static one is the prover's
    ``NO_GLOBAL_ORDER_COUPLING``: every service time is at most the bus
    tenure, so a finish time never outlives the next tenure and queue
    depth never exceeds one.  The dynamic one is the occupancy guard: no
    queued finish time may lie beyond the call's first tenure, which a
    fault injector's burst (``TransactionBuffer.inject_occupancy``) or a
    restored checkpoint can otherwise leave behind.
    """
    if not prove_capabilities(board).grants(
        Capability.NO_GLOBAL_ORDER_COUPLING
    ):
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
    grants ``EXACT_FLOAT_CLOCK``, ``INERT_BACKGROUND_TICK``,
    ``DETERMINISTIC_REPLACEMENT``, ``DENSE_PROTOCOL_STATE`` and
    ``NO_GLOBAL_ORDER_COUPLING``.  A board that slips past the prover
    (direct calls), or whose buffers hold a backlog beyond the first
    tenure, falls back to the batched engine rather than corrupting state.
    """
    if int(words.shape[0]) == 0:
        return 0
    if not _buffers_decoupled(board):
        return replay_words_batched(board, words)
    firmware = board.firmware
    if HAVE_NUMBA or _FORCE_FLAT_KERNEL:
        img = lower_image(firmware)
        if img is None:
            return replay_words_batched(board, words)
        st = _load_state(img)
        runner = _flat_runner(img, st)
        try:
            return replay_with_runner(
                board, words, runner, flush=lambda: _flush_stats(img, st)
            )
        finally:
            _store_state(img, st)
    runner = _python_runner(firmware)
    if runner is None:
        return replay_words_batched(board, words)
    return replay_with_runner(board, words, runner)
