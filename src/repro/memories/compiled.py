"""The compiled engine: the in-process fast replay path.

:func:`replay_words_compiled` drives
:func:`repro.memories.batch.replay_with_runner`: vectorised decode and
admit mask, one ``cumsum`` clock, and per telemetry window the bulk
filter and global-counter updates.  It is also the one place that picks
the runner, once per call, from two:

* **the protocol runner** (:func:`_protocol_runner`), for the stock
  cache-emulation firmware when its buffers are decoupled: it replays
  the call's admitted tenures once, on the set lanes of every coherence
  group (:mod:`repro.memories.lockstep`);
* **the generic runner** (:func:`~repro.memories.batch._generic_runner`),
  ``firmware.process`` per admitted tenure, for everything else: images
  the protocol runner refuses (SDRAM-priced or ECC nodes, ``random`` or
  custom replacement, groups without a lockstep form, the tracer and the
  other firmware), stock boards whose buffers are coupled, which the
  scalar firmware replays exactly whatever the buffer timing, and calls
  that touch a set the lanes cannot represent.

The protocol transition logic thus exists in two forms: the scalar
``NodeController`` and the lanes' tables, which
:func:`lockstep.plan <repro.memories.lockstep.plan>` builds from one
view per node controller (:class:`_CompiledNode`: a dense ``(op,
state)`` transition table, the fills, the set mapping and policy).  The
bit-identity suite in ``tests/test_batched_replay.py`` holds them in
lock-step.

Bit-identity with the scalar loop, per structure:

* **Clock and windows** come from the shared driver, unchanged.
* **Directory** mutations apply in tenure order within each set to the
  directory's own rows, gathered and scattered as arrays.  The lanes
  are sound when every node of a group maps an address to the same set
  and picks victims from its own set's history (LRU, FIFO or PLRU), and
  nothing else couples the sets: this runner takes no SDRAM-priced node,
  whose service times depend on global access order, and its buffers
  settle in closed form.  A tenure then reads and writes one set on
  every node and nothing else, so each set's history depends only on
  its own tenures, in their order.  Groups share no directory.
* **Counters** are sums of per-tenure outcomes, and the buffer tallies
  counts and maxima of rising tenure times, so neither depends on the
  interleaving of sets.  The lanes keep each tenure's outcome in chunk
  order and commit one telemetry window at a time, before any observer
  (``on_countdown`` → ``board.statistics()``) can look; no statistic
  reads the directory, so the directory may run ahead of the windows.

Its buffers settle in closed form.  That needs no service time above
the bus tenure.  Float addition is monotone, so every finish time is at
most the next tenure's time and each admission finds its queue drained.
A window's admissions then leave ``accepted += n`` and the single finish
time ``t_last + service`` (:meth:`_CompiledNode.settle`).  Both the
service bound and a drained starting queue are checked on entry
(:func:`_buffers_decoupled`); a board that fails either (buffers slower
than the tenure, a restored or injected backlog) replays the call on
the generic runner.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bus.transaction import BusCommand
from repro.memories.batch import _generic_runner, replay_with_runner
from repro.memories.protocol_table import CacheOp, LineState
from repro.memories.replacement import FifoPolicy, LruPolicy, PlruPolicy

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
#: fixed order; counter id == index into this list == column of the set
#: lanes' counter tables.
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
#: The policies the set lanes replay.  ``random`` draws its victims from
#: one board-wide stream in global order, which no per-set replay can
#: follow: its boards replay on the generic runner.
_POLICY_CODE = {
    LruPolicy: _POLICY_LRU,
    FifoPolicy: _POLICY_FIFO,
    PlruPolicy: _POLICY_PLRU,
}


class _CompiledNode:
    """Hot-path view of one NodeController.

    Holds the controller's directory, transaction buffer and counter
    bank, its set mapping and policy, a dense ``(op, state) ->
    (next_state, invalidates, is_hit)`` table and its fills:
    :func:`lockstep.plan <repro.memories.lockstep.plan>` builds the set
    lanes' tables from them, and the lanes commit each telemetry window
    through :meth:`settle`.
    """

    __slots__ = (
        "buffer", "service", "directory",
        "off_bits", "set_mask", "tag_shift",
        "trans", "fill_write", "fill_read_shared", "fill_read_alone",
        "policy_code", "assoc", "touch_meta", "victim_way", "counters",
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
        is_plru = type(policy) is PlruPolicy
        self.touch_meta = policy._update_on_access if is_plru else None
        self.victim_way = policy.victim_way if is_plru else None
        self.counters = node.counters

    def settle(self, counts, admissions: int, last: float) -> None:
        """Commit one window: add ``counts`` (by counter id) to the bank
        and settle the buffer's ``admissions``, the last at ``last``.

        With the buffers decoupled (checked by :func:`_buffers_decoupled`
        before the call) every admission finds the queue drained, so the
        window's admissions all succeed and leave exactly one finish time:
        the last admission's plus the service.
        """
        if admissions:
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
        counters = self.counters
        for cid, value in enumerate(counts):
            if value:
                counters.increment(COUNTER_NAMES[cid], value)


def _protocol_runner(firmware):
    """Build the cache-protocol runner, or None when ineligible.

    Eligible when the firmware exposes precomputed coherence-group
    routing, every node uses the constant-service transaction buffer
    (no SDRAM timing model), an unprotected directory (no ECC) and a
    policy the lanes replay, and every group has a lockstep form
    (:func:`lockstep.plan <repro.memories.lockstep.plan>`).  With
    :func:`_buffers_decoupled` this check decides between this runner
    and the generic one.  The runner settles buffers in closed form, so
    the caller must have checked that they are decoupled.
    """
    groups = getattr(firmware, "_groups", None)
    if groups is None:
        return None
    plans = []
    for local_by_cpu, _peers_of, controllers in groups:
        compiled_of: dict = {}
        for node in controllers:
            if (node.sdram is not None or node.ecc
                    or type(node.directory.policy) not in _POLICY_CODE):
                return None
            compiled_of[id(node)] = _CompiledNode(node)
        local_table: List[Optional[_CompiledNode]] = [None] * 256
        for cpu, node in local_by_cpu.items():
            if cpu > 255:  # the packed trace cpu field is 8 bits wide
                return None
            local_table[cpu] = compiled_of[id(node)]
        plan = lockstep.plan(local_table, tuple(compiled_of.values()))
        if plan is None:
            return None
        plans.append(plan)
    return _lanes_runner(plans, firmware)


def _lanes_runner(plans, firmware):
    """Replay a call's admitted tenures once on every group's set lanes
    and commit them window by window.

    Groups share no directory, so each replays the call on its own
    lanes.  A call that touches a set some group cannot represent
    replays wholly on the generic runner.
    """

    def run(cpus, cmds, addrs, resps, nows):
        # Ordering writes nothing, so a refusal leaves the board as it was.
        orders = [plan.order(cpus, cmds, addrs, resps) for plan in plans]
        if None in orders:
            return _generic_runner(firmware)(cpus, cmds, addrs, resps, nows)
        outcomes = [plan.replay(order, addrs)
                    for plan, order in zip(plans, orders)]

        def commit(lo: int, hi: int) -> int:
            for plan, outcome in zip(plans, outcomes):
                plan.commit(outcome, nows, lo, hi)
            return 0

        return commit

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
    it, and the driver's ``offer_batch`` replays it exactly at any
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
        runner = _generic_runner(board.firmware)
    return replay_with_runner(board, words, runner)


# The set lanes read this module's tables, so they are imported once
# those exist.  Every importer of the engine thus loads them too, the
# engine registry at module level among them, so forked service workers
# inherit the module instead of compiling it.
from repro.memories import lockstep  # noqa: E402
