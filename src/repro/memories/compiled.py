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
  ``firmware.process`` per admitted tenure, for everything else: boards
  with a group that has no lockstep form
  (:func:`lockstep.plan <repro.memories.lockstep.plan>` says which), the
  tracer and the other firmware, stock boards whose buffers are coupled,
  which the scalar firmware replays exactly whatever the buffer timing,
  and calls that touch a set the lanes cannot represent.

The protocol transition logic thus exists in two forms: the scalar
``NodeController`` and the lanes' tables, which ``lockstep.plan`` builds
from the node controllers themselves, and which
``tests/test_batched_replay.py`` holds in lock-step.  Why the lanes are
exact is :mod:`repro.memories.lockstep`'s argument, and why the buffers
settle in closed form :class:`~repro.memories.tx_buffer.TransactionBuffer`'s.
"""

from __future__ import annotations

import numpy as np

# Every importer of the engine loads the set lanes too, the engine
# registry at module level among them, so forked service workers inherit
# them instead of compiling them.
from repro.memories import lockstep
from repro.memories.batch import _generic_runner, replay_with_runner


def _protocol_runner(firmware):
    """Build the cache-protocol runner, or None when ineligible.

    Eligible when the firmware exposes precomputed coherence-group
    routing and every group has a lockstep form
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
        plan = lockstep.plan(local_by_cpu, controllers)
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
    and so whether the protocol runner may replay it: every node buffer
    is :meth:`~repro.memories.tx_buffer.TransactionBuffer.decoupled` at
    the bus tenure from the call's first tenure on.

    The address filter's buffer is not checked: neither runner touches
    it, and the driver's ``offer_batch`` replays it exactly at any
    spacing.
    """
    tenure = board.cycles_per_tenure
    first_tenure = board.now_cycle + tenure
    return all(
        node.buffer.decoupled(tenure, first_tenure)
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
