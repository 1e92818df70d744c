"""The window driver of the compiled replay engine.

The real board is a hardware pipeline — address filter FPGA, global events
counter FPGA, node controller FPGAs — that keeps up with a 100 MHz bus.
The scalar software path re-walks that pipeline object by object for every
tenure, which is faithful but slow.  :func:`replay_with_runner` is the
board's "fast datapath": it replays a packed trace with

* one vectorised pre-pass computing the address-filter admit mask (IO /
  interrupt / sync / retried tenures) over the whole call,
* a bit-exact clock carried as one ``cumsum`` (sequential accumulation,
  so every intermediate ``now`` equals the scalar path's repeated
  addition),
* a runner that plays protocol transitions **only for admitted
  tenures**, handed them once per call, and
* per telemetry window, bulk filter statistics, filter-buffer occupancy
  (:meth:`~repro.memories.tx_buffer.TransactionBuffer.offer_batch`),
  global-counter updates
  (:meth:`~repro.memories.global_counter.GlobalEventsCounter.record_batch`)
  and the runner's commit of the window.

Which runner that is — the cache-protocol runner, on its set lanes, when
the stock firmware's buffers are decoupled, or the generic
``firmware.process`` runner for coupled or backlogged buffers and every
other firmware — is chosen by
:func:`repro.memories.compiled.replay_words_compiled`.

Bit-identity with :meth:`MemoriesBoard._replay_words_scalar` is the
contract, enforced by the property suite in ``tests/test_batched_replay``:
counter increments commute within a window, buffer and directory
mutations are applied in tenure order, and every window commits before
its countdown boundary so every sampler observation sees exactly the
counts the scalar path would show it.  A live ECC patrol scrubber, which
must tick between tenures, breaks that argument; the engine registry
(:mod:`repro.engines`) proves the capability missing and routes such a
board to the scalar loop — statically, before replay, not inside this
module.
"""

from __future__ import annotations

import numpy as np

from repro.bus.trace import decode_arrays
from repro.bus.transaction import BusCommand, SnoopResponse

_IO_READ = int(BusCommand.IO_READ)
_IO_WRITE = int(BusCommand.IO_WRITE)
_INTERRUPT = int(BusCommand.INTERRUPT)
_SYNC = int(BusCommand.SYNC)
_RETRY = int(SnoopResponse.RETRY)

#: Enum lookup tables for the generic runner (index by raw field value).
_COMMANDS = [BusCommand(i) for i in range(max(int(c) for c in BusCommand) + 1)]
_RESPONSES = [SnoopResponse(i) for i in range(max(int(r) for r in SnoopResponse) + 1)]


def _generic_runner(firmware):
    """Admitted-tenure runner calling ``firmware.process`` per tenure.

    Used for firmware images the cache-protocol runner does not take
    (tracer, hot-spot profiler, NUMA directory, remote-cache, and cache
    nodes that are SDRAM-priced, ECC-protected or use a policy the set
    lanes cannot replay) and for stock cache firmware whose buffers are
    slower than the bus tenure or hold a backlog, where ``process``
    replays every buffer offer and refusal exactly: the vectorised
    pre-pass still removes filtered tenures, filter/global bookkeeping
    and the clock from the Python loop.  ``process`` changes what the
    statistics show, so each window's tenures replay when it commits.
    """
    process = firmware.process
    commands = _COMMANDS
    responses = _RESPONSES

    def run(cpus, cmds, addrs, resps, nows):
        fields = [array.tolist() for array in (cpus, cmds, addrs, resps, nows)]

        def commit(lo: int, hi: int) -> int:
            retries = 0
            for cpu, cmd, addr, resp, now in zip(
                *(field[lo:hi] for field in fields)
            ):
                if not process(cpu, commands[cmd], addr, responses[resp], now):
                    retries += 1
            return retries

        return commit

    return run


def replay_with_runner(board, words: np.ndarray, runner, flush=None) -> int:
    """Replay ``words`` through ``runner``, window by telemetry window.

    One vectorised pass decodes the call, computes the admit mask and
    the clock.  ``runner`` then receives the call's admitted tenures
    once, as numpy arrays ``(cpus, cmds, addrs, resps, nows)`` in the
    decoder's widths (:func:`decode_arrays`: cpus, commands and
    responses ``uint8``, addresses ``uint64``, and the times
    ``float64``), and returns a commit step: ``commit(lo, hi)`` folds
    the effects of admitted tenures ``lo`` up to ``hi`` into what
    ``board.statistics()`` shows and returns their retry count.

    Windows end exactly where the sampler's countdown would reach zero.
    For each, the driver updates filter statistics, the filter buffer
    (:meth:`~repro.memories.tx_buffer.TransactionBuffer.offer_batch`),
    the global counters and the clock, commits the window, and only
    then calls ``on_countdown``, so every observation sees the counts
    the scalar loop would show it at the same transaction index.

    ``flush``, when given, is called before every ``on_countdown``.  The
    engine passes none: its commit steps leave nothing to flush.  It
    stays because it is part of this function's call interface:
    benchmark wrappers stand in for ``replay_with_runner`` and forward
    ``flush`` by keyword to time it as the telemetry flush.
    """
    count = int(words.shape[0])
    if count == 0:
        return 0

    cpu_ids, commands, addresses, responses = decode_arrays(words)
    is_io = (commands == _IO_READ) | (commands == _IO_WRITE)
    is_interrupt = commands == _INTERRUPT
    is_sync = commands == _SYNC
    command_filtered = is_io | is_interrupt | is_sync
    is_retried = ~command_filtered & (responses == _RETRY)
    admitted = np.flatnonzero(~(command_filtered | is_retried))

    # The scalar clock is `now += cpt` per tenure; np.cumsum accumulates
    # left to right with the same per-step IEEE rounding, so seeding the
    # first step with the current clock reproduces every intermediate
    # `now` bit for bit.
    cycles_per_tenure = board.cycles_per_tenure
    nows = np.full(count, cycles_per_tenure, dtype=np.float64)
    nows[0] = board.now_cycle + cycles_per_tenure
    np.cumsum(nows, out=nows)

    admitted_nows = nows.take(admitted)
    admitted_cpus = cpu_ids.take(admitted)
    admitted_commands = commands.take(admitted)
    commit = None
    if admitted.shape[0]:
        commit = runner(
            admitted_cpus,
            admitted_commands,
            addresses.take(admitted),
            responses.take(admitted),
            admitted_nows,
        )

    telemetry = board.telemetry
    stats = board.address_filter.stats
    start = lo = 0
    while start < count:
        remaining = count - start
        if telemetry is not None and telemetry._countdown < remaining:
            # A countdown at (or below) zero on entry — a detach/reattach
            # landing exactly on a cadence boundary — still replays one
            # tenure before the boundary check: the scalar loop decrements
            # first and fires after the tenure commits, so the window must
            # never be empty.
            countdown = telemetry._countdown
            take = countdown if countdown > 0 else 1
        else:
            take = remaining
        stop = start + take
        hi = int(np.searchsorted(admitted, stop))
        stats.observed += take
        stats.filtered_io += int(np.count_nonzero(is_io[start:stop]))
        stats.filtered_interrupts += int(np.count_nonzero(is_interrupt[start:stop]))
        stats.filtered_sync += int(np.count_nonzero(is_sync[start:stop]))
        stats.filtered_retried += int(np.count_nonzero(is_retried[start:stop]))
        stats.forwarded += hi - lo
        if hi > lo:
            board.address_filter.buffer.offer_batch(admitted_nows[lo:hi])
            board.global_counter.record_batch(
                admitted_cpus[lo:hi], admitted_commands[lo:hi],
                cycles_per_tenure,
            )
            board.retries_posted += commit(lo, hi)
        board.now_cycle = float(nows[stop - 1])
        if telemetry is not None:
            telemetry._countdown -= take
            if telemetry._countdown <= 0:
                if flush is not None:
                    flush()
                telemetry.on_countdown(board)
        start, lo = stop, hi
    return count
