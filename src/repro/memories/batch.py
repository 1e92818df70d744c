"""The chunk loop of the compiled replay engine.

The real board is a hardware pipeline — address filter FPGA, global events
counter FPGA, node controller FPGAs — that keeps up with a 100 MHz bus.
The scalar software path re-walks that pipeline object by object for every
tenure, which is faithful but slow.  :func:`replay_with_runner` is the
board's "fast datapath": it replays a packed trace in chunks with

* one vectorised pre-pass computing the address-filter admit mask (IO /
  interrupt / sync / retried tenures) over the whole trace,
* bulk filter statistics, filter-buffer occupancy
  (:meth:`~repro.memories.tx_buffer.TransactionBuffer.offer_batch`) and
  global-counter updates
  (:meth:`~repro.memories.global_counter.GlobalEventsCounter.record_batch`),
* a bit-exact clock carried as one ``cumsum`` (sequential accumulation,
  so every intermediate ``now`` equals the scalar path's repeated
  addition), and
* a runner that plays protocol transitions **only for admitted
  tenures**.

Which runner that is — the cache-protocol runner (its closed-form loop
or its set lanes) when the stock firmware's buffers are decoupled, or
the generic ``firmware.process`` runner for coupled or backlogged
buffers and every other firmware — is chosen by
:func:`repro.memories.compiled.replay_words_compiled`.

Bit-identity with :meth:`MemoriesBoard._replay_words_scalar` is the
contract, enforced by the property suite in ``tests/test_batched_replay``:
counter increments commute within a chunk, buffer and directory mutations
are applied in tenure order, and chunks are split at telemetry countdown
boundaries so every sampler observation sees exactly the state the scalar
path would show it.  A live ECC patrol scrubber, which must tick between
tenures, breaks that argument; the engine registry (:mod:`repro.engines`)
proves the capability missing and routes such a board to the scalar loop
— statically, before replay, not inside this module.
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
    nodes that are SDRAM-priced, ECC-protected or use a custom policy
    class) and for stock cache firmware whose buffers are slower than
    the bus tenure or hold a backlog, where ``process`` replays every
    buffer offer and refusal exactly: the vectorised pre-pass still
    removes filtered tenures, filter/global bookkeeping and the clock
    from the Python loop.
    """
    process = firmware.process
    commands = _COMMANDS
    responses = _RESPONSES

    def run(cpus, cmds, addrs, resps, nows) -> int:
        retries = 0
        for cpu, cmd, addr, resp, now in zip(
            cpus.tolist(), cmds.tolist(), addrs.tolist(),
            resps.tolist(), nows.tolist(),
        ):
            if not process(cpu, commands[cmd], addr, responses[resp], now):
                retries += 1
        return retries

    return run


def replay_with_runner(board, words: np.ndarray, runner, flush=None) -> int:
    """Drive ``runner`` over ``words`` in telemetry-aligned chunks.

    Vectorised admit-mask pre-pass, bulk filter/global/clock updates per
    chunk, chunk boundaries aligned with the sampler countdown.  ``runner``
    receives the admitted tenures of one chunk as numpy arrays
    ``(cpus, cmds, addrs, resps, nows)`` and returns the retry count.
    The fields keep the decoder's widths (:func:`decode_arrays`): cpus,
    commands and responses ``uint8``, addresses ``uint64``, and the
    times ``float64``.

    ``flush``, when given, is called before every ``on_countdown``.  The
    engine passes none: its runners flush their counters at chunk end.
    It stays because it is part of this function's call interface:
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
    admit = ~(command_filtered | is_retried)

    telemetry = board.telemetry
    start = 0
    while start < count:
        # Chunks end exactly where the sampler's countdown would reach
        # zero, so on_countdown observes the same board state at the same
        # transaction index as the scalar per-tenure decrement.
        remaining = count - start
        if telemetry is not None and telemetry._countdown < remaining:
            # A countdown at (or below) zero on entry — a detach/reattach
            # landing exactly on a cadence boundary — still replays one
            # tenure before the boundary check: the scalar loop decrements
            # first and fires after the tenure commits, so the chunk must
            # never be empty.
            countdown = telemetry._countdown
            take = countdown if countdown > 0 else 1
        else:
            take = remaining
        stop = start + take
        _run_chunk(
            board,
            runner,
            cpu_ids[start:stop],
            commands[start:stop],
            addresses[start:stop],
            responses[start:stop],
            is_io[start:stop],
            is_interrupt[start:stop],
            is_sync[start:stop],
            is_retried[start:stop],
            admit[start:stop],
        )
        if telemetry is not None:
            telemetry._countdown -= take
            if telemetry._countdown <= 0:
                if flush is not None:
                    flush()
                telemetry.on_countdown(board)
        start = stop
    return count


def _run_chunk(
    board,
    runner,
    cpu_ids,
    commands,
    addresses,
    responses,
    is_io,
    is_interrupt,
    is_sync,
    is_retried,
    admit,
) -> None:
    chunk = int(cpu_ids.shape[0])
    cycles_per_tenure = board.cycles_per_tenure
    # The scalar clock is `now += cpt` per tenure; np.cumsum accumulates
    # left to right with the same per-step IEEE rounding, so seeding the
    # first step with the current clock reproduces every intermediate
    # `now` bit for bit.
    nows = np.full(chunk, cycles_per_tenure, dtype=np.float64)
    nows[0] = board.now_cycle + cycles_per_tenure
    np.cumsum(nows, out=nows)

    admitted = np.flatnonzero(admit)
    n_admitted = int(admitted.shape[0])

    stats = board.address_filter.stats
    stats.observed += chunk
    stats.filtered_io += int(np.count_nonzero(is_io))
    stats.filtered_interrupts += int(np.count_nonzero(is_interrupt))
    stats.filtered_sync += int(np.count_nonzero(is_sync))
    stats.filtered_retried += int(np.count_nonzero(is_retried))
    stats.forwarded += n_admitted

    if n_admitted:
        admitted_nows = nows.take(admitted)
        admitted_cpus = cpu_ids.take(admitted)
        admitted_commands = commands.take(admitted)
        board.address_filter.buffer.offer_batch(admitted_nows)
        board.global_counter.record_batch(
            admitted_cpus, admitted_commands, cycles_per_tenure
        )
        board.retries_posted += runner(
            admitted_cpus,
            admitted_commands,
            addresses.take(admitted),
            responses.take(admitted),
            admitted_nows,
        )
    board.now_cycle = float(nows[-1])
