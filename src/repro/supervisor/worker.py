"""The supervised worker shard: one process, one board, one directive loop.

:func:`worker_main` is the entry point the supervisor spawns (via
``multiprocessing``).  The worker rebuilds the board from the run spec,
restores the checkpoint it was handed, and then executes directives from
the supervisor over a duplex pipe:

``("segment", i, quarantine[, parent_span])``
    Replay trace segment ``i`` (or, with ``quarantine`` set, account it as
    skipped instead), checkpoint into the rotation, and report a commit.
    ``parent_span`` is the supervisor's open segment span ID: the
    worker's ``replay``/``checkpoint`` child spans attach under it.
``("offline", node)``
    Take one emulated node out of service (degradation rung 2).
``("finish",)``
    Emit the final sampler window and the run result, then exit.

The worker never writes the journal — that is the supervisor's log — but
it *does* own the checkpoint files: a checkpoint is made durable before
the commit message is sent, so by the time the supervisor journals the
commit, the state it references already survives a crash.  Anything the
worker did after its last acknowledged commit is redone after a restart;
the emulation is deterministic, so the redo is invisible in the counters.

Heartbeats ride the telemetry sampler: a pipe-backed sink receives every
sample record, so watchdog liveness comes from the same cadence machinery
(and the same checkpointed cursor) as the run's time series.  The same
pipe sink carries the worker's closed trace spans back to the supervisor
(tee-style: one channel, two record kinds), which persists them next to
its own spans — so a session's span tree spans processes without any
extra plumbing.
"""

from __future__ import annotations

import importlib
import os
import signal
import time
from pathlib import Path
from typing import Optional

from repro.bus.trace import TraceReader
from repro.common.errors import ReproError, TraceFormatError
from repro.faults.checkpoint import CheckpointRotation, restore_checkpoint
from repro.supervisor.spec import (
    ChaosPlan,
    SupervisedRunSpec,
    statistics_digest,
)
from repro.telemetry.histogram import Histogram, split_histogram_states
from repro.telemetry.sampler import CounterSampler
from repro.telemetry.spans import RunTrace

# The rule: the fork parent holds every module a worker needs, and a
# worker's session imports nothing, since every forked session would pay
# each import again.  The registry imports the replay engines, which
# replay loads lazily, so a process that imports the supervisor holds
# them before it forks (about 70 ms a session on a 2-vCPU host).  Library
# calls count too: the replay path avoids np.unique, which imports
# numpy.ma on first use.  TestWarmWorker in tests/test_supervisor.py pins
# the rule.
importlib.import_module("repro.engines.registry")

#: Records replayed per chunk when a chaos kill must land mid-segment.
_CHAOS_CHUNK = 256


class _HeartbeatSink:
    """Forwards sampler records (as heartbeats) and spans to the supervisor.

    The worker's single back-channel: sample/final records become
    ``("heartbeat", …)`` liveness messages carrying the wrap-corrected
    deltas (so the service can render per-session counters without
    touching the run directory), and closed span records become
    ``("span", …)`` messages the supervisor persists into its events
    file.
    """

    def __init__(self, conn) -> None:
        self.conn = conn

    def emit(self, record: dict) -> None:
        try:
            if record.get("type") == "span":
                self.conn.send(("span", record))
                return
            self.conn.send(
                (
                    "heartbeat",
                    {
                        "seq": record.get("seq", 0),
                        "cycle": record.get("cycle", 0.0),
                        "transactions": record.get("transactions", 0),
                        "deltas": dict(record.get("deltas", {})),
                        "window": dict(record.get("window", {})),
                    },
                )
            )
        except (BrokenPipeError, OSError):
            # The supervisor is gone; the watchdog will reap us shortly.
            pass

    def close(self) -> None:
        pass


def _die_now() -> None:
    """Chaos hook: die the way a crashed process dies (no cleanup)."""
    os.kill(os.getpid(), signal.SIGKILL)


def worker_main(
    conn,
    run_dir: str,
    spec_data: dict,
    chaos_data: Optional[dict],
    start_segment: int,
    checkpoint_path: Optional[str],
    trace_id: Optional[str] = None,
    span_prefix: str = "worker",
) -> None:
    """Run the worker shard loop; exits when told to finish.

    Args:
        conn: the worker end of the supervisor's duplex pipe.
        run_dir: the run directory (trace, checkpoints).
        spec_data: :meth:`SupervisedRunSpec.to_dict` form of the spec.
        chaos_data: optional :meth:`ChaosPlan.to_dict` failure schedule.
        start_segment: first segment this worker will be asked to run.
        checkpoint_path: checkpoint to restore before reporting ready, or
            None for a fresh board (segment 0).
        trace_id: the run's deterministic trace identity; worker spans
            carry it so they join the supervisor's span tree.
        span_prefix: unique span-ID prefix for this worker lifetime.
    """
    try:
        _worker_loop(
            conn, Path(run_dir), spec_data, chaos_data, start_segment,
            checkpoint_path, trace_id, span_prefix,
        )
    except ReproError as exc:
        try:
            conn.send(("fatal", type(exc).__name__, str(exc)))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def _worker_loop(
    conn,
    run_dir: Path,
    spec_data: dict,
    chaos_data: Optional[dict],
    start_segment: int,
    checkpoint_path: Optional[str],
    trace_id: Optional[str] = None,
    span_prefix: str = "worker",
) -> None:
    spec = SupervisedRunSpec.from_dict(spec_data)
    chaos = ChaosPlan.from_dict(chaos_data) if chaos_data else None
    reader = TraceReader(run_dir / "trace.seg.mies")
    segment_records, n_segments, total_records = reader.segment_info()

    board = spec.build_board()
    backchannel = _HeartbeatSink(conn)
    sampler = CounterSampler(
        sink=backchannel,
        every_transactions=spec.heartbeat_every,
        label="supervised",
    )
    board.attach_telemetry(sampler=sampler)
    trace = RunTrace(
        sink=backchannel,
        clock=lambda: board.now_cycle,
        label="worker",
        trace_id=trace_id,
        span_prefix=span_prefix,
    )
    # Choke-point histograms.  The cycle-domain one is a pure function of
    # the replayed trace; riding the checkpoint (like the sampler cursor)
    # keeps it bit-identical across kill/resume — work redone after a
    # crash is never observed twice.
    histograms = {
        "segment_replay_cycles": Histogram(
            "segment_replay_cycles", domain="cycle"
        ),
        "segment_replay": Histogram("segment_replay", domain="wall"),
        "checkpoint_write": Histogram("checkpoint_write", domain="wall"),
    }
    injector = spec.build_injector(board)
    rotation = CheckpointRotation(
        run_dir / "checkpoints", keep=spec.keep_checkpoints
    )

    if checkpoint_path is not None:
        extra = restore_checkpoint(board, checkpoint_path)
        if injector is not None and extra and "injector" in extra:
            injector.load_state_dict(extra["injector"])
        for domain in ("cycle", "wall"):
            states = (extra or {}).get("histograms", {}).get(domain, {})
            for name, state in states.items():
                if name in histograms:
                    histograms[name].load_state_dict(state)

    conn.send(("ready", start_segment, statistics_digest(board.statistics())))

    kill_after = chaos.kill_after_records if chaos else None

    while True:
        directive = conn.recv()
        kind = directive[0]

        if kind == "finish":
            sampler.finish(board)
            result = {
                "digest": statistics_digest(board.statistics()),
                "statistics": board.statistics(),
                "offline_nodes": board.offline_nodes(),
                "segments_quarantined": board.segments_quarantined,
                "records_skipped": board.records_skipped,
                "emulated_seconds": board.emulated_seconds,
                "miss_ratios": {
                    node.index: node.miss_ratio()
                    for node in getattr(board.firmware, "nodes", [])
                },
                "fault_counts": (
                    injector.fault_counts() if injector else {}
                ),
            }
            conn.send(("final", result))
            return

        if kind == "offline":
            node = int(directive[1])
            board.offline_node(node)
            conn.send(("offlined", node))
            continue

        if kind != "segment":
            raise TraceFormatError(f"unknown supervisor directive {kind!r}")

        index = int(directive[1])
        quarantine = bool(directive[2])
        trace.parent_id = directive[3] if len(directive) > 3 else None
        records = min(segment_records, total_records - index * segment_records)

        if quarantine:
            board.note_segment_quarantined(records)
            _commit(
                conn, board, rotation, injector, index,
                {"quarantined": True, "records": records},
                trace, histograms,
            )
            continue

        # Chaos rung: plant an uncorrectable double bit flip so the
        # pre-segment self-check below reports this node as failing.
        if chaos and chaos.fail_node and chaos.fail_node[0] == index:
            _, node_index = chaos.fail_node
            chaos = ChaosPlan.from_dict({**chaos.to_dict(), "fail_node": None})
            _plant_uncorrectable(board, node_index)

        # Pre-segment directory health check.  On a clean board this is a
        # strict no-op (no counters, no line drops), so supervised runs
        # stay bit-identical to bare replays.
        failed = [
            node.index
            for node in getattr(board.firmware, "nodes", [])
            if node.index not in board.offline_nodes()
            and node.ecc_self_check() > 0
        ]
        if failed:
            conn.send(("error", index, "node", failed))
            continue

        try:
            words = reader.read_segment(index)
        except TraceFormatError as exc:
            conn.send(("error", index, "trace", str(exc)))
            continue

        replay = injector.replay_words if injector else board.replay_words
        begin_cycle = board.now_cycle
        begin_wall = time.perf_counter()
        with trace.span("replay", segment=index, records=records):
            if kill_after is not None and kill_after < records:
                # Replay up to the scheduled crash point, then die abruptly.
                done = 0
                while done < kill_after:
                    step = min(_CHAOS_CHUNK, kill_after - done)
                    replay(words[done : done + step])
                    done += step
                _die_now()
            replay(words)
        if kill_after is not None:
            kill_after -= records
        histograms["segment_replay_cycles"].observe(
            board.now_cycle - begin_cycle
        )
        histograms["segment_replay"].observe(
            time.perf_counter() - begin_wall
        )

        _commit(
            conn, board, rotation, injector, index, {"records": records},
            trace, histograms,
        )
        if chaos and chaos.kill_at_commit == index:
            _die_now()


def _commit(
    conn,
    board,
    rotation,
    injector,
    index: int,
    info: dict,
    trace: Optional[RunTrace] = None,
    histograms: Optional[dict] = None,
) -> None:
    """Make segment ``index`` durable, then report it to the supervisor."""
    extra = {"injector": injector.state_dict()} if injector else {}
    if histograms:
        cycle_states, wall_states = split_histogram_states(
            histograms.values()
        )
        # The cycle dict is the checkpointed cursor that keeps histogram
        # counts bit-identical across kill/resume; wall states ride along
        # for continuity but are inherently irreproducible.
        extra["histograms"] = {"cycle": cycle_states, "wall": wall_states}
    begin_wall = time.perf_counter()
    if trace is not None:
        with trace.span("checkpoint", segment=index):
            path = rotation.save(board, index, extra=extra or None)
    else:
        path = rotation.save(board, index, extra=extra or None)
    if histograms and "checkpoint_write" in histograms:
        histograms["checkpoint_write"].observe(
            time.perf_counter() - begin_wall
        )
        cycle_states, wall_states = split_histogram_states(
            histograms.values()
        )
        info = dict(info)
        info["histograms"] = {"cycle": cycle_states, "wall": wall_states}
    conn.send(
        (
            "commit",
            index,
            str(path),
            statistics_digest(board.statistics()),
            info,
        )
    )


def _plant_uncorrectable(board, node_index: int) -> None:
    """Chaos helper: make one node's directory fail its next self-check.

    Flips two data bits of one resident line without refreshing its check
    bits — beyond SECDED's single-bit correction, so verification reports
    UNCORRECTABLE.  Needs a resident line and an ECC directory; chaos
    tests arrange both.
    """
    node = board.firmware.nodes[node_index]
    directory = node.directory
    for set_index in range(directory.config.num_sets):
        if directory.ways_in_set(set_index) > 0:
            directory.inject_bit_flip(set_index, 0, 0)
            directory.inject_bit_flip(set_index, 0, 1)
            return
    raise TraceFormatError(
        f"chaos fail_node: node {node_index} has no resident lines to corrupt"
    )
