#!/usr/bin/env python
"""CI chaos test of the crash-safe run supervisor (repro.supervisor).

Each contract kills, corrupts or degrades a supervised run with the
deterministic :class:`~repro.supervisor.ChaosPlan` hooks and asserts the
recovery guarantees the subsystem is built around:

1. **Zero-fault identity** — an unperturbed supervised run lands on
   statistics bit-identical to a bare ``board.replay_words``.
2. **Mid-segment kill** — SIGKILL the worker partway through a segment;
   the supervisor restarts it from the last committed checkpoint and the
   final counters are bit-identical to an uninterrupted run.
3. **Commit-boundary kill + cold resume** — SIGKILL exactly after a
   commit with a zero restart budget, then resume via a fresh
   ``RunSupervisor.open()``: still bit-identical, with the journal
   carrying the full restart history.
4. **Version-2 checkpoint resume** — the same kill, but the newest
   checkpoint is rewritten in the version-2 layout (list directories,
   canonical-encoding CRC) before the resume; the run still finishes
   bit-identically, so older checkpoints keep working.
5. **Degraded completion** — a trace segment with a flipped payload byte
   is quarantined, and a node whose ECC self-check reports uncorrectable
   directory damage is taken offline; both runs *complete*, with the
   degradation journaled and accounted in the statistics.

Everything is seeded, so a CI failure reproduces locally byte-for-byte.
Exit status is non-zero on any violation.
"""

from __future__ import annotations

import json
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

from _smoke import SmokeChecks, synthetic_words

from repro.faults import find_latest_checkpoint, load_checkpoint_payload
from repro.memories.cache_model import unpack_rows
from repro.memories.config import CacheNodeConfig
from repro.supervisor import (
    ChaosPlan,
    RunSupervisor,
    SupervisedRunSpec,
    SupervisorError,
    statistics_digest,
)
from repro.target.configs import single_node_machine

RECORDS = 4000
SEGMENT_RECORDS = 1000
SEED = 20000


def _spec(**overrides) -> SupervisedRunSpec:
    config = CacheNodeConfig(size=64 * 1024, assoc=4, line_size=128)
    defaults = dict(
        machine=single_node_machine(config, n_cpus=4),
        segment_records=SEGMENT_RECORDS,
        backoff_base=0.01,
    )
    defaults.update(overrides)
    return SupervisedRunSpec(**defaults)


def _bare_statistics(spec: SupervisedRunSpec, words: np.ndarray) -> dict:
    board = spec.build_board()
    board.replay_words(words)
    return board.statistics()


def _corrupt_segment(run_dir: Path, segment: int) -> None:
    """Flip one payload byte of one segment of the staged v5 trace."""
    path = run_dir / RunSupervisor.TRACE_NAME
    data = bytearray(path.read_bytes())
    offset = 20 + segment * (SEGMENT_RECORDS * 8 + 4) + 11
    data[offset] ^= 0x40
    path.write_bytes(data)


def _rewrite_as_v2(path: Path) -> None:
    """Rewrite a checkpoint in the version-2 layout."""
    payload = load_checkpoint_payload(path)
    for node in payload["state"]["firmware"]["nodes"]:
        tags, states, meta = unpack_rows(node["directory"])
        node["directory"] = {"tags": tags, "states": states, "meta": meta}
    body = {
        key: value for key, value in payload.items()
        if key not in ("format", "version", "crc")
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(canonical.encode("utf-8"))
    path.write_text(json.dumps(
        {"format": "memories-checkpoint", "version": 2, "crc": crc, **body}
    ))


def _killed_at_commit(spec: SupervisedRunSpec, words, run_dir: Path) -> bool:
    """Run until the commit-boundary kill exhausts the restart budget."""
    supervisor = RunSupervisor.create(spec, words, run_dir)
    try:
        supervisor.run(chaos=ChaosPlan(kill_at_commit=1))
    except SupervisorError:
        return True
    return False


def main() -> int:
    smoke = SmokeChecks("chaos")
    words = synthetic_words(RECORDS, SEED)

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        tmp = Path(tmp)

        spec = _spec()
        bare = _bare_statistics(spec, words)

        result = RunSupervisor.create(spec, words, tmp / "clean").run()
        smoke.check(
            "zero-fault supervised run identical to bare replay",
            result.statistics == bare and not result.degraded,
        )

        supervisor = RunSupervisor.create(spec, words, tmp / "midkill")
        result = supervisor.run(chaos=ChaosPlan(kill_after_records=1500))
        smoke.check(
            "mid-segment SIGKILL: restarted run identical to bare replay",
            result.statistics == bare and result.restarts == 1,
            f"restarts={result.restarts}",
        )

        strict = _spec(max_restarts=0)
        budget_hit = _killed_at_commit(strict, words, tmp / "commitkill")
        resumed = RunSupervisor.open(tmp / "commitkill")
        result = resumed.run()
        status = resumed.status()
        smoke.check(
            "commit-boundary SIGKILL + cold resume identical to bare replay",
            budget_hit
            and result.statistics == bare
            and status["complete"]
            and status["restarts"] == 1,
            f"budget_hit={budget_hit} restarts={status['restarts']}",
        )

        budget_hit = _killed_at_commit(strict, words, tmp / "v2resume")
        newest = find_latest_checkpoint(tmp / "v2resume" / "checkpoints")
        if newest is not None:
            _rewrite_as_v2(newest)
        result = RunSupervisor.open(tmp / "v2resume").run()
        # The resumed worker must have started from the rewritten file,
        # not fallen back past it.
        events = (tmp / "v2resume" / RunSupervisor.EVENTS_NAME).read_text()
        starts = [
            record.get("checkpoint")
            for record in map(json.loads, events.splitlines())
            if record.get("event") == "worker_started"
        ]
        smoke.check(
            "resume from a version-2 rewrite of the newest checkpoint "
            "identical to bare replay",
            budget_hit
            and newest is not None
            and json.loads(newest.read_text())["version"] == 2
            and starts[-1] == str(newest)
            and "checkpoint_digest_mismatch" not in events
            and result.digest == statistics_digest(bare),
            f"budget_hit={budget_hit} newest={newest} starts={starts}",
        )

        supervisor = RunSupervisor.create(spec, words, tmp / "quarantine")
        _corrupt_segment(tmp / "quarantine", 2)
        result = supervisor.run()
        smoke.check(
            "corrupt trace segment quarantined; run completes degraded",
            result.degraded
            and result.segments_quarantined == 1
            and result.records_skipped == SEGMENT_RECORDS
            and supervisor.status()["quarantined_segments"] == [2],
            f"quarantined={result.segments_quarantined} "
            f"skipped={result.records_skipped}",
        )

        ecc_spec = _spec(ecc=True)
        supervisor = RunSupervisor.create(ecc_spec, words, tmp / "badnode")
        result = supervisor.run(chaos=ChaosPlan(fail_node=(1, 0)))
        smoke.check(
            "uncorrectable directory damage offlines the node; run completes",
            result.degraded
            and result.offline_nodes == [0]
            and result.statistics["board.offline_nodes"] == 1,
            f"offline={result.offline_nodes}",
        )

    return smoke.finish()


if __name__ == "__main__":
    sys.exit(main())
