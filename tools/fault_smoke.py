#!/usr/bin/env python
"""CI smoke test of the fault-injection machinery (repro.faults).

Four contracts are asserted, each seeded so CI failures reproduce
locally byte-for-byte:

1. **Zero-fault identity** — with every fault rate at 0.0, the injected
   replay must match the bare baseline replay *exactly*, key-for-key and
   value-for-value, with ECC both off and on.  Any drift here means the
   injection overlay or the recovery machinery perturbs healthy runs.
2. **Reproducibility** — rerunning the same non-zero plan must commit the
   identical fault-event sequence and land on identical statistics.
3. **Scrub recovery** — every injected single-bit directory flip must be
   corrected by one full patrol pass, with zero uncorrectable events.
4. **Resume over duplicate tags** — on a board whose tag flips left two
   resident lines with one tag, checkpoint → restore → continue must end
   with the uninterrupted replay's statistics digest and checkpoint, on
   the scalar and the default engine.  A restore rebuilds each way map
   with the first copy winning, so every incremental update must too.

Exit status is non-zero on any violation.
"""

from __future__ import annotations

import sys

import numpy as np

from _smoke import SmokeChecks, synthetic_words

from repro.faults import FaultPlan, run_campaign
from repro.memories.board import board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.supervisor.spec import statistics_digest
from repro.target.configs import split_smp_machine

RECORDS = 4000
SEED = 20000


def _machine():
    config = CacheNodeConfig(size=64 * 1024, assoc=4, line_size=128)
    return split_smp_machine(config, n_cpus=4, procs_per_node=2)


def _flip_into_duplicates(board) -> int:
    """Flip way 1 of every set holding two lines into way 0's tag."""
    flips = 0
    for node in board.firmware.nodes:
        directory = node.directory
        for set_index in range(directory.config.num_sets):
            if directory.ways_in_set(set_index) < 2:
                continue
            tags = directory.set_tags(set_index)
            diff = tags[0] ^ tags[1]
            for bit in range(diff.bit_length()):
                if diff >> bit & 1:
                    directory.inject_bit_flip(set_index, 1, bit)
            flips += 1
    return flips


def _resume_matches(machine, words, batched: bool) -> tuple:
    """Continuous vs checkpoint/restore replay across duplicate tags;
    returns (digests equal, checkpoints equal, sets flipped)."""
    third = len(words) // 3
    straight = board_for_machine(machine, seed=SEED)
    straight.batched_replay = batched
    straight.replay_words(words[:third])
    flips = _flip_into_duplicates(straight)
    straight.replay_words(words[third:2 * third])
    resumed = board_for_machine(machine, seed=SEED)
    resumed.batched_replay = batched
    resumed.restore(straight.checkpoint())
    straight.replay_words(words[2 * third:])
    resumed.replay_words(words[2 * third:])
    return (
        statistics_digest(straight.statistics())
        == statistics_digest(resumed.statistics()),
        straight.checkpoint() == resumed.checkpoint(),
        flips,
    )


def main() -> int:
    smoke = SmokeChecks("fault")
    words = synthetic_words(RECORDS, SEED)
    machine = _machine()

    for ecc in (False, True):
        result = run_campaign(words, machine, FaultPlan(), ecc=ecc)
        smoke.check(
            f"zero-fault campaign identical to baseline (ecc={ecc})",
            result.identical and result.fault_counts == {},
            result.summary(),
        )

    plan = FaultPlan.uniform(0.01, seed=SEED)
    first = run_campaign(words, machine, plan)
    second = run_campaign(words, machine, plan)
    smoke.check(
        "seeded plan reproduces fault sites",
        first.events == second.events and len(first.events) > 0,
        f"{len(first.events)} vs {len(second.events)} events",
    )
    smoke.check(
        "seeded plan reproduces statistics",
        first.faulted == second.faulted,
    )

    board = board_for_machine(machine, ecc=True)
    board.replay_words(words)
    rng = np.random.default_rng(SEED)
    flips = 0
    for node in board.firmware.nodes:
        directory = node.directory
        for set_index in range(directory.config.num_sets):
            if directory.ways_in_set(set_index) == 0:
                continue
            directory.inject_bit_flip(
                set_index, 0, int(rng.integers(directory.stored_bits))
            )
            flips += 1
        node.scrubber.scrub_all()
    corrected = sum(
        node.resilience.snapshot().get(
            f"node{node.index}.resilience.ecc.corrected", 0
        )
        for node in board.firmware.nodes
    )
    uncorrectable = sum(
        node.resilience.snapshot().get(
            f"node{node.index}.resilience.ecc.uncorrectable", 0
        )
        for node in board.firmware.nodes
    )
    smoke.check(
        "scrub pass corrects every injected single-bit flip",
        flips > 0 and corrected == flips and uncorrectable == 0,
        f"flips={flips} corrected={corrected} uncorrectable={uncorrectable}",
    )

    for batched, engine in ((False, "scalar"), (True, "default")):
        same_digest, same_checkpoint, flips = _resume_matches(
            machine, words, batched
        )
        smoke.check(
            f"resume over duplicate tags matches continuous ({engine})",
            flips > 0 and same_digest and same_checkpoint,
            f"flips={flips} digest={same_digest} "
            f"checkpoint={same_checkpoint}",
        )

    return smoke.finish()


if __name__ == "__main__":
    sys.exit(main())
