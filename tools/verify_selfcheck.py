#!/usr/bin/env python
"""Self-check of the static verifiers against broken-input corpora.

CI runs this after ``verify protocol`` / ``verify repo`` certify the
shipped artifacts: a checker that passes everything is worse than no
checker, so every corpus entry must be *rejected*, and rejected for the
right reason — the expected invariant or rule must appear among the
ERROR findings.  Two corpora are exercised:

* ``CORPUS`` — seeded mutations of known-good protocol tables against
  the model checker.
* ``LINT_CORPUS`` / ``CLEAN_CORPUS`` — source snippets against the repo
  lint + determinism analyzer: each defective snippet must fire exactly
  its rule, and each clean (or suppressed) snippet must stay quiet, so
  the rules neither miss nor cry wolf.
* ``ENGINE_CORPUS`` — board configurations against the engine
  registry's capability prover: each feature that breaks an engine's
  bit-identity argument (an active ECC patrol scrubber, a tick hook that
  cannot be proven idle) must deny exactly the expected capability, and
  the configurations the compiled engine replays on one of its own
  runners (random replacement, SDRAM pricing, a custom policy, slow
  buffers) must stay eligible.

Exit status is non-zero on any miss.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path
from typing import Callable, List, Tuple

from repro.memories.config import BUILTIN_PROTOCOLS
from repro.memories.protocol_table import load_protocol
from repro.verify.lint import check_repo
from repro.verify.protocol import check_protocol


def _drop_entry(table: dict) -> None:
    table["transitions"].remove(_entry(table, "LOCAL_READ", "SHARED"))


def _stale_dirty_peer(table: dict) -> None:
    _entry(table, "REMOTE_WRITE", "MODIFIED")["next"] = "MODIFIED"


def _exclusive_shared_fill(table: dict) -> None:
    table["fill"]["read_shared"] = "EXCLUSIVE"


def _dirty_fill_alone(table: dict) -> None:
    table["fill"]["read_alone"] = "MODIFIED"


def _clean_write_fill(table: dict) -> None:
    table["fill"]["write"] = "SHARED"


def _dropped_writeback(table: dict) -> None:
    entry = _entry(table, "REMOTE_READ", "MODIFIED")
    entry["next"] = "SHARED"
    entry["hit"] = False


def _dead_state(table: dict) -> None:
    table["states"].append("OWNED")
    for op in ("LOCAL_READ", "LOCAL_WRITE", "LOCAL_CASTOUT",
               "REMOTE_READ", "REMOTE_WRITE"):
        table["transitions"].append(
            {"op": op, "state": "OWNED", "next": "OWNED", "hit": True}
        )


def _unknown_op(table: dict) -> None:
    table["transitions"][0]["op"] = "LOCAL_FROB"


def _undeclared_target(table: dict) -> None:
    _entry(table, "LOCAL_WRITE", "SHARED")["next"] = "OWNED"


def _declared_invalid(table: dict) -> None:
    table["states"].append("INVALID")


def _entry(table: dict, op: str, state: str) -> dict:
    return next(
        entry for entry in table["transitions"]
        if entry["op"] == op and entry["state"] == state
    )


#: (description, base table, mutation, invariant expected to flag it).
CORPUS: List[Tuple[str, str, Callable[[dict], None], str]] = [
    ("dropped (LOCAL_READ, SHARED) entry", "mesi", _drop_entry, "completeness"),
    ("REMOTE_WRITE leaves stale MODIFIED peer", "mesi", _stale_dirty_peer, "swmr"),
    ("read_shared fill claims EXCLUSIVE", "mesi", _exclusive_shared_fill,
     "fill-consistency"),
    ("read_alone fill installs dirty data", "msi", _dirty_fill_alone,
     "fill-consistency"),
    ("write fill installs clean data", "msi", _clean_write_fill,
     "fill-consistency"),
    ("remote read drops modified data", "moesi", _dropped_writeback,
     "dirty-writeback"),
    ("OWNED declared but never allocated", "mesi", _dead_state, "reachability"),
    ("unknown operation name", "msi", _unknown_op, "structure"),
    ("transition into undeclared OWNED", "msi", _undeclared_target,
     "reachability"),
    ("INVALID declared as a state", "mesi", _declared_invalid, "structure"),
]


#: (description, source snippet, rule ID expected to flag it[, subdir]).
#: Each snippet is one seeded defect; the repo lint must reject it and
#: name the right rule.  The optional fourth element places the snippet
#: in a subdirectory of the lint root — path-scoped rules (DT207 applies
#: only under ``supervisor/``/``service/``) need their defects planted
#: inside the scoped tree.
LINT_CORPUS: List[Tuple[str, ...]] = [
    (
        "imported name never used",
        "from typing import List, Optional\n\n"
        "def first(items: List[int]):\n"
        "    return items[0]\n",
        "RP107",
    ),
    (
        "mutable default argument",
        "def extend(item, acc=[]):\n"
        "    acc.append(item)\n"
        "    return acc\n",
        "RP104",
    ),
    (
        "list-of-calls replicated with '*'",
        "def build_rows(n):\n"
        "    return [dict()] * n\n",
        "RP105",
    ),
    (
        "dict.fromkeys sharing one mutable value",
        "def empty_queues(names):\n"
        "    return dict.fromkeys(names, [])\n",
        "RP105",
    ),
    (
        "constructor instance replicated with '*'",
        "def build_sets(n):\n"
        "    meta = LineMeta()\n"
        "    return [meta] * n\n",
        "RP105",
    ),
    (
        "streaming json.dump in library code",
        "import json\n\n"
        "def save(payload, handle):\n"
        "    json.dump(payload, handle)\n",
        "RP106",
    ),
    (
        "set iteration in a serialization routine",
        "def write_rows(stream, items):\n"
        "    seen = set(items)\n"
        "    for item in seen:\n"
        "        stream.write(item)\n",
        "DT201",
    ),
    (
        "wall-clock read outside the timing shim",
        "import time\n\n"
        "def stamp():\n"
        "    return time.monotonic()\n",
        "DT202",
    ),
    (
        "calendar clock read",
        "import datetime\n\n"
        "def label():\n"
        "    return datetime.datetime.now().isoformat()\n",
        "DT202",
    ),
    (
        "unseeded kernel entropy",
        "import os\n\n"
        "def token():\n"
        "    return os.urandom(8)\n",
        "DT203",
    ),
    (
        "default_rng without a seed",
        "import numpy as np\n\n"
        "def stream():\n"
        "    return np.random.default_rng()\n",
        "DT203",
    ),
    (
        "builtin hash() in emulation state",
        "def bucket(key):\n"
        "    return hash(key) % 64\n",
        "DT204",
    ),
    (
        "float sum over a set",
        "def total(values):\n"
        "    return sum({float(v) for v in values})\n",
        "DT205",
    ),
    (
        "lambda handed to a pool dispatch",
        "def run(pool, items):\n"
        "    return pool.map(lambda x: x + 1, items)\n",
        "DT206",
    ),
    (
        "nested function handed to a pool dispatch",
        "def run(pool, items):\n"
        "    def work(x):\n"
        "        return x + 1\n"
        "    return pool.map(work, items)\n",
        "DT206",
    ),
    (
        "stdlib-random backoff jitter in supervisor code",
        "import random\n\n"
        "def backoff(base, attempt):\n"
        "    return base * 2 ** attempt * (1.0 + random.random())\n",
        "DT207",
        "supervisor",
    ),
    (
        "legacy numpy global-RNG jitter in service code",
        "import numpy as np\n\n"
        "def retry_delay(base):\n"
        "    return base * (1.0 + 0.25 * np.random.uniform())\n",
        "DT207",
        "service",
    ),
    (
        "perf_counter timestamping inside the flight recorder",
        "import time\n\n"
        "def stamp_entry(entry):\n"
        "    entry['seen'] = time.perf_counter()\n"
        "    return entry\n",
        "DT208",
        "obs",
    ),
]

#: (description, source snippet[, subdir]) pairs the lint must pass
#: untouched — the deterministic spelling of each defect above, plus an
#: inline suppression.  These prove the rules stay quiet on correct code.
CLEAN_CORPUS: List[Tuple[str, ...]] = [
    (
        "imports used by a quoted annotation, __all__ and an attribute, "
        "and an availability probe",
        "import os.path\n"
        "from typing import Optional\n\n"
        "from repro.common.errors import ReproError\n\n"
        "try:\n"
        "    import numba\n"
        "except ImportError:\n"
        "    pass\n\n"
        "__all__ = ['ReproError']\n\n"
        "def join(name) -> 'Optional[str]':\n"
        "    return os.path.join('.', name)\n",
    ),
    (
        "one-shot json.dumps and an indented report dump",
        "import json\n\n"
        "def save(payload, handle, report, out):\n"
        "    handle.write(json.dumps(payload))\n"
        "    json.dump(report, out, indent=2)\n",
    ),
    (
        "sorted set iteration in a serialization routine",
        "def write_rows(stream, items):\n"
        "    for item in sorted(set(items)):\n"
        "        stream.write(item)\n",
    ),
    (
        "perf_counter is exempt from the wall-clock rule",
        "import time\n\n"
        "def measure():\n"
        "    return time.perf_counter()\n",
    ),
    (
        "seeded default_rng",
        "import numpy as np\n\n"
        "def stream(seed):\n"
        "    return np.random.default_rng(seed)\n",
    ),
    (
        "per-slot instances via comprehension",
        "def build_rows(n):\n"
        "    return [dict() for _ in range(n)]\n",
    ),
    (
        "float sum over dict values (insertion-ordered)",
        "def total(counters):\n"
        "    return sum(counters.values())\n",
    ),
    (
        "module-level worker function",
        "def work(x):\n"
        "    return x + 1\n\n"
        "def run(pool, items):\n"
        "    return pool.map(work, items)\n",
    ),
    (
        "inline suppression silences the named rule",
        "def bucket(key):\n"
        "    return hash(key) % 64  # repro: ignore[DT204]\n",
    ),
    (
        "seed-derived backoff jitter in supervisor code",
        "import numpy as np\n\n"
        "def backoff(seed, base, attempt):\n"
        "    rng = np.random.default_rng(\n"
        "        np.random.SeedSequence([seed, attempt]))\n"
        "    return base * 2 ** attempt * (1.0 + 0.25 * rng.random())\n",
        "supervisor",
    ),
    (
        "recorder consumes durations recorded as data",
        "def stamp_entry(entry, span):\n"
        "    entry['seen'] = span['wall']['seconds']\n"
        "    return entry\n",
        "obs",
    ),
]


#: (description, board feature, engine, capability expected missing —
#: None means the engine must be eligible).
ENGINE_CORPUS: List[Tuple[str, str, str, object]] = [
    ("stock split board runs the compiled runner",
     "stock", "compiled", None),
    ("random replacement runs compiled through the policy's own RNG",
     "random", "compiled", None),
    ("a custom replacement policy class replays on the generic runner",
     "custom-policy", "compiled", None),
    ("SDRAM-priced buffers replay on the generic runner",
     "sdram", "compiled", None),
    ("ECC patrol scrubber blocks the compiled engine",
     "ecc", "compiled", "inert_background_tick"),
    ("a tick hook without a tick_active() hint blocks the compiled engine",
     "unhinted-tick", "compiled", "inert_background_tick"),
    ("compiled keeps replaying slow-buffer boards",
     "slow-buffer", "compiled", None),
]


def _engine_board(feature: str):
    from repro.memories.board import board_for_machine
    from repro.memories.config import CacheNodeConfig
    from repro.target.configs import split_smp_machine

    config = CacheNodeConfig(
        size=128 * 1024, assoc=4, line_size=128,
        replacement="random" if feature == "random" else "lru",
    )
    machine = split_smp_machine(config, n_cpus=8, procs_per_node=2)
    if feature == "ecc":
        return board_for_machine(machine, ecc=True, scrub_interval=500.0)
    if feature == "unhinted-tick":
        from repro.memories.board import CacheEmulationFirmware, MemoriesBoard

        class UnhintedTick(CacheEmulationFirmware):
            """A tick hook the prover cannot prove idle."""

            tick_active = None

        return MemoriesBoard(UnhintedTick(machine))
    if feature == "slow-buffer":
        # At 90% utilization a tenure is 2.2 cycles, shorter than the
        # 4.8-cycle directory service: queues can grow past depth one.
        return board_for_machine(machine, assumed_utilization=0.9)
    board = board_for_machine(machine)
    if feature == "sdram":
        from repro.memories.sdram import SdramModel

        board.firmware.nodes[0].sdram = SdramModel()
    if feature == "custom-policy":
        from repro.memories.replacement import LruPolicy

        class CustomLru(LruPolicy):
            """An LRU subclass: behaviour the runner cannot vouch for."""

        board.firmware.nodes[0].directory.policy = CustomLru()
    return board


def _check_engine_corpus() -> int:
    """Prove each engine-denial case fires, and the eligible case doesn't."""
    from repro.engines import decide

    failures = 0
    for description, feature, engine, expected in ENGINE_CORPUS:
        decision = decide(engine, board=_engine_board(feature))
        if expected is None:
            if decision.eligible:
                print(f"eligible: {description} [{engine}]")
            else:
                print(
                    f"WRONG DENIAL: {description} "
                    f"({engine}: {decision.reason()})"
                )
                failures += 1
            continue
        missing = {str(capability) for capability in decision.missing}
        if decision.eligible:
            print(
                f"MISSED: {description} "
                f"(expected {expected} missing, got eligible)"
            )
            failures += 1
        elif expected not in missing:
            print(
                f"WRONG CAPABILITY: {description} "
                f"(expected {expected}, got {sorted(missing)})"
            )
            failures += 1
        else:
            print(f"denied: {description} [{engine} missing {expected}]")
    return failures


def _check_lint_corpus() -> int:
    """Run the defect + clean snippets through ``check_repo``; count misses."""
    failures = 0
    with tempfile.TemporaryDirectory(prefix="lint-selfcheck-") as tmp:
        root = Path(tmp)
        defect_files = {}
        for index, entry in enumerate(LINT_CORPUS):
            description, source, expected = entry[0], entry[1], entry[2]
            subdir = entry[3] if len(entry) > 3 else ""
            name = f"defect_{index:02d}.py"
            if subdir:
                name = f"{subdir}/{name}"
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
            defect_files[name] = (description, expected)
        clean_files = {}
        for index, entry in enumerate(CLEAN_CORPUS):
            description, source = entry[0], entry[1]
            subdir = entry[2] if len(entry) > 2 else ""
            name = f"clean_{index:02d}.py"
            if subdir:
                name = f"{subdir}/{name}"
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
            clean_files[name] = description

        report = check_repo(root, profile="library")

        for name, (description, expected) in sorted(defect_files.items()):
            fired = {
                finding.rule for finding in report.errors
                if finding.path == name
            }
            if expected in fired:
                print(f"flagged: {description} [{expected}]")
            elif fired:
                print(
                    f"WRONG RULE: {description} "
                    f"(expected {expected}, got {sorted(fired)})"
                )
                failures += 1
            else:
                print(f"MISSED: {description} (expected {expected}, got PASS)")
                failures += 1

        for name, description in sorted(clean_files.items()):
            noisy = [
                finding for finding in report.errors + report.warnings
                if finding.path == name
            ]
            if noisy:
                print(f"FALSE POSITIVE: {description}")
                for finding in noisy:
                    print("  " + finding.render())
                failures += 1
            else:
                print(f"quiet: {description}")
    return failures


def main() -> int:
    failures = 0

    for name in BUILTIN_PROTOCOLS:
        report = check_protocol(name)
        verdict = "ok" if report.ok else "FAIL"
        print(f"shipped {name!r}: {verdict}")
        if not report.ok:
            failures += 1
            for finding in report.errors:
                print("  " + finding.render())

    for description, base, mutate, expected in CORPUS:
        table = load_protocol(base).to_map()
        mutated = copy.deepcopy(table)
        mutate(mutated)
        report = check_protocol(mutated)
        flagged = {finding.check for finding in report.errors}
        if report.ok:
            print(f"MISSED: {description} (expected {expected}, got PASS)")
            failures += 1
        elif expected not in flagged:
            print(
                f"WRONG INVARIANT: {description} "
                f"(expected {expected}, got {sorted(flagged)})"
            )
            failures += 1
        else:
            print(f"rejected: {description} [{expected}]")

    failures += _check_lint_corpus()
    failures += _check_engine_corpus()

    if failures:
        print(f"\nself-check FAILED: {failures} case(s)")
        return 1
    print(f"\nself-check passed: {len(BUILTIN_PROTOCOLS)} shipped tables "
          f"certified, {len(CORPUS)} broken tables rejected, "
          f"{len(LINT_CORPUS)} lint defects flagged, "
          f"{len(CLEAN_CORPUS)} clean snippets quiet, "
          f"{len(ENGINE_CORPUS)} engine capability verdicts checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
