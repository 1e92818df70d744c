"""The registry of static-analysis rule IDs.

Every finding the repo lint and the determinism analyzer can emit carries
a stable rule ID (``RP1xx`` for repository-invariant lint rules, ``DT2xx``
for determinism rules, ``EN3xx`` for engine capability decisions).  The ID
is what inline suppressions (``# repro: ignore[rule]``), baseline files
and SARIF output key on, so it must never be renamed once shipped; the
human-readable ``check`` slug may evolve with the message text.

``docs/static-analysis.md`` documents every rule in this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class RuleInfo:
    """Metadata for one static-analysis rule."""

    rule: str
    check: str
    summary: str


#: rule ID -> metadata, in documentation order.
RULES: Dict[str, RuleInfo] = {
    info.rule: info
    for info in (
        # -------------------------------------------------------------- #
        # Structural / bookkeeping findings
        # -------------------------------------------------------------- #
        RuleInfo("RP100", "structure",
                 "source tree structure: unparsable files, empty roots"),
        # -------------------------------------------------------------- #
        # Repository-invariant lint (PR 1, PR 5)
        # -------------------------------------------------------------- #
        RuleInfo("RP101", "rng-discipline",
                 "stdlib 'random' imported outside repro.common.rng"),
        RuleInfo("RP102", "time-discipline",
                 "time.time() called outside the timing shim"),
        RuleInfo("RP103", "exception-hierarchy",
                 "builtin exception raised, or ...Error class not derived "
                 "from ReproError"),
        RuleInfo("RP104", "mutable-default",
                 "function parameter defaults to a mutable object"),
        RuleInfo("RP105", "call-replication",
                 "sequence replication aliases one object across slots "
                 "([f()] * n, dict.fromkeys(keys, mutable), [instance] * n)"),
        RuleInfo("RP106", "streaming-json-dump",
                 "json.dump() without indent=: the streaming encoder is "
                 "pure Python; write json.dumps() for the C encoder"),
        RuleInfo("RP107", "unused-import",
                 "imported name never used in its module (pyflakes F401)"),
        # -------------------------------------------------------------- #
        # Determinism analyzer (this PR)
        # -------------------------------------------------------------- #
        RuleInfo("DT201", "unsorted-serialization",
                 "unsorted dict/set iteration feeds serialized output"),
        RuleInfo("DT202", "wallclock-escape",
                 "host wall-clock read outside the timing shim / telemetry "
                 "'wall' key"),
        RuleInfo("DT203", "unseeded-entropy",
                 "unseeded entropy source (os.urandom, uuid.uuid4, "
                 "secrets, default_rng())"),
        RuleInfo("DT204", "hash-order-dependence",
                 "builtin hash() result reaches emulation or serialized "
                 "state (PYTHONHASHSEED-dependent)"),
        RuleInfo("DT205", "unordered-float-reduction",
                 "float reduction over an unordered (set) iteration"),
        RuleInfo("DT206", "worker-closure-capture",
                 "closure over enclosing-scope state passed to a "
                 "multiprocessing worker"),
        RuleInfo("DT207", "unseeded-backoff",
                 "supervisor/service code draws process-global entropy "
                 "(stdlib random, legacy numpy.random) — retry backoff "
                 "jitter must replay from the run seed"),
        RuleInfo("DT208", "wallclock-in-recorder",
                 "flight-recorder / histogram code reads the host clock "
                 "(even perf_counter) — these paths must be pure "
                 "functions of recorded inputs so reconstruction is "
                 "byte-identical"),
        # -------------------------------------------------------------- #
        # Engine capability prover (repro.engines)
        # -------------------------------------------------------------- #
        RuleInfo("EN301", "missing-capability",
                 "configuration does not grant a capability the engine "
                 "requires"),
    )
}

#: check slug -> rule ID (for suppressions written with the slug).
RULE_OF_CHECK: Dict[str, str] = {
    info.check: info.rule for info in RULES.values()
}


def resolve_rule(name: str) -> Optional[str]:
    """Resolve a rule ID or check slug to the canonical rule ID."""
    if name in RULES:
        return name
    return RULE_OF_CHECK.get(name)
