"""The engine registry: declared requirements, audited decisions.

Two engines replay packed words on one board: the scalar reference loop
and the compiled engine.  Each :class:`EngineSpec` names the
capabilities its bit-identity proof requires.  :func:`decide` runs the
static prover over a programmed board and compares requirement to grant,
producing an :class:`EngineDecision` whose report *is* the audit trail:
one ``EN301`` error finding per missing capability, with the prover's
reason.

:func:`select_board_engine` is the single selection point —
:meth:`MemoriesBoard._replay_words
<repro.memories.board.MemoriesBoard._replay_words>` routes through it,
so no replay path carries its own refusal logic.  It returns the
compiled engine when the board's ``batched_replay`` preference flag is
set and the board grants what that engine requires, and the scalar
engine otherwise: the flag expresses *intent* (A/B benchmarking,
bisection), the capabilities express *correctness*.  Within the
compiled engine, :func:`~repro.memories.compiled.replay_words_compiled`
picks the runner; that choice never changes a result, so it is not a
requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.common.errors import ConfigurationError
from repro.engines.capabilities import (
    Capability,
    CapabilityProof,
    prove_capabilities,
)
# Bound as a module, so the entry point is looked up at call time.
# Loading it loads the set lanes (repro.memories.lockstep) too, so a
# process that forks supervised workers after importing the registry
# hands both on.
from repro.memories import compiled
from repro.verify.findings import Report


@dataclass(frozen=True)
class EngineSpec:
    """One replay engine.

    Attributes:
        name: registry key (``scalar`` or ``compiled``).
        requires: capabilities the engine's bit-identity proof needs.
        replay: ``replay(board, words) -> int``.
    """

    name: str
    requires: frozenset
    replay: Callable


@dataclass
class EngineDecision:
    """The audited verdict for one engine against one configuration."""

    spec: EngineSpec
    proof: CapabilityProof
    report: Report

    @property
    def missing(self) -> frozenset:
        return frozenset(self.spec.requires - self.proof.granted)

    @property
    def eligible(self) -> bool:
        return self.report.ok

    def reason(self) -> str:
        """The first error message (for exception surfaces)."""
        errors = self.report.errors
        return errors[0].message if errors else ""


def _decision(spec: EngineSpec, proof: CapabilityProof) -> EngineDecision:
    report = Report(subject=f"engine '{spec.name}'")
    report.ran("missing-capability")
    for capability in sorted(spec.requires, key=lambda c: c.value):
        if proof.grants(capability):
            report.info(
                "missing-capability",
                f"capability {capability} granted",
                rule="EN301",
            )
            continue
        reasons = proof.reasons(capability) or (
            "configuration does not grant it",
        )
        for reason in reasons:
            report.error(
                "missing-capability",
                reason,
                location=f"capability {capability}",
                rule="EN301",
            )
    return EngineDecision(spec=spec, proof=proof, report=report)


def _prove(caller: str, board, machine) -> CapabilityProof:
    """The proof :func:`decide` and :func:`decide_all` judge against:
    ``board``, or a board built from ``machine``."""
    if board is None:
        if machine is None:
            raise ConfigurationError(
                f"{caller}() needs a board or a machine to prove against"
            )
        from repro.memories.board import board_for_machine

        board = board_for_machine(machine)
    return prove_capabilities(board)


def decide(engine: str, board=None, machine=None) -> EngineDecision:
    """Prove one engine eligible (or not) for a configuration.

    Pass a programmed ``board``, or a ``machine`` from which one is
    built.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; registered: "
            f"{', '.join(sorted(ENGINES))}"
        )
    proof = _prove("decide", board, machine)
    return _decision(ENGINES[engine], proof)


def decide_all(board=None, machine=None) -> List[EngineDecision]:
    """Decisions for every engine, in :data:`ENGINES` order."""
    proof = _prove("decide_all", board, machine)
    return [_decision(spec, proof) for spec in ENGINES.values()]


def _replay_scalar(board, words) -> int:
    return board._replay_words_scalar(words)


def _replay_compiled(board, words) -> int:
    return compiled.replay_words_compiled(board, words)


#: name -> spec.  The scalar engine requires nothing, so selection
#: always has a fallback.
ENGINES: Dict[str, EngineSpec] = {
    "scalar": EngineSpec("scalar", frozenset(), _replay_scalar),
    "compiled": EngineSpec(
        "compiled",
        frozenset({Capability.INERT_BACKGROUND_TICK}),
        _replay_compiled,
    ),
}


def select_board_engine(board) -> EngineSpec:
    """The engine that replays ``board``: compiled when the board's
    ``batched_replay`` preference flag is set and the board grants every
    capability compiled requires, scalar otherwise."""
    if board.batched_replay:
        spec = ENGINES["compiled"]
        if spec.requires <= prove_capabilities(board).granted:
            return spec
    return ENGINES["scalar"]
