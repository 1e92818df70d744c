"""The engine registry: declared requirements, audited decisions.

Each replay engine registers an :class:`EngineSpec` naming the
capabilities its bit-identity proof requires.  :func:`decide` runs the
static prover over a programmed board and compares requirement to grant,
producing an :class:`EngineDecision` whose report *is* the audit trail:
one ``EN301`` error finding per missing capability, with the prover's
reason.

Two engines replay packed words on one board: the scalar reference loop
and the compiled engine.  :func:`select_board_engine` is the single
selection point — :meth:`MemoriesBoard._replay_words
<repro.memories.board.MemoriesBoard._replay_words>` routes through it,
so no replay path carries its own refusal logic.  Within the compiled
engine, :func:`~repro.memories.compiled.replay_words_compiled` picks the
runner from the same proof; that choice never changes a result, so it is
not a requirement.

Selection honours the board's ``batched_replay`` preference flag: with
it cleared, only rank-0 engines (the scalar reference path) are
candidates — the flag expresses *intent* (A/B benchmarking, bisection),
while capability eligibility expresses *correctness*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.engines.capabilities import (
    Capability,
    CapabilityProof,
    prove_capabilities,
)
# Bound as a module and looked up at call time: compiled imports this
# package's capabilities, so it may still be initialising here.  Loading
# it loads the set lanes (repro.memories.lockstep) too, so a process
# that forks supervised workers after importing the registry hands both
# on.
from repro.memories import compiled
from repro.verify.findings import Report


@dataclass(frozen=True)
class EngineSpec:
    """One registered replay engine.

    Attributes:
        name: registry key (``scalar``, ``compiled`` ...).
        description: one line for ``verify engines`` output.
        requires: capabilities the engine's bit-identity proof needs.
        rank: selection preference among eligible engines (higher wins;
            the scalar reference engine is rank 0 and requires nothing,
            so selection always has a fallback).
        replay: ``replay(board, words) -> int``.
    """

    name: str
    description: str
    requires: frozenset
    rank: int
    replay: Callable


#: name -> spec, in registration order.
ENGINES: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add an engine to the registry (future backends plug in here)."""
    if spec.name in ENGINES:
        raise ConfigurationError(
            f"engine {spec.name!r} is already registered"
        )
    ENGINES[spec.name] = spec
    return spec


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
    """Decisions for every registered engine, in registration order."""
    proof = _prove("decide_all", board, machine)
    return [_decision(spec, proof) for spec in ENGINES.values()]


def select_board_engine(board) -> EngineSpec:
    """Pick the best eligible engine for one board.

    The single in-process selection point: highest-rank engine whose
    required capabilities the board grants, restricted to rank 0 (the
    scalar reference path) when the board's ``batched_replay`` preference
    flag is cleared.  Always returns an engine — the scalar engine
    requires nothing.
    """
    proof = prove_capabilities(board)
    best: Optional[EngineSpec] = None
    for spec in ENGINES.values():
        if not board.batched_replay and spec.rank > 0:
            continue
        if spec.requires - proof.granted:
            continue
        if best is None or spec.rank > best.rank:
            best = spec
    if best is None:  # pragma: no cover — scalar is always registered
        raise ConfigurationError(
            "no eligible replay engine is registered"
        )
    return best


# ---------------------------------------------------------------------- #
# Built-in engines
# ---------------------------------------------------------------------- #

def _replay_scalar(board, words) -> int:
    return board._replay_words_scalar(words)


def _replay_compiled(board, words) -> int:
    return compiled.replay_words_compiled(board, words)


register_engine(
    EngineSpec(
        name="scalar",
        description="reference per-record dispatch loop (always exact)",
        requires=frozenset(),
        rank=0,
        replay=_replay_scalar,
    )
)

register_engine(
    EngineSpec(
        name="compiled",
        description=(
            "vectorised chunk replay through the cache-protocol runner "
            "(repro.memories.compiled)"
        ),
        requires=frozenset({Capability.INERT_BACKGROUND_TICK}),
        rank=15,
        replay=_replay_compiled,
    )
)
