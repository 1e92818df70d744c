"""Replay engine registry and static capability prover.

The repo replays one captured trace through two engines — the scalar
reference loop and the vectorised compiled engine — under one contract:
**bit-identical statistics**.  The compiled engine's correctness argument
only holds for configurations whose background machinery is inert;
this package makes that one auditable decision:

* :mod:`repro.engines.capabilities` — the capability vocabulary and the
  **static prover**: evaluate a programmed board and return which
  capabilities the configuration *grants*, with a recorded reason for
  every denial.
* :mod:`repro.engines.registry` — each engine declares the capabilities
  it *requires*; :func:`~repro.engines.registry.decide` compares
  requirement to grant **before replay** and reports the verdict as a
  standard :class:`~repro.verify.findings.Report` (rule ``EN301`` per
  missing capability), so "why was this engine rejected?" is a stored
  artifact, not a debugging session.

Everything else the compiled engine decides — closed-form loop, set
lanes or generic runner — is its own choice, made per call in
:mod:`repro.memories.compiled`, and never changes a result.
"""

from repro.engines.capabilities import (
    Capability,
    CapabilityProof,
    prove_capabilities,
)
from repro.engines.registry import (
    ENGINES,
    EngineDecision,
    EngineSpec,
    decide,
    decide_all,
    select_board_engine,
)

__all__ = [
    "Capability",
    "CapabilityProof",
    "ENGINES",
    "EngineDecision",
    "EngineSpec",
    "decide",
    "decide_all",
    "prove_capabilities",
    "select_board_engine",
]
