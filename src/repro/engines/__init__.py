"""Replay engine registry and static capability prover.

The repo replays one captured trace through two engines — the scalar
reference loop and the vectorised compiled engine — under one contract:
**bit-identical statistics**.  The compiled engine's correctness argument
only holds for configurations with certain properties (inert background
machinery), and its runner choice depends on more (per-set independence,
no global order coupling).  Historically each engine checked its own
preconditions in scattered, ad-hoc refusal branches; this package
replaces them with a single auditable decision:

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

A new backend plugs in by registering an
:class:`~repro.engines.registry.EngineSpec`; it inherits the prover, the
CLI (``verify engines``) and the selection logic unchanged.
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
    register_engine,
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
    "register_engine",
    "select_board_engine",
]
