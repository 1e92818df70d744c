"""Replay engine registry and static capability prover.

The repo replays one captured trace through several engines — the scalar
reference loop, the vectorised compiled engine, the set-interleaved
sharded engine — under one contract: **bit-identical statistics**.  Each
engine's correctness argument only holds for configurations with certain
properties (no board-wide RNG coupling, inert background machinery,
shard-decomposable set indices ...).  Historically each engine checked
its own preconditions in scattered, ad-hoc refusal branches; this package
replaces them with a single auditable decision:

* :mod:`repro.engines.capabilities` — the capability vocabulary and the
  **static prover**: evaluate a programmed board (plus an optional shard
  spec) and return which capabilities the configuration *grants*, with a
  recorded reason for every denial.
* :mod:`repro.engines.registry` — each engine declares the capabilities
  it *requires*; :func:`~repro.engines.registry.decide` compares
  requirement to grant **before replay** and reports the verdict as a
  standard :class:`~repro.verify.findings.Report` (rule ``EN301`` per
  missing capability, ``EN302`` for structurally invalid shard specs),
  so "why was this engine rejected?" is a stored artifact, not a
  debugging session.

Future backends (GPU — ROADMAP item 2) plug in by registering
an :class:`~repro.engines.registry.EngineSpec`; they inherit the prover,
the CLI (``verify engines``) and the selection logic unchanged.
"""

from repro.engines.capabilities import (
    Capability,
    CapabilityProof,
    ShardSpec,
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
    "ShardSpec",
    "decide",
    "decide_all",
    "prove_capabilities",
    "register_engine",
    "select_board_engine",
]
