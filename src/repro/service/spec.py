"""Session specifications and structured refusals for the emulation service.

A *session* is one tenant-owned emulation run flowing through the
service: submitted as a :class:`SessionRequest` (machine programming +
trace source + deadlines), admitted into the priority queue, executed
under a :class:`~repro.supervisor.RunSupervisor`, and finished in exactly
one terminal state.  Everything here is JSON-serialisable — the service
manifest journals the full request, so a drained-and-restarted server
can re-adopt a session from its manifest record alone.

The refusal types are the robustness contract's visible half: a session
that cannot be served is *told why*, with the exhausted budget named in
machine-readable form (:class:`AdmissionError`, :class:`DeadlineError`,
both :class:`~repro.common.errors.ResourceError` → CLI exit code 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from repro.common.errors import ResourceError, ValidationError
from repro.supervisor.spec import SupervisedRunSpec

#: Priority levels, lower is more urgent.  Ties break FIFO by admission.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Trace-source kinds a session may name.
TRACE_KINDS = ("synthetic", "stream", "file")


class SessionState(str, Enum):
    """Lifecycle of one session.  Terminal states are exhaustive: a
    session never silently hangs — it completes, fails with an error,
    expires with a deadline reason, or is suspended by a drain (and then
    re-adopted by the next server incarnation)."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    EXPIRED = "expired"
    SUSPENDED = "suspended"

    @property
    def terminal(self) -> bool:
        return self in (
            SessionState.COMPLETED,
            SessionState.FAILED,
            SessionState.EXPIRED,
        )


class AdmissionError(ResourceError):
    """The service refused to admit a session, naming the spent budget.

    Attributes:
        reason: machine-readable refusal code — ``queue-full``,
            ``tenant-queue-quota``, ``draining`` or ``shedding``.
        budget: name of the exhausted budget (empty for state refusals).
        limit: the budget's configured bound.
        value: the budget's occupancy at refusal time.
    """

    def __init__(
        self,
        reason: str,
        budget: str = "",
        limit: int = 0,
        value: int = 0,
        detail: str = "",
    ) -> None:
        message = f"admission denied ({reason})"
        if budget:
            message += f": {budget} at {value}/{limit}"
        if detail:
            message += f" — {detail}"
        super().__init__(message)
        self.reason = reason
        self.budget = budget
        self.limit = int(limit)
        self.value = int(value)

    def to_dict(self) -> dict:
        return {
            "type": "admission",
            "error": str(self),
            "reason": self.reason,
            "budget": self.budget,
            "limit": self.limit,
            "value": self.value,
        }


class DeadlineError(ResourceError):
    """A session exceeded its wall or emulated-cycle deadline.

    Attributes:
        reason: ``wall-deadline``, ``cycle-deadline`` or
            ``orphaned-ingest`` (trace never arrived).
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        message = f"deadline exceeded ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.reason = reason

    def to_dict(self) -> dict:
        return {"type": "deadline", "error": str(self), "reason": self.reason}


def validate_trace_spec(trace: dict) -> dict:
    """Normalise and validate a session's trace-source description.

    ``{"kind": "synthetic", "records": N, "seed": S, ...}`` is generated
    server-side (deterministically — same spec, same bytes);
    ``{"kind": "stream"}`` is fed by the client through the bounded
    ingest path; ``{"kind": "file", "path": P}`` names a trace file
    readable by the server process.
    """
    if not isinstance(trace, dict):
        raise ValidationError(f"trace spec must be an object, got {trace!r}")
    kind = trace.get("kind")
    if kind not in TRACE_KINDS:
        raise ValidationError(
            f"trace kind must be one of {', '.join(TRACE_KINDS)}; "
            f"got {kind!r}"
        )
    if kind == "synthetic":
        records = int(trace.get("records", 0))
        if records < 1:
            raise ValidationError(
                f"synthetic trace needs records >= 1, got {records}"
            )
        return {
            "kind": "synthetic",
            "records": records,
            "seed": int(trace.get("seed", 0)),
            "n_cpus": int(trace.get("n_cpus", 4)),
            "n_lines": int(trace.get("n_lines", 512)),
            "line_size": int(trace.get("line_size", 128)),
            "rwitm_fraction": float(trace.get("rwitm_fraction", 0.2)),
        }
    if kind == "file":
        path = trace.get("path")
        if not path:
            raise ValidationError("file trace needs a 'path'")
        return {"kind": "file", "path": str(path)}
    return {"kind": "stream"}


def synthetic_words(trace: dict) -> np.ndarray:
    """Generate the packed bus words a synthetic trace spec describes.

    A seeded read/RWITM mix over line-aligned addresses — the same shape
    the smoke tools replay.  Pure function of the spec, so a re-adopting
    server regenerates byte-identical traffic.
    """
    from repro.bus.trace import encode_arrays
    from repro.bus.transaction import BusCommand

    rng = np.random.default_rng(trace["seed"])
    records = trace["records"]
    cpus = rng.integers(0, trace["n_cpus"], records).astype(np.uint64)
    commands = rng.choice(
        [int(BusCommand.READ), int(BusCommand.RWITM)],
        size=records,
        p=[1.0 - trace["rwitm_fraction"], trace["rwitm_fraction"]],
    ).astype(np.uint64)
    addresses = (
        rng.integers(0, trace["n_lines"], records)
        * np.uint64(trace["line_size"])
    ).astype(np.uint64)
    return encode_arrays(cpus, commands, addresses)


@dataclass(frozen=True)
class SessionRequest:
    """One tenant's submission: what to emulate, and under which budgets.

    Attributes:
        run_spec: the supervised-run recipe (machine, seed, segmentation,
            restart budgets — see :class:`SupervisedRunSpec`).
        trace: trace-source spec (see :func:`validate_trace_spec`).
        tenant: quota-accounting identity.
        priority: :data:`PRIORITY_HIGH` / ``NORMAL`` / ``LOW``.
        label: stable human handle (chaos plans key on it); defaults to
            the session id at admission.
        wall_deadline: seconds from admission to completion, enforced by
            the service watchdog (None = no wall deadline).
        cycle_deadline: emulated-cycle budget, enforced from worker
            heartbeats (None = no cycle deadline).
        max_attempts: service-level supervisor attempts (each attempt is
            a bit-identical resume from the run journal, never a replay
            from zero).
    """

    run_spec: SupervisedRunSpec
    trace: dict
    tenant: str = "default"
    priority: int = PRIORITY_NORMAL
    label: str = ""
    wall_deadline: Optional[float] = None
    cycle_deadline: Optional[float] = None
    max_attempts: int = 2

    def __post_init__(self) -> None:
        if self.priority not in (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW):
            raise ValidationError(
                f"priority must be {PRIORITY_HIGH}, {PRIORITY_NORMAL} or "
                f"{PRIORITY_LOW}, got {self.priority}"
            )
        if not self.tenant:
            raise ValidationError("tenant must be a non-empty string")
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.wall_deadline is not None and self.wall_deadline <= 0:
            raise ValidationError(
                f"wall_deadline must be positive, got {self.wall_deadline}"
            )
        if self.cycle_deadline is not None and self.cycle_deadline <= 0:
            raise ValidationError(
                f"cycle_deadline must be positive, got {self.cycle_deadline}"
            )
        object.__setattr__(self, "trace", validate_trace_spec(self.trace))

    def to_dict(self) -> dict:
        return {
            "run_spec": self.run_spec.to_dict(),
            "trace": dict(self.trace),
            "tenant": self.tenant,
            "priority": self.priority,
            "label": self.label,
            "wall_deadline": self.wall_deadline,
            "cycle_deadline": self.cycle_deadline,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionRequest":
        try:
            return cls(
                run_spec=SupervisedRunSpec.from_dict(data["run_spec"]),
                trace=data["trace"],
                tenant=str(data.get("tenant", "default")),
                priority=int(data.get("priority", PRIORITY_NORMAL)),
                label=str(data.get("label", "")),
                wall_deadline=(
                    float(data["wall_deadline"])
                    if data.get("wall_deadline") is not None
                    else None
                ),
                cycle_deadline=(
                    float(data["cycle_deadline"])
                    if data.get("cycle_deadline") is not None
                    else None
                ),
                max_attempts=int(data.get("max_attempts", 2)),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"malformed session request: {exc}"
            ) from exc


@dataclass
class SessionView:
    """Serialisable status snapshot of one session (the ``status`` API)."""

    session_id: str
    tenant: str
    label: str
    priority: int
    state: str
    reason: str = ""
    error: str = ""
    attempts: int = 0
    restarts: int = 0
    cycle: float = 0.0
    transactions: int = 0
    digest: str = ""
    degraded: bool = False
    adopted: bool = False

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "tenant": self.tenant,
            "label": self.label,
            "priority": self.priority,
            "state": self.state,
            "reason": self.reason,
            "error": self.error,
            "attempts": self.attempts,
            "restarts": self.restarts,
            "cycle": self.cycle,
            "transactions": self.transactions,
            "digest": self.digest,
            "degraded": self.degraded,
            "adopted": self.adopted,
        }
