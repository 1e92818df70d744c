"""Determinism analyzer: AST rules that keep replay bit-identical.

The emulator's contract is that one seed plus one trace produces one
bit-identical result — across the scalar and compiled engines, across
hosts, and across process restarts.  The rules here flag the code
shapes that silently break that contract:

``unsorted-serialization`` (DT201)
    Iterating a ``set`` (whose order varies with ``PYTHONHASHSEED`` and
    insertion history) inside a serialization routine — anything that
    writes JSONL journals, checkpoints, Prometheus exposition or
    ``statistics()`` payloads.  Dict iteration is *not* flagged:
    insertion order is a language guarantee and the repo relies on it.
    Wrap the iterable in ``sorted(...)``.
``wallclock-escape`` (DT202)
    Host wall-clock reads (``time.monotonic``/``time_ns``/
    ``process_time``, ``datetime.now`` & co.) outside the timing shim.
    ``time.perf_counter`` is exempt everywhere — it only ever *measures*
    the simulator (telemetry keeps such readings under the ``"wall"``
    key, segregated from replayable state) and never drives it.
    ``time.time()`` itself is the long-standing RP102 rule and is not
    double-flagged here.
``unseeded-entropy`` (DT203)
    Entropy sources that ignore the run seed: ``os.urandom``,
    ``uuid.uuid4``, anything from ``secrets``, and
    ``numpy.random.default_rng()`` *without* a seed argument.
``hash-order-dependence`` (DT204)
    Builtin ``hash()`` results reaching emulation or serialized state.
    String/bytes hashes are salted per process (``PYTHONHASHSEED``), so
    any decision or artifact derived from ``hash()`` differs between a
    run and its replay.  Use ``hashlib`` for stable digests.
``unordered-float-reduction`` (DT205)
    ``sum()``/``math.fsum()`` over a set: float addition is not
    associative, so an iteration order that varies run-to-run yields a
    result that varies in the last bits.  Reductions over lists, tuples
    and dict views keep a stable order and are fine.
``worker-closure-capture`` (DT206)
    A ``lambda`` or nested function handed to a multiprocessing pool /
    ``Process`` target.  Closures capture enclosing mutable state by
    reference; under ``fork`` each worker gets a silently diverging copy
    and under ``spawn`` the submission fails outright.  Workers must be
    module-level functions taking explicit picklable arguments (the
    :mod:`repro.supervisor.worker` pattern).
``unseeded-backoff`` (DT207)
    Process-global entropy — any ``random.*`` call, or a draw on the
    legacy ``numpy.random`` module-level RNG — inside the
    ``supervisor/`` or ``service/`` trees.  Restart/retry backoff there
    is journaled and replayed on resume: jitter must come from the run's
    seeded stream (:func:`repro.supervisor.backoff_delay` derives it
    from ``SeedSequence([seed, tag, attempt])``), or a drained run's
    timeline can never be reproduced from its journal.  Scoped by path,
    not by function name, so no helper rename can smuggle entropy in.
``wallclock-in-recorder`` (DT208)
    Any host-clock read — *including* ``time.perf_counter``, exempt
    everywhere else — inside the flight-recorder tree (``obs/``) or the
    histogram type (``telemetry/histogram.py``).  These paths promise
    byte-identical reconstruction from a run directory: every number
    they emit must be a pure function of recorded inputs.  Wall time is
    measured where it happens (spans, the service plane) and stored
    under the segregated ``"wall"`` key; the recorder only *reads* it
    back.

All rules report through the :class:`repro.verify.lint.FileLint` context,
so profiles and ``# repro: ignore[rule]`` suppressions apply uniformly.
"""

from __future__ import annotations

import ast
import re
from typing import Optional, Set, Union

#: Files allowed to read the host wall clock (beyond perf_counter).
WALLCLOCK_ALLOWLIST = frozenset({"sim/timing.py"})

#: ``time`` module attributes that read the host clock.  ``time.time``
#: is excluded (RP102 owns it); ``perf_counter``/``perf_counter_ns``
#: are exempt by design (benchmarking only).
_WALLCLOCK_TIME_ATTRS = frozenset(
    {
        "monotonic",
        "monotonic_ns",
        "time_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)

#: ``datetime``-class methods that read the host clock.
_WALLCLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Function-name fragments that mark a serialization routine — the
#: context in which set iteration order becomes externally visible.
_SERIAL_NAME_RE = re.compile(
    r"(to_dict|to_json|serial|dump|write|render|expose|export|emit"
    r"|checkpoint|statistic|payload|digest|snapshot)",
    re.IGNORECASE,
)

#: Pool/executor methods whose callable argument runs in another process.
_WORKER_DISPATCH_ATTRS = frozenset(
    {
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "submit",
    }
)

#: Path prefixes (relative to the lint root) where DT207 applies: the
#: trees whose retry/backoff timing is journaled and replayed on resume.
BACKOFF_SCOPE = ("supervisor/", "service/")

#: Where DT208 applies: code that must be a pure function of recorded
#: inputs so reconstruction from a run directory is byte-identical.
RECORDER_SCOPE = ("obs/",)
RECORDER_FILES = frozenset({"telemetry/histogram.py"})

#: Clock reads DT208 forbids beyond the DT202 set: in recorder scope
#: even the benchmarking clock (and RP102's ``time.time``) is banned.
_RECORDER_EXTRA_TIME_ATTRS = frozenset(
    {"perf_counter", "perf_counter_ns", "time"}
)

#: Draw functions of the legacy module-level numpy RNG (seeded only via
#: hidden global state, which a resumed process does not share).
_NP_GLOBAL_DRAWS = frozenset(
    {
        "random",
        "random_sample",
        "rand",
        "randn",
        "randint",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "poisson",
        "beta",
        "gamma",
        "choice",
        "shuffle",
        "permutation",
    }
)

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def lint_tree(tree: ast.AST, ctx) -> None:
    """Run every determinism rule over one parsed file.

    ``ctx`` is the per-file :class:`~repro.verify.lint.FileLint`; profile
    filtering and suppressions happen inside its emit methods.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            _lint_wallclock(node, ctx)
            _lint_entropy(node, ctx)
            _lint_hash(node, ctx)
            _lint_float_reduction(node, ctx)
            _lint_worker_dispatch(node, ctx)
            _lint_backoff_entropy(node, ctx)
            _lint_recorder_wallclock(node, ctx)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _lint_serialization_order(node, ctx)
            _lint_nested_workers(node, ctx)


# ---------------------------------------------------------------------- #
# DT202 wallclock-escape
# ---------------------------------------------------------------------- #

def _lint_wallclock(node: ast.Call, ctx) -> None:
    if ctx.relative in WALLCLOCK_ALLOWLIST:
        return
    func = node.func
    if not isinstance(func, ast.Attribute):
        return
    owner = func.value
    if (
        isinstance(owner, ast.Name)
        and owner.id == "time"
        and func.attr in _WALLCLOCK_TIME_ATTRS
    ):
        ctx.error(
            "wallclock-escape",
            f"time.{func.attr}() reads the host clock; emulated time comes "
            f"from bus cycles and wall time belongs only in the telemetry "
            f"'wall' key (use time.perf_counter for benchmarking)",
            node.lineno,
        )
        return
    if (
        isinstance(owner, ast.Name)
        and owner.id in ("datetime", "date")
        and func.attr in _WALLCLOCK_DATETIME_ATTRS
    ):
        ctx.error(
            "wallclock-escape",
            f"{owner.id}.{func.attr}() reads the host calendar clock; "
            f"runs must be reproducible independent of when they execute",
            node.lineno,
        )
        return
    # datetime.datetime.now(...) spelled through the module.
    if (
        isinstance(owner, ast.Attribute)
        and isinstance(owner.value, ast.Name)
        and owner.value.id == "datetime"
        and owner.attr in ("datetime", "date")
        and func.attr in _WALLCLOCK_DATETIME_ATTRS
    ):
        ctx.error(
            "wallclock-escape",
            f"datetime.{owner.attr}.{func.attr}() reads the host calendar "
            f"clock; runs must be reproducible independent of when they "
            f"execute",
            node.lineno,
        )


# ---------------------------------------------------------------------- #
# DT203 unseeded-entropy
# ---------------------------------------------------------------------- #

def _lint_entropy(node: ast.Call, ctx) -> None:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return
    owner = func.value
    owner_name = owner.id if isinstance(owner, ast.Name) else None
    if owner_name == "os" and func.attr == "urandom":
        ctx.error(
            "unseeded-entropy",
            "os.urandom() draws kernel entropy that can never be replayed; "
            "derive randomness from the run seed via repro.common.rng",
            node.lineno,
        )
    elif owner_name == "uuid" and func.attr in ("uuid1", "uuid4"):
        ctx.error(
            "unseeded-entropy",
            f"uuid.{func.attr}() is host/entropy-dependent; derive stable "
            f"identifiers from the run seed or configuration digest",
            node.lineno,
        )
    elif owner_name == "secrets":
        ctx.error(
            "unseeded-entropy",
            f"secrets.{func.attr}() draws unseeded CSPRNG output; the "
            f"emulator has no secrets — use seed-derived streams",
            node.lineno,
        )
    elif func.attr == "default_rng" and not node.args and not node.keywords:
        ctx.error(
            "unseeded-entropy",
            "default_rng() without a seed draws OS entropy; pass a "
            "seed-derived value so the stream replays",
            node.lineno,
        )


# ---------------------------------------------------------------------- #
# DT204 hash-order-dependence
# ---------------------------------------------------------------------- #

def _lint_hash(node: ast.Call, ctx) -> None:
    if isinstance(node.func, ast.Name) and node.func.id == "hash":
        ctx.error(
            "hash-order-dependence",
            "builtin hash() is salted per process (PYTHONHASHSEED); any "
            "decision or artifact derived from it differs on replay — use "
            "hashlib for stable digests",
            node.lineno,
        )


# ---------------------------------------------------------------------- #
# DT205 unordered-float-reduction
# ---------------------------------------------------------------------- #

def _lint_float_reduction(node: ast.Call, ctx) -> None:
    func = node.func
    is_sum = isinstance(func, ast.Name) and func.id == "sum"
    is_fsum = (
        isinstance(func, ast.Attribute)
        and func.attr == "fsum"
        and isinstance(func.value, ast.Name)
        and func.value.id == "math"
    )
    if not (is_sum or is_fsum) or not node.args:
        return
    if _is_set_expression(node.args[0]):
        name = "math.fsum" if is_fsum else "sum"
        ctx.error(
            "unordered-float-reduction",
            f"{name}() over a set: float addition is not associative and "
            f"set order varies run-to-run — reduce over sorted(...) so the "
            f"accumulation order is fixed",
            node.lineno,
        )


def _is_set_expression(node: ast.expr) -> bool:
    """Syntactically set-typed: literal, comprehension, or set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


# ---------------------------------------------------------------------- #
# DT201 unsorted-serialization
# ---------------------------------------------------------------------- #

def _lint_serialization_order(node: _FunctionNode, ctx) -> None:
    """Flag set iteration inside a serialization routine.

    Scope is intentionally name-based (``to_dict``, ``write_*``,
    ``statistics`` ...): only there does iteration order leak into
    journals, checkpoints and exposition payloads.  Set-typed values are
    recognised syntactically and through single-assignment local names.
    """
    if not _SERIAL_NAME_RE.search(node.name):
        return
    set_names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Assign) and _is_set_expression(child.value):
            set_names.update(
                target.id for target in child.targets
                if isinstance(target, ast.Name)
            )
    for child in ast.walk(node):
        iterables = []
        if isinstance(child, (ast.For, ast.AsyncFor)):
            iterables.append(child.iter)
        elif isinstance(
            child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            iterables.extend(gen.iter for gen in child.generators)
        for iterable in iterables:
            if _is_set_expression(iterable) or (
                isinstance(iterable, ast.Name) and iterable.id in set_names
            ):
                ctx.error(
                    "unsorted-serialization",
                    f"serialization routine {node.name!r} iterates a set; "
                    f"set order varies with PYTHONHASHSEED so the emitted "
                    f"bytes differ between identical runs — iterate "
                    f"sorted(...) instead",
                    iterable.lineno,
                )


# ---------------------------------------------------------------------- #
# DT207 unseeded-backoff
# ---------------------------------------------------------------------- #

def _lint_backoff_entropy(node: ast.Call, ctx) -> None:
    """Flag process-global entropy inside the supervisor/service trees.

    Restart and retry backoff in these trees is journaled (the delay
    rides on the ``restart`` record) and re-derived on resume; drawing
    it from the stdlib ``random`` module or the legacy module-level
    ``numpy.random`` RNG makes the journaled timeline unreproducible.
    The rule is path-scoped: anywhere else, RP101/DT203 already govern
    entropy use.
    """
    if not ctx.relative.startswith(BACKOFF_SCOPE):
        return
    func = node.func
    if not isinstance(func, ast.Attribute):
        return
    owner = func.value
    # random.<anything>(...) — the process-global stdlib RNG.
    if isinstance(owner, ast.Name) and owner.id == "random":
        ctx.error(
            "unseeded-backoff",
            f"random.{func.attr}() draws the process-global stdlib RNG; "
            f"backoff jitter in supervisor/service code must replay from "
            f"the run seed — use repro.supervisor.backoff_delay",
            node.lineno,
        )
        return
    # np.random.<draw>(...) / numpy.random.<draw>(...) — the legacy
    # module-level numpy RNG (global hidden state).
    if (
        isinstance(owner, ast.Attribute)
        and owner.attr == "random"
        and isinstance(owner.value, ast.Name)
        and owner.value.id in ("np", "numpy")
        and func.attr in _NP_GLOBAL_DRAWS
    ):
        ctx.error(
            "unseeded-backoff",
            f"{owner.value.id}.random.{func.attr}() draws the legacy "
            f"module-level numpy RNG; backoff jitter in supervisor/service "
            f"code must replay from the run seed — use "
            f"repro.supervisor.backoff_delay",
            node.lineno,
        )


# ---------------------------------------------------------------------- #
# DT208 wallclock-in-recorder
# ---------------------------------------------------------------------- #

def _lint_recorder_wallclock(node: ast.Call, ctx) -> None:
    """Flag any host-clock read inside the recorder scope.

    The flight recorder (``obs/``) and the histogram type promise that
    re-running them over the same files yields the same bytes; a single
    ``perf_counter()`` call breaks that silently.  Wall durations enter
    the system where they are *measured* — spans and the service plane
    store them under the ``"wall"`` key — and the recorder only reads
    them back, so there is never a legitimate clock call here.
    """
    in_scope = ctx.relative.startswith(RECORDER_SCOPE) or (
        ctx.relative in RECORDER_FILES
    )
    if not in_scope:
        return
    func = node.func
    if not isinstance(func, ast.Attribute):
        return
    owner = func.value
    if (
        isinstance(owner, ast.Name)
        and owner.id == "time"
        and (
            func.attr in _WALLCLOCK_TIME_ATTRS
            or func.attr in _RECORDER_EXTRA_TIME_ATTRS
        )
    ):
        ctx.error(
            "wallclock-in-recorder",
            f"time.{func.attr}() inside recorder scope: flight-recorder "
            f"and histogram output must be a pure function of recorded "
            f"inputs — take wall durations from span/service records, "
            f"never from the live clock",
            node.lineno,
        )


# ---------------------------------------------------------------------- #
# DT206 worker-closure-capture
# ---------------------------------------------------------------------- #

def _lint_worker_dispatch(node: ast.Call, ctx) -> None:
    """Flag lambdas / nested defs handed to another process."""
    func = node.func
    candidates = []
    if isinstance(func, ast.Attribute) and func.attr in _WORKER_DISPATCH_ATTRS:
        if node.args:
            candidates.append(node.args[0])
    elif _is_process_constructor(func):
        for keyword in node.keywords:
            if keyword.arg == "target":
                candidates.append(keyword.value)
    for candidate in candidates:
        if isinstance(candidate, ast.Lambda):
            ctx.error(
                "worker-closure-capture",
                "lambda passed to a worker dispatch; closures capture "
                "enclosing state by reference and do not pickle — use a "
                "module-level function with explicit arguments",
                node.lineno,
            )


def _lint_nested_workers(node: _FunctionNode, ctx) -> None:
    """Flag nested functions handed to a worker dispatch by name.

    ``def run(): def work(x): ...; pool.map(work, items)`` has the same
    closure-capture problem as a lambda: ``work`` closes over ``run``'s
    locals and is not picklable under spawn.
    """
    nested = {
        child.name
        for child in ast.walk(node)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        and child is not node
    }
    if not nested:
        return
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        candidates = []
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _WORKER_DISPATCH_ATTRS
            and child.args
        ):
            candidates.append(child.args[0])
        elif _is_process_constructor(func):
            candidates.extend(
                keyword.value for keyword in child.keywords
                if keyword.arg == "target"
            )
        for candidate in candidates:
            if isinstance(candidate, ast.Name) and candidate.id in nested:
                ctx.error(
                    "worker-closure-capture",
                    f"nested function {candidate.id!r} passed to a worker "
                    f"dispatch; it closes over enclosing-scope state by "
                    f"reference and does not pickle — move it to module "
                    f"level with explicit arguments",
                    child.lineno,
                )


def _is_process_constructor(func: ast.expr) -> Optional[bool]:
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return name in ("Process", "Thread")
