"""AST-based lint of repository-wide invariants.

Reproducibility and a single error-handling contract are properties of
the whole codebase, not of any one module, so they are enforced by
walking every source file under a root (default ``src/repro``) with
:mod:`ast`:

``rng-discipline`` (RP101)
    The stdlib :mod:`random` module must not be imported outside
    :mod:`repro.common.rng`; every consumer draws from the named,
    seed-derived streams so a run is reproducible from one seed.
``time-discipline`` (RP102)
    ``time.time()`` must not be called outside the designated timing
    shim (:mod:`repro.sim.timing`); emulated time comes from bus cycles,
    and wall-clock reads sprinkled through the model would silently make
    results host-dependent.  (``time.perf_counter`` is fine — it is only
    ever used to *benchmark* the simulator, never to drive it.)
``exception-hierarchy`` (RP103)
    Every exception raised by the library derives from
    :class:`repro.common.errors.ReproError`: raising bare builtins
    (``ValueError`` & co.) is flagged, as is defining an ``...Error``
    class without a ``ReproError`` base.  ``NotImplementedError`` on
    abstract methods and the control-flow exceptions are exempt.
``mutable-default`` (RP104)
    No function parameter defaults to a mutable literal (``[]``, ``{}``,
    ``set()`` ...); the shared instance aliases across calls.
``call-replication`` (RP105)
    No ``[make_thing()] * n`` (or tuple equivalent): the call runs once
    and the list holds ``n`` references to the *same* object, so mutating
    one slot mutates them all.  Replicating per-set/per-way metadata this
    way silently couples every cache set (the bug class fixed in
    :class:`~repro.memories.cache_model.TagStateDirectory`).  The same
    aliasing hides in ``dict.fromkeys(keys, mutable)`` (one value object
    shared by every key) and in ``[instance] * n`` where ``instance``
    was built once from a class constructor.  Use a comprehension —
    ``[make_thing() for _ in range(n)]`` — instead.
``streaming-json-dump`` (RP106)
    No ``json.dump(obj, handle)`` without ``indent=``: the streaming encoder always runs CPython's pure-Python
    ``JSONEncoder``, while ``handle.write(json.dumps(obj))`` runs the C
    encoder and writes the same bytes (a checkpoint encoded about seven
    times faster).  Indented output is pure Python either way, so
    ``indent=`` calls stay quiet.
``unused-import`` (RP107)
    Every imported name is used somewhere in its module: as a name, the
    root of an attribute chain, inside a string annotation, or listed in
    ``__all__``.  Exempt: ``__init__.py`` (a package re-exports), the
    ``__future__`` imports, ``import x as x`` re-exports, and imports
    guarded by ``except ImportError`` (availability probes).  This is
    pyflakes' F401, kept here because the repo lint runs where ruff
    does not.

The determinism rules (DT2xx — unsorted serialization, wall-clock
escapes, unseeded entropy, ``hash()`` order dependence, unordered float
reductions, worker closure capture) live in
:mod:`repro.verify.determinism` and run from the same
:func:`check_repo` walk.

Findings can be suppressed inline with a trailing comment naming the
rule ID or check slug::

    order = list(seen)  # repro: ignore[unsorted-serialization]
    value = hash(key)   # repro: ignore[DT204, DT205]
    anything_goes()     # repro: ignore

and rule sets are selected per tree with *profiles* (``library`` for
``src/repro``, relaxed ``tests``/``tools`` profiles for the test suite
and the CI scripts; see :data:`PROFILES`).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.verify.findings import Report, Severity
from repro.verify.rules import RULE_OF_CHECK, RULES, resolve_rule

#: Builtin exceptions whose direct raising the lint flags.
BANNED_RAISES = frozenset(
    {
        "ValueError",
        "TypeError",
        "RuntimeError",
        "KeyError",
        "IndexError",
        "AttributeError",
        "LookupError",
        "ArithmeticError",
        "ZeroDivisionError",
        "OSError",
        "IOError",
        "Exception",
        "BaseException",
    }
)

#: Exceptions that are fine to raise anywhere (abstract methods,
#: control flow, test plumbing).
EXEMPT_RAISES = frozenset(
    {
        "NotImplementedError",
        "StopIteration",
        "StopAsyncIteration",
        "SystemExit",
        "KeyboardInterrupt",
        "AssertionError",
    }
)

#: Files (relative to the package root, posix separators) allowed to
#: import the stdlib ``random`` module.
RNG_ALLOWLIST = frozenset({"common/rng.py"})

#: Files allowed to call ``time.time()`` (and the other wall-clock reads
#: covered by the determinism rule DT202).
TIME_ALLOWLIST = frozenset({"sim/timing.py"})

#: Call targets that build a fresh mutable object per call-site — banned
#: as parameter defaults just like the literal forms.
_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray"})

#: Every check slug the repo walk can evaluate, in documentation order.
ALL_CHECKS: Tuple[str, ...] = (
    "rng-discipline",
    "time-discipline",
    "exception-hierarchy",
    "mutable-default",
    "call-replication",
    "streaming-json-dump",
    "unused-import",
    "unsorted-serialization",
    "wallclock-escape",
    "unseeded-entropy",
    "hash-order-dependence",
    "unordered-float-reduction",
    "worker-closure-capture",
    "unseeded-backoff",
    "wallclock-in-recorder",
)

#: Named rule sets.  ``library`` is the full set (``src/repro``);
#: ``tools`` relaxes the exception hierarchy for stand-alone CI scripts
#: (they print and exit, they do not export catchable errors); ``tests``
#: additionally drops the rng/time discipline (tests drive fixed seeds
#: through public APIs and may legitimately measure wall time) and the
#: hash rule (hashability assertions are normal test material).
PROFILES: Dict[str, frozenset] = {
    "library": frozenset(ALL_CHECKS),
    "tools": frozenset(ALL_CHECKS) - {"exception-hierarchy"},
    "tests": frozenset(ALL_CHECKS)
    - {
        "exception-hierarchy",
        "rng-discipline",
        "time-discipline",
        "hash-order-dependence",
    },
}

#: ``# repro: ignore`` / ``# repro: ignore[rule-a, rule-b]``.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([^\]]*)\])?")


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).resolve().parent


def default_targets() -> List[Tuple[Path, str]]:
    """The (root, profile) pairs ``verify repo`` lints by default.

    The library package always; the repository's ``tests``, ``tools``
    and ``benchmarks`` trees when present next to ``src`` (an installed
    wheel has no such trees — then only the package is linted).
    """
    package = default_root()
    targets: List[Tuple[Path, str]] = [(package, "library")]
    repo = package.parent.parent
    for name, profile in (
        ("tests", "tests"),
        ("tools", "tools"),
        ("benchmarks", "tools"),
    ):
        candidate = repo / name
        if candidate.is_dir():
            targets.append((candidate, profile))
    return targets


class FileLint:
    """Per-file finding emitter: profile filtering + inline suppression.

    Rules report through :meth:`error` / :meth:`warning`; a finding is
    dropped when its check is outside the active profile or its line
    carries a matching ``# repro: ignore`` comment (counted, and
    surfaced as one INFO finding per file).
    """

    def __init__(
        self,
        report: Report,
        relative: str,
        enabled: frozenset,
        suppressions: Dict[int, Optional[Set[str]]],
    ) -> None:
        self.report = report
        self.relative = relative
        self.enabled = enabled
        self.suppressions = suppressions
        self.suppressed = 0

    def _emit(
        self, severity: Severity, check: str, message: str, lineno: int
    ) -> None:
        if check not in self.enabled:
            return
        rule = RULE_OF_CHECK.get(check, "")
        rules_ignored = self.suppressions.get(lineno)
        if rules_ignored is not None:  # a bare ignore stores an empty set
            if not rules_ignored or rule in rules_ignored:
                self.suppressed += 1
                return
        self.report.add(
            check,
            severity,
            message,
            location=f"{self.relative}:{lineno}",
            rule=rule,
        )

    def error(self, check: str, message: str, lineno: int) -> None:
        self._emit(Severity.ERROR, check, message, lineno)

    def warning(self, check: str, message: str, lineno: int) -> None:
        self._emit(Severity.WARNING, check, message, lineno)

    def finish(self) -> None:
        if self.suppressed:
            self.report.info(
                "suppression",
                f"{self.suppressed} finding(s) suppressed inline",
                location=self.relative,
                rule="RP100",
            )


def _suppression_comments(source: str) -> List[Tuple[int, str]]:
    """(line, comment-text) pairs for real ``#`` comments only.

    Tokenizing (rather than regex over raw lines) keeps the suppression
    syntax inert inside strings and docstrings — documentation may quote
    ``# repro: ignore[...]`` without suppressing anything.
    """
    import io
    import tokenize

    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenizeError, SyntaxError):  # pragma: no cover
        pass  # unparsable files are reported separately (RP100)
    return comments


def _parse_suppressions(
    source: str, relative: str, report: Report
) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed rule IDs (empty set = all rules)."""
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for lineno, comment in _suppression_comments(source):
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        names = match.group(1)
        if names is None:
            suppressions[lineno] = set()
            continue
        rules: Set[str] = set()
        for name in names.split(","):
            name = name.strip()
            if not name:
                continue
            rule = resolve_rule(name)
            if rule is None:
                report.warning(
                    "structure",
                    f"suppression names unknown rule {name!r} (known: "
                    f"rule IDs {', '.join(sorted(RULES))} or their check "
                    f"slugs)",
                    location=f"{relative}:{lineno}",
                    rule="RP100",
                )
                continue
            rules.add(rule)
        suppressions[lineno] = rules
    return suppressions


def check_repo(
    root: Optional[Union[str, Path]] = None,
    profile: str = "library",
) -> Report:
    """Lint every Python source below ``root`` (default: the repro package).

    ``profile`` names the rule set (see :data:`PROFILES`).
    """
    from repro.common.errors import ValidationError

    if profile not in PROFILES:
        raise ValidationError(
            f"unknown lint profile {profile!r}; expected one of "
            f"{', '.join(sorted(PROFILES))}"
        )
    enabled = PROFILES[profile]
    root_path = Path(root).resolve() if root is not None else default_root()
    subject = f"repo {root_path}"
    if profile != "library":
        subject += f" [{profile}]"
    report = Report(subject=subject)
    for check in ALL_CHECKS:
        if check in enabled:
            report.ran(check)

    sources = sorted(root_path.rglob("*.py"))
    if not sources:
        report.error(
            "structure", f"no Python sources under {root_path}", rule="RP100"
        )
        return report

    trees: List[Tuple[Path, ast.AST, str]] = []
    for path in sources:
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            report.error(
                "structure",
                f"source does not parse: {exc.msg}",
                location=f"{_relative(path, root_path)}:{exc.lineno}",
                rule="RP100",
            )
            continue
        trees.append((path, tree, text))

    derived = _repro_error_classes(tree for _, tree, _ in trees)
    for path, tree, text in trees:
        relative = _relative(path, root_path)
        ctx = FileLint(
            report,
            relative,
            enabled,
            _parse_suppressions(text, relative, report),
        )
        _lint_file(tree, ctx, derived)
        from repro.verify.determinism import lint_tree

        lint_tree(tree, ctx)
        ctx.finish()
    report.info(
        "structure",
        f"linted {len(trees)} file(s) [{profile} profile], "
        f"{len(derived)} ReproError-derived class(es) known",
        rule="RP100",
    )
    return report


def _relative(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()


# ---------------------------------------------------------------------- #
# Pass 1: resolve the ReproError class hierarchy by name
# ---------------------------------------------------------------------- #

def _repro_error_classes(trees: Iterable[ast.AST]) -> Set[str]:
    """Names of classes transitively derived from ReproError.

    Resolution is purely by name (the repo has a single flat exception
    module, so name collisions are not a concern worth an import graph).
    """
    bases: Dict[str, Set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    name for name in map(_base_name, node.bases) if name
                )
    derived = {"ReproError"}
    changed = True
    while changed:
        changed = False
        for name, base_names in bases.items():
            if name not in derived and base_names & derived:
                derived.add(name)
                changed = True
    return derived


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ---------------------------------------------------------------------- #
# Pass 2: per-file rules
# ---------------------------------------------------------------------- #

def _lint_file(tree: ast.AST, ctx: FileLint, derived: Set[str]) -> None:
    _lint_unused_imports(tree, ctx)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    _flag_random(ctx, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "random":
                _flag_random(ctx, node.lineno)
        elif isinstance(node, ast.Call):
            _lint_time_call(node, ctx)
            _lint_fromkeys(node, ctx)
            _lint_json_dump(node, ctx)
        elif isinstance(node, ast.BinOp):
            _lint_replication(node, ctx)
        elif isinstance(node, ast.Raise):
            _lint_raise(node, ctx, derived)
        elif isinstance(node, ast.ClassDef):
            _lint_class(node, ctx, derived)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _lint_defaults(node, ctx)
            _lint_instance_replication(node, ctx)


def _flag_random(ctx: FileLint, lineno: int) -> None:
    if ctx.relative in RNG_ALLOWLIST:
        return
    ctx.error(
        "rng-discipline",
        "stdlib 'random' imported; draw from repro.common.rng streams so "
        "runs stay reproducible from a single seed",
        lineno,
    )


def _lint_time_call(node: ast.Call, ctx: FileLint) -> None:
    func = node.func
    is_time_time = (
        isinstance(func, ast.Attribute)
        and func.attr == "time"
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    )
    if is_time_time and ctx.relative not in TIME_ALLOWLIST:
        ctx.error(
            "time-discipline",
            "time.time() called outside the timing shim; emulated time "
            "must come from bus cycles, not the host wall clock",
            node.lineno,
        )


def _lint_json_dump(node: ast.Call, ctx: FileLint) -> None:
    """Flag ``json.dump(...)`` with no ``indent=`` (or ``indent=None``)."""
    func = node.func
    is_json_dump = (
        isinstance(func, ast.Attribute)
        and func.attr == "dump"
        and isinstance(func.value, ast.Name)
        and func.value.id == "json"
    )
    if not is_json_dump:
        return
    for keyword in node.keywords:
        if keyword.arg is None:  # **options: the indent is unknowable
            return
        if keyword.arg == "indent" and not (
            isinstance(keyword.value, ast.Constant)
            and keyword.value.value is None
        ):
            return
    ctx.error(
        "streaming-json-dump",
        "json.dump() without indent= runs the pure-Python encoder; "
        "write handle.write(json.dumps(obj)) for the C encoder and the "
        "same bytes",
        node.lineno,
    )


def _lint_raise(node: ast.Raise, ctx: FileLint, derived: Set[str]) -> None:
    target = node.exc
    if target is None:  # bare re-raise
        return
    if isinstance(target, ast.Call):
        target = target.func
    name = _base_name(target)
    if name is None or name in EXEMPT_RAISES:
        return
    if name in BANNED_RAISES:
        ctx.error(
            "exception-hierarchy",
            f"raises builtin {name}; raise a ReproError subclass (e.g. "
            f"ValidationError) so callers can catch one library root",
            node.lineno,
        )
    elif name.endswith(("Error", "Exception")) and name not in derived:
        # Unknown ...Error names (e.g. from third-party modules) are left
        # alone; only classes defined in this repo are held to the rule.
        pass


def _lint_class(node: ast.ClassDef, ctx: FileLint, derived: Set[str]) -> None:
    if not node.name.endswith(("Error", "Exception")):
        return
    if node.name in derived or node.name == "ReproError":
        return
    base_names = {name for name in map(_base_name, node.bases) if name}
    # Only flag classes that are actually exception types.
    if base_names & (BANNED_RAISES | EXEMPT_RAISES | {"Warning"}) or not base_names:
        ctx.error(
            "exception-hierarchy",
            f"exception class {node.name} does not derive from ReproError; "
            f"add it to the repro.common.errors hierarchy",
            node.lineno,
        )


def _lint_defaults(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef], ctx: FileLint
) -> None:
    args = node.args
    for default in list(args.defaults) + [
        d for d in args.kw_defaults if d is not None
    ]:
        if _is_mutable_default(default):
            ctx.error(
                "mutable-default",
                f"function {node.name!r} has a mutable default argument; "
                f"the shared instance aliases across calls — default to "
                f"None (or a tuple) instead",
                default.lineno,
            )


def _lint_replication(node: ast.BinOp, ctx: FileLint) -> None:
    """Flag ``[expr()] * n``: n references to one shared call result."""
    if not isinstance(node.op, ast.Mult):
        return
    for operand in (node.left, node.right):
        if not isinstance(operand, (ast.List, ast.Tuple)):
            continue
        if any(
            isinstance(element, ast.Call) for element in operand.elts
        ):
            ctx.error(
                "call-replication",
                "sequence-of-calls replicated with '*': every slot shares "
                "the one object the call produced, so mutating any slot "
                "mutates all — build per-slot instances with a "
                "comprehension instead",
                node.lineno,
            )
            return


def _lint_fromkeys(node: ast.Call, ctx: FileLint) -> None:
    """Flag ``dict.fromkeys(keys, mutable)``: one value shared by all keys."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "fromkeys"):
        return
    if len(node.args) < 2:
        return
    value = node.args[1]
    is_mutable = (
        isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                           ast.DictComp, ast.SetComp))
        or isinstance(value, ast.Call)
    )
    if is_mutable:
        ctx.error(
            "call-replication",
            "dict.fromkeys(keys, <mutable>) binds every key to the *same* "
            "value object, so mutating one entry mutates all — use a dict "
            "comprehension ({k: make() for k in keys}) instead",
            node.lineno,
        )


def _lint_instance_replication(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef], ctx: FileLint
) -> None:
    """Flag ``[obj] * n`` where ``obj`` was built once from a constructor.

    ``obj = Meta(); rows = [obj] * n`` aliases the one dataclass instance
    across every slot exactly like ``[Meta()] * n`` — the comprehension-free
    spelling of the per-set metadata bug.  Constructor detection is by
    convention: a call to a CapWord callable in the same function body.
    """
    instance_names: Set[str] = set()
    statements = sorted(
        (child for child in ast.walk(node)
         if isinstance(child, (ast.Assign, ast.AnnAssign, ast.BinOp))),
        key=lambda child: (child.lineno, child.col_offset),
    )
    for child in statements:
        if isinstance(child, (ast.Assign, ast.AnnAssign)):
            value = child.value
            targets = (
                child.targets if isinstance(child, ast.Assign)
                else [child.target]
            )
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
                continue
            if value is not None and _is_constructor_call(value):
                instance_names.update(names)
            else:
                instance_names.difference_update(names)
        elif isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult):
            for operand in (child.left, child.right):
                if not isinstance(operand, (ast.List, ast.Tuple)):
                    continue
                shared = [
                    element.id for element in operand.elts
                    if isinstance(element, ast.Name)
                    and element.id in instance_names
                ]
                if shared:
                    ctx.error(
                        "call-replication",
                        f"[{shared[0]}] * n replicates references to the one "
                        f"instance {shared[0]!r} built above — every slot "
                        f"aliases it; build per-slot instances with a "
                        f"comprehension instead",
                        child.lineno,
                    )
                    break


def _is_constructor_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = _base_name(node.func)
    return bool(name) and name[:1].isupper()


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_FACTORIES
        and not node.args
        and not node.keywords
    )


def _lint_unused_imports(tree: ast.AST, ctx: FileLint) -> None:
    """Flag imported names the module never uses (pyflakes F401)."""
    if ctx.relative.rsplit("/", 1)[-1] == "__init__.py":
        return
    probes: Set[int] = set()  # imports guarded by except ImportError
    imports: List[Tuple[ast.stmt, str, str]] = []  # (node, bound, shown)
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            _catches_import_error(handler.type) for handler in node.handlers
        ):
            probes.update(
                id(inner) for stmt in node.body for inner in ast.walk(stmt)
            )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None:
                    imports.append((node, alias.name.split(".")[0], alias.name))
                elif alias.asname != alias.name:
                    imports.append((node, alias.asname, alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.asname is None:
                    imports.append((node, alias.name, alias.name))
                elif alias.asname != alias.name:
                    imports.append((node, alias.asname, alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(_string_constants(node.value))
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            used.update(_names_in_string_annotation(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used.update(_names_in_string_annotation(node.returns))
    for node, bound, shown in imports:
        if bound not in used and id(node) not in probes:
            ctx.error(
                "unused-import",
                f"'{shown}' imported but unused",
                node.lineno,
            )


def _catches_import_error(handler: Optional[ast.expr]) -> bool:
    if handler is None:
        return False
    names = handler.elts if isinstance(handler, ast.Tuple) else [handler]
    return any(
        _base_name(name) in ("ImportError", "ModuleNotFoundError")
        for name in names
    )


def _string_constants(node: ast.AST) -> Iterable[str]:
    return [
        element.value for element in ast.walk(node)
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    ]


def _names_in_string_annotation(annotation: Optional[ast.expr]) -> Set[str]:
    """Names referenced by the quoted parts of an annotation."""
    names: Set[str] = set()
    if annotation is None:
        return names
    for text in _string_constants(annotation):
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        names.update(
            node.id for node in ast.walk(parsed) if isinstance(node, ast.Name)
        )
    return names
