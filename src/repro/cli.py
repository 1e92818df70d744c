"""Command-line console for driving a MemorIES lab session.

The paper's console is an interactive program on a PC.  This module gives
the reproduction the same feel::

    python -m repro.cli            # interactive prompt
    python -m repro.cli session.txt   # scripted session

Commands (also shown by ``help``)::

    host <n_cpus> <l2_size> <l2_assoc> [scale]   build the host machine
    program single <size> [assoc]                one node, all CPUs
    program split <size> <procs_per_node>        coherent split target
    program multi <size> [size ...]              one config per group
    program file <path>                          load a saved programming
    save-machine <path>                          save the current programming
    workload tpcc|tpch|web [footprint]           choose the workload
    run <n_refs>                                 drive references live
    sweep <n_records> <size> [size ...]          capture once, sweep caches
    stats | report | describe | reset            console operations
    miss-ratios                                  per-node miss ratios
    save-trace <path> <n_records>                capture and dump a trace
    verify                                       verify the current programming
    engines [shards]                             replay-engine capability decisions
    faults                                       resilience report for the board
    watch [every_transactions]                   live telemetry dashboard
    supervise <run_dir>                          supervised-run journal status
    service <service_root>                       service manifest status
    timeline <run_dir>                           flight-recorder timeline
    help | quit

Static verification also runs stand-alone, before any board exists::

    python -m repro.cli verify protocol [name|map.json ...]
    python -m repro.cli verify machine <programming.json> [run_hours]
    python -m repro.cli verify repo [dir ...] [--profile P]
        [--format text|json|sarif] [--output FILE]
        [--baseline FILE] [--update-baseline]
    python -m repro.cli verify engines [programming.json] [--shards N]
        [--cache SIZE] [--expect a,b]

So do seeded fault-injection campaigns (see :mod:`repro.faults`)::

    python -m repro.cli faults run [--records N] [--seed S] [--drop R]
        [--flip R] [--burst R] [--burst-ops N] [--saturate R]
        [--no-ecc] [--scrub-interval C] [--out FILE]
    python -m repro.cli faults report <campaign.json>

And counter time-series campaigns (see :mod:`repro.telemetry`)::

    python -m repro.cli telemetry run [--records N] [--seed S] [--cache SIZE]
        [--every-tx M] [--every-cycles C] [--out FILE] [--deterministic]
    python -m repro.cli telemetry report <series.jsonl>
    python -m repro.cli telemetry export <series.jsonl> --format prom|jsonl
        [--deterministic]

And crash-safe supervised runs (see :mod:`repro.supervisor`)::

    python -m repro.cli supervise run <run_dir> [--records N] [--seed S]
        [--cache SIZE] [--trace FILE] [--segment-records N] [--ecc]
        [--keep N] [--max-restarts N] [--deadline SECONDS]
    python -m repro.cli supervise resume <run_dir>
    python -m repro.cli supervise status <run_dir>

And the multi-session emulation service (see :mod:`repro.service` and
docs/service.md)::

    python -m repro.cli service serve <root> [--host H] [--port P]
        [--max-workers N] [--tenant-workers N] [--queue-depth N]
        [--tenant-queue N] [--wall-deadline S] [--ingest-buffer N]
    python -m repro.cli service submit <host:port> [--records N] [--seed S]
        [--cache SIZE] [--tenant T] [--priority 0|1|2] [--label L]
        [--wall-deadline S] [--cycle-deadline C] [--wait]
    python -m repro.cli service status <host:port> [session]
    python -m repro.cli service tail <host:port> <session> [--limit N]

And post-hoc run forensics (see :mod:`repro.obs` and
docs/observability.md)::

    python -m repro.cli obs timeline <run_dir>
        [--format text|json|trace-event] [--out FILE]
    python -m repro.cli obs spans <run_dir>

Exit codes are disciplined for unattended use: 0 success, 1 a check ran
and failed, 2 validation error, 3 runtime fault, 4 run completed but
degraded, 5 a structured resource refusal — quota denied, queue full,
deadline exceeded (see docs/resilience.md and docs/service.md).

Sizes accept the paper's notation (``64MB``, ``1GB``); everything the CLI
builds is scaled by the session's scale factor (default 1024) so runs
complete interactively.
"""

from __future__ import annotations

import shlex
import sys
from typing import Callable, Dict, List, Optional

from repro.common.errors import ReproError
from repro.common.units import format_size, parse_size
from repro.experiments.params import ExperimentScale
from repro.experiments.pipeline import capture_records
from repro.host.smp import HostConfig, HostSMP
from repro.memories.config import CacheNodeConfig
from repro.memories.console import MemoriesConsole
from repro.target.configs import (
    multi_config_machine,
    single_node_machine,
    split_smp_machine,
)
from repro.workloads.base import Workload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpch import TpchWorkload
from repro.workloads.web import WebWorkload


class CliError(ReproError):
    """A command was malformed or issued out of order."""


#: Exit-code discipline for unattended (cron/CI) runs; documented in
#: docs/resilience.md.  1 is reserved for "a check ran and failed"
#: (verify reports, zero-fault mismatch), so wrappers can branch on the
#: *class* of failure without parsing output.
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_DEGRADED = 4
EXIT_RESOURCE = 5


def classify_error(error: ReproError) -> int:
    """Map an error to the exit-code taxonomy.

    Validation errors (bad arguments, malformed specs/programmings) exit
    :data:`EXIT_VALIDATION`; runtime faults (corrupt files, emulation or
    supervision failures) exit :data:`EXIT_RUNTIME`; structured service
    refusals — quota denied, queue full, deadline exceeded — exit
    :data:`EXIT_RESOURCE` so fleet drivers can distinguish "resubmit
    later" from "fix your input".
    """
    from repro.common.errors import (
        ConfigurationError,
        ResourceError,
        ValidationError,
    )

    if isinstance(error, ResourceError):
        return EXIT_RESOURCE
    if isinstance(error, (CliError, ValidationError, ConfigurationError)):
        return EXIT_VALIDATION
    return EXIT_RUNTIME


class ConsoleSession:
    """State of one console session: host, board, workload."""

    def __init__(self, scale: int = 1024, seed: int = 0) -> None:
        self.scale = ExperimentScale(scale=scale)
        self.seed = seed
        self.host: Optional[HostSMP] = None
        self.console = MemoriesConsole()
        self.workload: Optional[Workload] = None
        self._commands: Dict[str, Callable[[List[str]], str]] = {
            "host": self._cmd_host,
            "program": self._cmd_program,
            "workload": self._cmd_workload,
            "run": self._cmd_run,
            "stats": self._cmd_console_passthrough,
            "report": self._cmd_console_passthrough,
            "reset": self._cmd_console_passthrough,
            "describe": self._cmd_console_passthrough,
            "verify": self._cmd_console_passthrough,
            "engines": self._cmd_engines,
            "faults": self._cmd_console_passthrough,
            "watch": self._cmd_watch,
            "supervise": self._cmd_supervise,
            "service": self._cmd_service,
            "timeline": self._cmd_timeline,
            "miss-ratios": self._cmd_miss_ratios,
            "save-trace": self._cmd_save_trace,
            "save-machine": self._cmd_save_machine,
            "sweep": self._cmd_sweep,
            "help": self._cmd_help,
        }

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def execute(self, line: str) -> str:
        """Run one command line; returns its output text."""
        parts = shlex.split(line, comments=True)
        if not parts:
            return ""
        command, args = parts[0].lower(), parts[1:]
        handler = self._commands.get(command)
        if handler is None:
            raise CliError(f"unknown command {command!r}; try 'help'")
        if handler.__func__ is ConsoleSession._cmd_console_passthrough:
            return self.console.execute(command)
        return handler(args)

    # ------------------------------------------------------------------ #
    # Commands
    # ------------------------------------------------------------------ #

    def _cmd_host(self, args: List[str]) -> str:
        if len(args) < 3:
            raise CliError("usage: host <n_cpus> <l2_size> <l2_assoc> [scale]")
        n_cpus = int(args[0])
        if len(args) >= 4:
            self.scale = ExperimentScale(scale=int(args[3]), n_cpus=n_cpus)
        else:
            self.scale = ExperimentScale(scale=self.scale.scale, n_cpus=n_cpus)
        config = HostConfig(
            n_cpus=n_cpus,
            l2_size=self.scale.scaled_bytes(args[1]),
            l2_assoc=int(args[2]),
        )
        self.host = HostSMP(config)
        if self.console.board is not None:
            self.host.plug_in(self.console.board)
        return (
            f"host: {n_cpus} CPUs, {format_size(config.l2_size)} "
            f"{config.l2_assoc}-way L2 (scale 1/{self.scale.scale})"
        )

    def _require_host(self) -> HostSMP:
        if self.host is None:
            raise CliError("no host machine; run 'host ...' first")
        return self.host

    def _cmd_program(self, args: List[str]) -> str:
        if not args:
            raise CliError("usage: program single|split|multi ...")
        mode = args[0].lower()
        n_cpus = self.scale.n_cpus
        if mode == "single":
            if len(args) < 2:
                raise CliError("usage: program single <size> [assoc]")
            assoc = int(args[2]) if len(args) > 2 else 4
            machine = single_node_machine(
                self.scale.cache(args[1], assoc=assoc), n_cpus=n_cpus
            )
        elif mode == "split":
            if len(args) < 3:
                raise CliError("usage: program split <size> <procs_per_node>")
            machine = split_smp_machine(
                self.scale.cache(args[1]),
                n_cpus=n_cpus,
                procs_per_node=int(args[2]),
                truncate=True,
            )
        elif mode == "multi":
            if len(args) < 2:
                raise CliError("usage: program multi <size> [size ...]")
            machine = multi_config_machine(
                [self.scale.cache(size) for size in args[1:]], n_cpus=n_cpus
            )
        elif mode == "file":
            if len(args) < 2:
                raise CliError("usage: program file <path>")
            from repro.target.mapping import TargetMachine

            machine = TargetMachine.load(args[1])
        else:
            raise CliError(f"unknown programming mode {mode!r}")
        board = self.console.power_up(
            machine, seed=self.seed, enforce_envelope=False
        )
        if self.host is not None:
            self.host.plug_in(board)
        return machine.describe()

    def _cmd_workload(self, args: List[str]) -> str:
        if not args:
            raise CliError("usage: workload tpcc|tpch|web [footprint]")
        kind = args[0].lower()
        n_cpus = self.scale.n_cpus
        if kind == "tpcc":
            footprint = args[1] if len(args) > 1 else "150GB"
            self.workload = TpccWorkload(
                db_bytes=self.scale.scaled_bytes(footprint),
                n_cpus=n_cpus,
                private_bytes=self.scale.scaled_bytes("8MB"),
                seed=self.seed,
            )
        elif kind == "tpch":
            footprint = args[1] if len(args) > 1 else "100GB"
            total = self.scale.scaled_bytes(footprint)
            self.workload = TpchWorkload(
                fact_bytes=int(total * 0.85),
                dim_bytes=total - int(total * 0.85),
                n_cpus=n_cpus,
                seed=self.seed,
            )
        elif kind == "web":
            footprint = args[1] if len(args) > 1 else "16GB"
            self.workload = WebWorkload(
                fileset_bytes=self.scale.scaled_bytes(footprint),
                n_cpus=n_cpus,
                seed=self.seed,
            )
        else:
            raise CliError(f"unknown workload {kind!r}")
        return f"workload: {kind} ({footprint} at paper scale)"

    def _cmd_run(self, args: List[str]) -> str:
        if not args:
            raise CliError("usage: run <n_refs>")
        if self.workload is None:
            raise CliError("no workload selected; run 'workload ...' first")
        host = self._require_host()
        n_refs = int(args[0].replace("_", ""))
        executed = host.run(self.workload.chunks(n_refs), max_references=n_refs)
        return (
            f"ran {executed:,} references; bus utilization "
            f"{host.bus.stats.utilization:.1%}, host L2 miss ratio "
            f"{host.aggregate_miss_ratio():.3f}"
        )

    def _cmd_console_passthrough(self, args: List[str]) -> str:
        raise CliError("internal dispatch error")  # pragma: no cover

    def _cmd_watch(self, args: List[str]) -> str:
        """One frame of the console's live telemetry dashboard."""
        return self.console.execute(" ".join(["watch", *args]))

    def _cmd_engines(self, args: List[str]) -> str:
        """Replay-engine capability decisions for the attached board."""
        return self.console.execute(" ".join(["engines", *args]))

    def _cmd_supervise(self, args: List[str]) -> str:
        """Journal status of a supervised run directory."""
        return self.console.execute(" ".join(["supervise", *args]))

    def _cmd_service(self, args: List[str]) -> str:
        """Manifest status of a multi-session service root."""
        return self.console.execute(" ".join(["service", *args]))

    def _cmd_timeline(self, args: List[str]) -> str:
        """Flight-recorder timeline of a run directory."""
        return self.console.execute(" ".join(["timeline", *args]))

    def _cmd_miss_ratios(self, args: List[str]) -> str:
        ratios = self.console.miss_ratios()
        return "\n".join(
            f"node {index}: {ratio:.4f}" for index, ratio in enumerate(ratios)
        )

    def _cmd_save_trace(self, args: List[str]) -> str:
        if len(args) < 2:
            raise CliError("usage: save-trace <path> <n_records>")
        if self.workload is None:
            raise CliError("no workload selected; run 'workload ...' first")
        host = self._require_host()
        n_records = int(args[1].replace("_", ""))
        self.workload.reset()
        trace = capture_records(self.workload, n_records, host.config)
        from repro.bus.trace import TraceWriter

        writer = TraceWriter()
        writer.extend_words(trace.words)
        writer.save(args[0])
        return f"saved {len(trace):,} records to {args[0]}"

    def _cmd_save_machine(self, args: List[str]) -> str:
        """Write the current board programming to a file."""
        if not args:
            raise CliError("usage: save-machine <path>")
        from repro.memories.board import CacheEmulationFirmware

        board = self.console.board
        if board is None or not isinstance(board.firmware, CacheEmulationFirmware):
            raise CliError("no cache-emulation programming to save")
        board.firmware.machine.save(args[0])
        return f"saved programming to {args[0]}"

    def _cmd_sweep(self, args: List[str]) -> str:
        """Capture one trace and evaluate several cache sizes against it."""
        if len(args) < 2:
            raise CliError("usage: sweep <n_records> <size> [size ...]")
        if self.workload is None:
            raise CliError("no workload selected; run 'workload ...' first")
        host = self._require_host()
        from repro.experiments.pipeline import l3_size_sweep

        n_records = int(args[0].replace("_", ""))
        sizes = args[1:]
        self.workload.reset()
        trace = capture_records(self.workload, n_records, host.config)
        configs = [self.scale.cache(size) for size in sizes]
        ratios = l3_size_sweep(
            trace, configs, n_cpus=self.scale.n_cpus, seed=self.seed
        )
        lines = [f"swept {len(trace):,} records:"]
        lines.extend(
            f"  {size:>8s}  miss ratio {ratio:.4f}"
            for size, ratio in zip(sizes, ratios)
        )
        return "\n".join(lines)

    def _cmd_help(self, args: List[str]) -> str:
        return __doc__.split("Commands", 1)[1]


def _verify_repo_main(args: List[str]) -> int:
    """``verify repo``: lint + determinism analysis with CI output formats.

    With no directory arguments every default target is linted —
    ``src/repro`` under the full ``library`` profile and the repository's
    ``tests``/``tools``/``benchmarks`` trees under their relaxed
    profiles.  ``--format json|sarif`` emits the machine-readable
    document (to ``--output`` or stdout); ``--baseline`` subtracts the
    committed baseline so only *new* findings fail;
    ``--update-baseline`` re-records it.
    """
    import argparse
    from pathlib import Path

    from repro.verify import (
        apply_baseline,
        check_repo,
        default_targets,
        load_baseline,
        render_sarif,
        stale_fingerprints,
        write_baseline,
    )
    from repro.verify.lint import PROFILES

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli verify repo",
        description="lint + determinism analysis over the source trees",
    )
    parser.add_argument(
        "roots", nargs="*",
        help="directories to lint (default: src/repro, tests, tools, "
             "benchmarks)")
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="library",
        help="rule profile for explicitly given roots (default library)")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default text)")
    parser.add_argument(
        "--output", default=None,
        help="write json/sarif output to this file (text summary still "
             "prints to stdout)")
    parser.add_argument(
        "--baseline", default=None,
        help="baseline file of known findings; only new findings fail")
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="re-record the --baseline file from the current findings")
    ns = parser.parse_args(args)

    if ns.roots:
        targets = [(root, ns.profile) for root in ns.roots]
    else:
        targets = default_targets()
    raw_reports = [check_repo(root, profile) for root, profile in targets]

    if ns.update_baseline:
        if ns.baseline is None:
            raise CliError("--update-baseline requires --baseline FILE")
        count = write_baseline(raw_reports, ns.baseline)
        print(f"baseline {ns.baseline} recorded with {count} finding(s)")

    reports = raw_reports
    if ns.baseline is not None:
        baseline = load_baseline(ns.baseline)
        reports = [apply_baseline(report, baseline) for report in raw_reports]
        for key in stale_fingerprints(raw_reports, baseline):
            print(
                f"note: baseline entry {key} no longer matches any finding "
                f"(fixed — re-record with --update-baseline)"
            )

    if ns.format == "json":
        import json

        document = json.dumps(
            {
                "ok": all(report.ok for report in reports),
                "reports": [report.to_dict() for report in reports],
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
    elif ns.format == "sarif":
        document = render_sarif(reports)
    else:
        document = None

    if document is not None and ns.output:
        Path(ns.output).write_text(document, encoding="utf-8")
        print(f"wrote {ns.output}")
    status = EXIT_OK
    for report in reports:
        if document is None or ns.output:
            print(report.render() if document is None else report.summary())
        if not report.ok:
            status = EXIT_CHECK_FAILED
    if document is not None and not ns.output:
        sys.stdout.write(document)
    return status


def _verify_engines_main(args: List[str]) -> int:
    """``verify engines``: audit replay-engine capability decisions.

    Proves every registered engine's declared capability requirements
    against a board programming — a saved ``programming.json``, or the
    default single-node machine the replay benchmark uses — and prints
    each decision's report.  Exits 0 only when every engine is eligible,
    so CI can assert that the benchmarked configuration actually
    exercises all engines; pass ``--expect`` to assert a subset instead.
    """
    import argparse

    from repro.engines import decide_all

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli verify engines",
        description="static capability decisions for every replay engine",
    )
    parser.add_argument(
        "programming", nargs="?", default=None,
        help="saved board programming JSON (default: the bench machine)")
    parser.add_argument(
        "--shards", type=int, default=4,
        help="shard spec to prove the sharded engine against (default 4)")
    parser.add_argument(
        "--cache", default="64MB",
        help="paper-scale L3 size for the default machine (default 64MB)")
    parser.add_argument(
        "--expect", default=None,
        help="comma-separated engines that must be eligible "
             "(default: all registered)")
    ns = parser.parse_args(args)

    if ns.programming is not None:
        from repro.target.mapping import TargetMachine

        machine = TargetMachine.load(ns.programming)
    else:
        scale = ExperimentScale()
        machine = single_node_machine(
            scale.cache(ns.cache), n_cpus=scale.n_cpus
        )
    decisions = decide_all(machine=machine, shards=ns.shards)
    expected = (
        {name.strip() for name in ns.expect.split(",") if name.strip()}
        if ns.expect is not None
        else {decision.spec.name for decision in decisions}
    )
    unknown = expected - {decision.spec.name for decision in decisions}
    if unknown:
        raise CliError(
            f"--expect names unregistered engine(s): {', '.join(sorted(unknown))}"
        )
    status = EXIT_OK
    for decision in decisions:
        spec = decision.spec
        verdict = "eligible" if decision.eligible else "REJECTED"
        requires = (
            ", ".join(sorted(str(c) for c in spec.requires)) or "(nothing)"
        )
        print(f"engine {spec.name:8s} [{verdict}] requires {requires}")
        for finding in decision.report.findings:
            print(f"  {finding.render()}")
        if not decision.eligible and spec.name in expected:
            status = EXIT_CHECK_FAILED
    return status


def verify_main(argv: List[str]) -> int:
    """The ``verify`` subcommand: static analysis before power-up.

    ``verify protocol [name|map.json ...]`` model-checks protocol tables
    (all firmware builtins when no argument is given); ``verify machine
    <programming.json> [run_hours]`` validates a saved board programming;
    ``verify repo [dir ...]`` lints the source trees (see
    :func:`_verify_repo_main` for formats/baselines); ``verify engines``
    audits replay-engine capability decisions.  Exit status is 0 only
    when every report passes.
    """
    from pathlib import Path

    from repro.verify import check_machine, check_protocol

    def load_json(path: str) -> object:
        import json

        try:
            with open(path) as handle:
                return json.load(handle)
        except OSError as error:
            raise CliError(f"cannot read {path}: {error}") from None
        except json.JSONDecodeError as error:
            raise CliError(f"{path} is not valid JSON: {error}") from None

    if not argv:
        raise CliError("usage: verify protocol|machine|repo ...")
    kind, args = argv[0].lower(), argv[1:]
    reports = []
    if kind == "protocol":
        from repro.memories.config import BUILTIN_PROTOCOLS

        targets = args if args else list(BUILTIN_PROTOCOLS)
        for target in targets:
            if Path(target).suffix == ".json" or Path(target).exists():
                reports.append(check_protocol(load_json(target)))
            else:
                reports.append(check_protocol(target))
    elif kind == "machine":
        if not args:
            raise CliError("usage: verify machine <programming.json> [run_hours]")
        data = load_json(args[0])
        try:
            run_hours = float(args[1]) if len(args) > 1 else None
        except ValueError:
            raise CliError(f"run_hours must be a number, got {args[1]!r}") from None
        if run_hours is not None:
            reports.append(check_machine(data, run_hours=run_hours))
        else:
            reports.append(check_machine(data))
    elif kind == "repo":
        return _verify_repo_main(args)
    elif kind == "engines":
        return _verify_engines_main(args)
    else:
        raise CliError(f"unknown verify target {kind!r}; "
                       f"expected protocol, machine, repo or engines")
    status = 0
    for report in reports:
        print(report.render())
        if not report.ok:
            status = 1
    return status


def faults_main(argv: List[str]) -> int:
    """The ``faults`` subcommand: seeded fault-injection campaigns.

    ``faults run`` captures a scaled TPC-C bus trace, replays it twice
    through identically programmed boards — once fault-free, once under
    the requested plan — and prints the campaign summary; ``--out`` writes
    the full report as JSON.  ``faults report <campaign.json>`` re-renders
    a saved report.  A zero-rate run whose statistics are not byte-identical
    to the baseline exits 1 (the CI smoke contract); otherwise 0.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli faults",
        description="seeded fault-injection campaigns against the board",
    )
    sub = parser.add_subparsers(dest="action")
    run_parser = sub.add_parser(
        "run", help="capture a trace and run one baseline-vs-faulted campaign"
    )
    run_parser.add_argument(
        "--records", type=int, default=20_000,
        help="bus records to capture (default 20000)")
    run_parser.add_argument(
        "--seed", type=int, default=0,
        help="seed shared by workload, replacement policy and fault plan")
    run_parser.add_argument(
        "--cache", default="64MB",
        help="paper-scale L3 size, scaled 1/1024 (default 64MB)")
    run_parser.add_argument(
        "--drop", type=float, default=0.0,
        help="per-tenure snoop-drop rate")
    run_parser.add_argument(
        "--flip", type=float, default=0.0,
        help="per-tenure directory bit-flip rate")
    run_parser.add_argument(
        "--burst", type=float, default=0.0,
        help="per-tenure transaction-buffer burst rate")
    run_parser.add_argument(
        "--burst-ops", type=int, default=64,
        help="operations per injected burst (default 64)")
    run_parser.add_argument(
        "--saturate", type=float, default=0.0,
        help="per-tenure counter-saturation rate")
    run_parser.add_argument(
        "--no-ecc", action="store_true",
        help="leave the tag/state directory unprotected")
    run_parser.add_argument(
        "--scrub-interval", type=float, default=None,
        help="patrol-scrubber cadence in bus cycles")
    run_parser.add_argument(
        "--out", default=None,
        help="write the full campaign report to this JSON file")
    report_parser = sub.add_parser(
        "report", help="re-render a saved campaign report"
    )
    report_parser.add_argument("path")
    ns = parser.parse_args(argv)

    if ns.action == "report":
        try:
            with open(ns.path) as handle:
                data = json.load(handle)
        except OSError as error:
            raise CliError(f"cannot read {ns.path}: {error}") from None
        except json.JSONDecodeError as error:
            raise CliError(f"{ns.path} is not valid JSON: {error}") from None
        from repro.faults import FaultPlan

        plan = FaultPlan.from_dict(data.get("plan", {}))
        print(f"campaign over {data.get('records', 0):,} records, plan {plan}")
        print(
            f"miss ratio {data.get('baseline_miss_ratio', 0.0):.4f} -> "
            f"{data.get('faulted_miss_ratio', 0.0):.4f} "
            f"(error {data.get('miss_ratio_error', 0.0):.4f})"
        )
        counts = data.get("fault_counts", {})
        print(
            "faults committed: "
            + (", ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "none")
        )
        print(f"identical to baseline: {data.get('identical')}")
        return 0
    if ns.action != "run":
        parser.print_usage()
        return 2

    from repro.faults import FaultPlan, run_campaign

    plan = FaultPlan(
        seed=ns.seed,
        drop_snoop_rate=ns.drop,
        directory_flip_rate=ns.flip,
        buffer_burst_rate=ns.burst,
        buffer_burst_ops=ns.burst_ops,
        counter_saturate_rate=ns.saturate,
    )
    plan.validate()
    scale = ExperimentScale()
    workload = TpccWorkload(
        db_bytes=scale.scaled_bytes("150GB"),
        n_cpus=scale.n_cpus,
        private_bytes=scale.scaled_bytes("8MB"),
        seed=ns.seed,
    )
    print(f"capturing {ns.records:,} bus records (TPC-C, scale 1/{scale.scale})...")
    trace = capture_records(workload, ns.records, scale.host())
    machine = single_node_machine(scale.cache(ns.cache), n_cpus=scale.n_cpus)
    result = run_campaign(
        trace.words,
        machine,
        plan,
        seed=ns.seed,
        ecc=not ns.no_ecc,
        scrub_interval=ns.scrub_interval,
    )
    print(result.summary())
    if plan.is_zero:
        print(f"zero-fault run identical to baseline: {result.identical}")
    if ns.out:
        with open(ns.out, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"wrote {ns.out}")
    return 0 if (not plan.is_zero or result.identical) else 1


def telemetry_main(argv: List[str]) -> int:
    """The ``telemetry`` subcommand: counter time series end to end.

    ``telemetry run`` captures a scaled TPC-C bus trace and replays it
    through an instrumented board, writing the sampled series (and the
    capture/replay spans) as JSONL; ``telemetry report`` re-renders a
    saved series as the text dashboard; ``telemetry export`` re-emits it
    as canonical JSONL or as a Prometheus text exposition page whose
    counter totals are wrap-corrected sums of the recorded deltas.
    """
    import argparse

    from repro.memories.board import board_for_machine
    from repro.telemetry import (
        CounterSampler,
        JsonlSink,
        RunTrace,
        TelemetrySeries,
        encode_record,
        series_exposition,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli telemetry",
        description="counter time-series sampling and export",
    )
    sub = parser.add_subparsers(dest="action")
    run_parser = sub.add_parser(
        "run", help="capture a trace and replay it with the sampler on"
    )
    run_parser.add_argument(
        "--records", type=int, default=20_000,
        help="bus records to capture (default 20000)")
    run_parser.add_argument(
        "--seed", type=int, default=0,
        help="seed shared by workload and replacement policy")
    run_parser.add_argument(
        "--cache", default="64MB",
        help="paper-scale L3 size, scaled 1/1024 (default 64MB)")
    run_parser.add_argument(
        "--every-tx", type=int, default=None,
        help="sampling cadence in replayed transactions (default 1024)")
    run_parser.add_argument(
        "--every-cycles", type=float, default=None,
        help="sampling cadence in emulated bus cycles")
    run_parser.add_argument(
        "--out", default="telemetry.jsonl",
        help="JSONL series output path (default telemetry.jsonl)")
    run_parser.add_argument(
        "--deterministic", action="store_true",
        help="strip wall-clock fields so same-seed runs are byte-identical")
    report_parser = sub.add_parser(
        "report", help="render a saved series as the text dashboard"
    )
    report_parser.add_argument("path")
    export_parser = sub.add_parser(
        "export", help="re-emit a saved series for downstream consumers"
    )
    export_parser.add_argument("path")
    export_parser.add_argument(
        "--format", choices=("prom", "jsonl"), default="prom",
        help="prom: Prometheus text exposition; jsonl: canonical JSONL")
    export_parser.add_argument(
        "--deterministic", action="store_true",
        help="strip wall-clock fields from jsonl output")
    ns = parser.parse_args(argv)

    if ns.action == "report":
        series = TelemetrySeries.from_jsonl(ns.path)
        print(series.dashboard())
        return 0
    if ns.action == "export":
        series = TelemetrySeries.from_jsonl(ns.path)
        if ns.format == "prom":
            sys.stdout.write(series_exposition(series.records))
        else:
            for record in series.records:
                print(encode_record(record, deterministic=ns.deterministic))
        return 0
    if ns.action != "run":
        parser.print_usage()
        return 2

    scale = ExperimentScale()
    workload = TpccWorkload(
        db_bytes=scale.scaled_bytes("150GB"),
        n_cpus=scale.n_cpus,
        private_bytes=scale.scaled_bytes("8MB"),
        seed=ns.seed,
    )
    sink = JsonlSink(ns.out, deterministic=ns.deterministic)
    run_trace = RunTrace(sink, label="telemetry-run")
    sampler = CounterSampler(
        sink,
        every_transactions=ns.every_tx,
        every_cycles=ns.every_cycles,
        label="board",
    )
    print(
        f"capturing {ns.records:,} bus records (TPC-C, scale 1/{scale.scale})..."
    )
    trace = capture_records(
        workload, ns.records, scale.host(), run_trace=run_trace
    )
    machine = single_node_machine(scale.cache(ns.cache), n_cpus=scale.n_cpus)
    board = board_for_machine(machine, seed=ns.seed)
    board.attach_telemetry(sampler, run_trace=run_trace)
    board.replay(trace)
    sampler.finish(board)
    sink.close()
    series = TelemetrySeries.from_jsonl(ns.out)
    print(series.summary())
    ratios = ", ".join(
        f"{node.miss_ratio():.4f}" for node in board.firmware.nodes
    )
    print(f"final miss ratios: {ratios}")
    print(f"wrote {ns.out}")
    return 0


def supervise_main(argv: List[str]) -> int:
    """The ``supervise`` subcommand: crash-safe segmented runs.

    ``supervise run <run_dir>`` captures a scaled TPC-C bus trace (or
    takes one via ``--trace``), stages it into ``run_dir`` as a segmented
    trace plus run spec and journal, and executes it under the
    :class:`~repro.supervisor.RunSupervisor` watchdog.  ``supervise
    resume <run_dir>`` continues an interrupted run from its last
    journaled checkpoint — killing a run at any point and resuming it
    yields counters bit-identical to an uninterrupted run.  ``supervise
    status <run_dir>`` renders the journal without touching the board.

    Exit codes follow the module taxonomy: 0 clean completion, 4 when
    the run completed but degraded (quarantined segments or offlined
    nodes), 2/3 for validation/runtime failures.
    """
    import argparse

    from repro.supervisor import (
        RunSupervisor,
        SupervisedRunSpec,
        render_status,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli supervise",
        description="crash-safe supervised replay with durable checkpoints",
    )
    sub = parser.add_subparsers(dest="action")
    run_parser = sub.add_parser(
        "run", help="stage a run directory and execute it under supervision"
    )
    run_parser.add_argument("run_dir")
    run_parser.add_argument(
        "--records", type=int, default=20_000,
        help="bus records to capture (default 20000)")
    run_parser.add_argument(
        "--seed", type=int, default=0,
        help="seed shared by workload and replacement policy")
    run_parser.add_argument(
        "--cache", default="64MB",
        help="paper-scale L3 size, scaled 1/1024 (default 64MB)")
    run_parser.add_argument(
        "--trace", default=None,
        help="replay this saved .mies trace instead of capturing one")
    run_parser.add_argument(
        "--segment-records", type=int, default=5_000,
        help="records per committed segment (default 5000)")
    run_parser.add_argument(
        "--ecc", action="store_true",
        help="protect tag/state directories with ECC (enables the "
             "pre-segment self-check degradation rung)")
    run_parser.add_argument(
        "--keep", type=int, default=3,
        help="checkpoints kept in the rotation (default 3)")
    run_parser.add_argument(
        "--max-restarts", type=int, default=3,
        help="worker restart budget before the run fails (default 3)")
    run_parser.add_argument(
        "--deadline", type=float, default=60.0,
        help="minimum per-segment watchdog deadline in seconds")
    resume_parser = sub.add_parser(
        "resume", help="continue an interrupted run from its journal"
    )
    resume_parser.add_argument("run_dir")
    status_parser = sub.add_parser(
        "status", help="render a run directory's journal state"
    )
    status_parser.add_argument("run_dir")
    ns = parser.parse_args(argv)

    if ns.action == "status":
        supervisor = RunSupervisor.open(ns.run_dir)
        print(render_status(supervisor.status()))
        return EXIT_OK
    if ns.action == "resume":
        supervisor = RunSupervisor.open(ns.run_dir)
        result = supervisor.run()
        print(render_status(supervisor.status()))
        print(f"digest {result.digest[:16]}…")
        return EXIT_DEGRADED if result.degraded else EXIT_OK
    if ns.action != "run":
        parser.print_usage()
        return EXIT_VALIDATION

    scale = ExperimentScale()
    if ns.trace is not None:
        trace_source = ns.trace
        print(f"staging saved trace {ns.trace}...")
    else:
        workload = TpccWorkload(
            db_bytes=scale.scaled_bytes("150GB"),
            n_cpus=scale.n_cpus,
            private_bytes=scale.scaled_bytes("8MB"),
            seed=ns.seed,
        )
        print(
            f"capturing {ns.records:,} bus records "
            f"(TPC-C, scale 1/{scale.scale})..."
        )
        trace_source = capture_records(
            workload, ns.records, scale.host()
        ).words
    machine = single_node_machine(scale.cache(ns.cache), n_cpus=scale.n_cpus)
    spec = SupervisedRunSpec(
        machine=machine,
        seed=ns.seed,
        ecc=ns.ecc,
        segment_records=ns.segment_records,
        keep_checkpoints=ns.keep,
        max_restarts=ns.max_restarts,
        segment_deadline=ns.deadline,
    )
    supervisor = RunSupervisor.create(spec, trace_source, ns.run_dir)
    result = supervisor.run()
    print(render_status(supervisor.status()))
    ratios = ", ".join(
        f"{ratio:.4f}" for _, ratio in sorted(result.miss_ratios.items())
    )
    print(f"final miss ratios: {ratios}")
    print(f"digest {result.digest[:16]}…")
    return EXIT_DEGRADED if result.degraded else EXIT_OK


def service_main(argv: List[str]) -> int:
    """The ``service`` subcommand: the multi-session emulation server.

    ``service serve <root>`` boots the asyncio HTTP/WebSocket server on a
    service root directory and runs until SIGTERM (or ``POST /drain``),
    then drains gracefully: in-flight runs suspend at their last durable
    segment and the journaled manifest lets the next ``serve`` on the
    same root re-adopt and finish them bit-identically.

    ``service submit`` builds a synthetic-trace session request and
    submits it; with ``--wait`` it polls to a terminal state.  Structured
    refusals — queue full, tenant quota, deadline exceeded — exit with
    code :data:`EXIT_RESOURCE` (5), distinct from validation (2) and
    runtime (3) failures, so fleet drivers know a resubmit-later from a
    fix-your-input.  ``service status`` and ``service tail`` observe a
    running server over HTTP and WebSocket respectively.
    """
    import argparse
    import asyncio
    import json

    from repro.service import (
        EmulationService,
        ServiceClient,
        ServiceConfig,
        ServiceServer,
        SessionRequest,
        serve_forever,
    )
    from repro.supervisor import SupervisedRunSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli service",
        description="multi-session emulation service (HTTP + WebSocket)",
    )
    sub = parser.add_subparsers(dest="action")
    serve_parser = sub.add_parser(
        "serve", help="run the service until SIGTERM, then drain"
    )
    serve_parser.add_argument("root", help="service root directory")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8764,
        help="listen port (0 picks a free one; default 8764)")
    serve_parser.add_argument(
        "--max-workers", type=int, default=4,
        help="concurrent sessions executing (default 4)")
    serve_parser.add_argument(
        "--tenant-workers", type=int, default=2,
        help="concurrent sessions per tenant (default 2)")
    serve_parser.add_argument(
        "--queue-depth", type=int, default=64,
        help="admitted-but-not-running bound (default 64)")
    serve_parser.add_argument(
        "--tenant-queue", type=int, default=16,
        help="queued sessions per tenant (default 16)")
    serve_parser.add_argument(
        "--wall-deadline", type=float, default=None,
        help="default per-session wall deadline in seconds")
    serve_parser.add_argument(
        "--ingest-buffer", type=int, default=65_536,
        help="ingest back-pressure bound, in records (default 65536)")
    submit_parser = sub.add_parser(
        "submit", help="submit a synthetic-trace session"
    )
    submit_parser.add_argument("server", help="host:port of a running server")
    submit_parser.add_argument(
        "--records", type=int, default=20_000,
        help="synthetic bus records (default 20000)")
    submit_parser.add_argument(
        "--seed", type=int, default=0,
        help="workload and replacement-policy seed")
    submit_parser.add_argument(
        "--cache", default="64MB",
        help="paper-scale L3 size, scaled 1/1024 (default 64MB)")
    submit_parser.add_argument(
        "--segment-records", type=int, default=5_000,
        help="records per committed segment (default 5000)")
    submit_parser.add_argument("--tenant", default="default")
    submit_parser.add_argument(
        "--priority", type=int, default=1, choices=(0, 1, 2),
        help="0 high / 1 normal / 2 low")
    submit_parser.add_argument("--label", default="")
    submit_parser.add_argument(
        "--wall-deadline", type=float, default=None,
        help="seconds from admission to completion")
    submit_parser.add_argument(
        "--cycle-deadline", type=float, default=None,
        help="emulated-cycle budget")
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="poll until the session reaches a terminal state")
    status_parser = sub.add_parser(
        "status", help="service (or one session's) status over HTTP"
    )
    status_parser.add_argument("server")
    status_parser.add_argument("session", nargs="?", default=None)
    tail_parser = sub.add_parser(
        "tail", help="stream a session's live telemetry over WebSocket"
    )
    tail_parser.add_argument("server")
    tail_parser.add_argument("session")
    tail_parser.add_argument(
        "--limit", type=int, default=None,
        help="stop after this many events")
    ns = parser.parse_args(argv)

    def endpoint(server: str) -> ServiceClient:
        host, _, port = server.rpartition(":")
        if not host or not port.isdigit():
            raise CliError(
                f"server must be host:port, got {server!r}"
            )
        return ServiceClient(host, int(port))

    if ns.action == "serve":
        config = ServiceConfig(
            max_workers=ns.max_workers,
            max_workers_per_tenant=ns.tenant_workers,
            max_queue_depth=ns.queue_depth,
            max_queued_per_tenant=ns.tenant_queue,
            default_wall_deadline=ns.wall_deadline,
            ingest_buffer_records=ns.ingest_buffer,
        )

        async def _serve() -> None:
            server = ServiceServer(
                EmulationService(ns.root, config), ns.host, ns.port
            )
            await server.start()
            print(
                f"serving on {ns.host}:{server.port} "
                f"(root {ns.root}; SIGTERM drains)"
            )
            await serve_forever(server)
            print("drained; manifest journaled for re-adoption")

        asyncio.run(_serve())
        return EXIT_OK

    if ns.action == "submit":
        client = endpoint(ns.server)
        scale = ExperimentScale()
        spec = SupervisedRunSpec(
            machine=single_node_machine(
                scale.cache(ns.cache), n_cpus=scale.n_cpus
            ),
            seed=ns.seed,
            segment_records=ns.segment_records,
        )
        request = SessionRequest(
            run_spec=spec,
            trace={
                "kind": "synthetic",
                "records": ns.records,
                "seed": ns.seed,
                "n_cpus": scale.n_cpus,
            },
            tenant=ns.tenant,
            priority=ns.priority,
            label=ns.label,
            wall_deadline=ns.wall_deadline,
            cycle_deadline=ns.cycle_deadline,
        )

        async def _submit() -> int:
            session_id = await client.submit(request.to_dict())
            print(f"admitted {session_id}")
            if not ns.wait:
                return EXIT_OK
            view = await client.wait(
                session_id,
                timeout=(ns.wall_deadline or 0) + 600.0,
            )
            print(json.dumps(view, indent=2, sort_keys=True))
            if view["state"] == "completed":
                return EXIT_DEGRADED if view["degraded"] else EXIT_OK
            if view["state"] == "expired":
                print(f"error: session expired ({view['reason']})")
                return EXIT_RESOURCE
            print(f"error: session {view['state']}: {view['error']}")
            return EXIT_RUNTIME

        return asyncio.run(_submit())

    if ns.action == "status":
        client = endpoint(ns.server)

        async def _status() -> int:
            if ns.session:
                view = await client.session(ns.session)
                print(json.dumps(view, indent=2, sort_keys=True))
            else:
                print(json.dumps(
                    await client.status(), indent=2, sort_keys=True
                ))
            return EXIT_OK

        return asyncio.run(_status())

    if ns.action == "tail":
        client = endpoint(ns.server)

        async def _tail() -> int:
            async for record in client.tail(ns.session, limit=ns.limit):
                print(json.dumps(record, sort_keys=True))
            return EXIT_OK

        return asyncio.run(_tail())

    parser.print_usage()
    return EXIT_VALIDATION


def bench_main(argv: List[str]) -> int:
    """The ``bench`` subcommand: replay-engine throughput A/B.

    Replays one deterministic synthetic trace through the scalar
    reference loop, the compiled engine and the sharded worker pool (see
    :mod:`repro.experiments.replay_bench`), prints records/sec for each
    (best of ``--repeats``), and optionally writes the JSON report CI
    archives as ``BENCH_replay.json``.  The
    digests are the point: a non-zero exit means the engines' statistics
    diverged, which is a correctness failure, not a slow run.
    """
    import argparse
    import json
    from pathlib import Path

    from repro.experiments.replay_bench import (
        DEFAULT_RECORDS,
        run_replay_benchmark,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli bench",
        description=(
            "replay throughput: scalar vs compiled vs sharded"
        ),
    )
    parser.add_argument(
        "--records", type=int, default=DEFAULT_RECORDS,
        help=f"bus records to replay (default {DEFAULT_RECORDS})")
    parser.add_argument(
        "--seed", type=int, default=2000,
        help="workload and replacement-policy seed (default 2000)")
    parser.add_argument(
        "--shards", type=int, default=4,
        help="worker shards for the sharded engine (default 4)")
    parser.add_argument(
        "--inline-shards", action="store_true",
        help="replay the shards inline instead of in worker processes")
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="timing repeats per engine; best-of-N is reported (default 1)")
    parser.add_argument(
        "--out", default=None,
        help="write the JSON report here (e.g. BENCH_replay.json)")
    ns = parser.parse_args(argv)

    report = run_replay_benchmark(
        ns.records, seed=ns.seed, shards=ns.shards,
        sharded_processes=not ns.inline_shards, repeats=ns.repeats,
    )
    for name, entry in report["engines"].items():
        print(
            f"{name:8s} {entry['records_per_second']:12,.0f} records/s  "
            f"digest {entry['statistics_digest'][:16]}…"
        )
    print(f"compiled speedup over scalar: {report['compiled_speedup']:.2f}x")
    if ns.out:
        Path(ns.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {ns.out}")
    if not report["identical"]:
        print(
            "error: engine statistics digests differ — a fast path is "
            "not bit-identical to the scalar reference"
        )
        return EXIT_VALIDATION
    return EXIT_OK


def obs_main(argv: List[str]) -> int:
    """The ``obs`` subcommand: run forensics after the fact.

    ``obs timeline <run_dir>`` merges the run's journal, supervisor span
    log and (for service sessions) the service manifest and telemetry
    into one causally-ordered flight-recorder timeline, with a
    critical-path breakdown of where the wall time went.  The output is
    byte-identical for the same run directory, in every format.  ``obs
    spans <run_dir>`` validates the propagated span tree instead: one
    trace ID, every parent resolved, fully connected.
    """
    import argparse
    from pathlib import Path

    from repro.obs import (
        FORMATS,
        build_timeline,
        render_timeline,
        session_records,
        validate_session_trace,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli obs",
        description="flight-recorder timelines and span-tree validation",
    )
    sub = parser.add_subparsers(dest="action")
    timeline_parser = sub.add_parser(
        "timeline",
        help="merge a run's logs into one causally-ordered timeline",
    )
    timeline_parser.add_argument("run_dir")
    timeline_parser.add_argument(
        "--format", choices=FORMATS, default="text",
        help="text (default), canonical json, or Chrome trace-event json")
    timeline_parser.add_argument(
        "--out", default=None,
        help="write the rendered timeline here instead of stdout")
    spans_parser = sub.add_parser(
        "spans", help="validate a run's propagated span tree"
    )
    spans_parser.add_argument("run_dir")
    ns = parser.parse_args(argv)

    if ns.action == "timeline":
        page = render_timeline(build_timeline(ns.run_dir), ns.format)
        if ns.out:
            Path(ns.out).write_text(page)
            print(f"wrote {ns.out}")
        else:
            sys.stdout.write(page)
        return EXIT_OK
    if ns.action == "spans":
        tree = validate_session_trace(session_records(ns.run_dir))
        summary = tree.summary()
        print(f"trace: {summary['trace_ids'][0]}")
        print(f"spans: {summary['spans']}, roots: {len(summary['roots'])}")
        for root in summary["roots"]:
            for depth, record in tree.walk(root):
                attrs = record.get("attrs") or {}
                extra = "".join(
                    f" {key}={attrs[key]}" for key in sorted(attrs)
                )
                print(
                    f"  {'  ' * depth}{record['name']} "
                    f"[{record['span_id']}]{extra}"
                )
        print("span tree connected: every parent resolves")
        return EXIT_OK
    parser.print_usage()
    return EXIT_VALIDATION


#: Stand-alone subcommands dispatched before the console session starts.
_SUBCOMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "verify": verify_main,
    "faults": faults_main,
    "telemetry": telemetry_main,
    "supervise": supervise_main,
    "service": service_main,
    "bench": bench_main,
    "obs": obs_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: interactive prompt, scripted session, ``verify``,
    ``faults``, ``telemetry`` or ``supervise``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].lower() in _SUBCOMMANDS:
        try:
            return _SUBCOMMANDS[argv[0].lower()](argv[1:])
        except ReproError as error:
            print(f"error: {error}")
            return classify_error(error)
    session = ConsoleSession()
    if argv:
        source = open(argv[0])
        interactive = False
    else:
        source = sys.stdin
        interactive = True
        print("MemorIES console (reproduction). 'help' lists commands.")
    status = 0
    with source:
        for line in source:
            if interactive:
                pass
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.lower() in ("quit", "exit"):
                break
            try:
                output = session.execute(stripped)
            except ReproError as error:
                print(f"error: {error}")
                status = 1
                continue
            if output:
                print(output)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
