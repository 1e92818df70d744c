"""The console software.

The real console is a Windows PC driving the board over a parallel port; it
performs "power-up initialization of the MemorIES board, cache parameter
setting, and statistics extraction" (Section 2).  :class:`MemoriesConsole`
is that program's API surface: it programs target machines into a board,
uploads protocol map files to individual node controllers, extracts and
formats statistics, and offers a small textual command interface so the
examples can feel like a lab session.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ConfigurationError
from repro.memories.board import (
    CacheEmulationFirmware,
    DEFAULT_ASSUMED_UTILIZATION,
    MemoriesBoard,
)
from repro.memories.protocol_table import ProtocolTable
from repro.target.mapping import TargetMachine


class MemoriesConsole:
    """Programming and diagnostics interface to one board.

    Example:
        >>> from repro.memories import CacheNodeConfig, MemoriesConsole
        >>> from repro.target import single_node_machine
        >>> console = MemoriesConsole()
        >>> board = console.power_up(
        ...     single_node_machine(CacheNodeConfig.create("64MB"), n_cpus=8))
        >>> console.read_statistics()["board.retries_posted"]
        0
    """

    def __init__(self) -> None:
        self.board: Optional[MemoriesBoard] = None
        self._log: List[str] = []

    # ------------------------------------------------------------------ #
    # Programming
    # ------------------------------------------------------------------ #

    def power_up(
        self,
        machine: TargetMachine,
        seed: int = 0,
        assumed_utilization: float = DEFAULT_ASSUMED_UTILIZATION,
        enforce_envelope: bool = True,
        force: bool = False,
        ecc: bool = False,
        scrub_interval: Optional[float] = None,
    ) -> MemoriesBoard:
        """Initialise a board with cache-emulation firmware for ``machine``.

        Every node config is validated against the Table 2 envelope before
        the board comes up, exactly like the real console refuses bad
        parameter settings.  Pass ``enforce_envelope=False`` for scaled-down
        experiment configurations, whose caches intentionally fall below
        the board's 2 MB minimum; geometry is still checked.

        The machine's protocol tables are additionally run through the
        :mod:`repro.verify` model checker; a machine referencing a table
        that fails verification is refused unless ``force=True`` (the
        real board would run it — straight into silent state corruption).

        ``ecc=True`` builds SECDED-protected tag/state directories with a
        background patrol scrubber (cadence ``scrub_interval`` bus cycles).
        """
        for spec in machine.nodes:
            if enforce_envelope:
                spec.config.validate()
            else:
                spec.config.validate_geometry()
        if not force:
            self._refuse_unverified(machine)
        firmware = CacheEmulationFirmware(
            machine, seed=seed, ecc=ecc, scrub_interval=scrub_interval
        )
        self.board = MemoriesBoard(
            firmware,
            assumed_utilization=assumed_utilization,
            name=machine.name,
        )
        self._log.append(f"power-up: {machine.describe()}")
        return self.board

    def attach(self, board: MemoriesBoard) -> None:
        """Take control of an already-constructed board (any firmware)."""
        self.board = board
        self._log.append(f"attached to board {board.name!r}")

    def load_protocol_map(
        self, node_index: int, table: ProtocolTable, force: bool = False
    ) -> None:
        """Upload a protocol map file to one node controller FPGA.

        Section 3.2: "Different state table files could be loaded to
        different node controller FPGAs to experiment with different
        coherence protocols during the same measurement."

        The table is model-checked first (see :mod:`repro.verify`); an
        unverified table is refused unless ``force=True``.
        """
        if not force:
            from repro.verify.protocol import require_verified

            require_verified(table)
        firmware = self._emulation_firmware()
        try:
            node = firmware.nodes[node_index]
        except IndexError:
            raise ConfigurationError(
                f"board has {len(firmware.nodes)} nodes; no node {node_index}"
            ) from None
        node.protocol = table
        node._table = table.raw_table()
        node._fill = table.fill
        self._log.append(f"node {node_index}: loaded protocol {table.name!r}")

    # ------------------------------------------------------------------ #
    # Statistics extraction
    # ------------------------------------------------------------------ #

    def read_statistics(self) -> dict:
        """Pull the merged counter snapshot off the board."""
        board = self._require_board()
        return board.statistics()

    def reset_statistics(self) -> None:
        """Re-initialise the board's counters and directories."""
        self._require_board().reset()
        self._log.append("statistics reset")

    def report(self) -> str:
        """Human-readable statistics report, one counter per line."""
        board = self._require_board()
        lines = [f"=== MemorIES board {board.name!r} ==="]
        lines.append(f"emulated wall-clock: {board.emulated_seconds:.3f}s")
        for name, value in sorted(board.statistics().items()):
            lines.append(f"{name:40s} {value}")
        return "\n".join(lines)

    def miss_ratios(self) -> List[float]:
        """Per-node miss ratios (cache-emulation firmware only)."""
        return [node.miss_ratio() for node in self._emulation_firmware().nodes]

    def wrapped_counters(self) -> List[str]:
        """Names of 40-bit counters that have overflowed at least once.

        The paper sizes the counters for ">30 hours" at 20% bus
        utilization; an operator polling statistics less often than that
        must check this before trusting absolute counts.  Covers every
        bank the board can enumerate — node counters, resilience counters
        and the global-events FPGA.
        """
        return self._require_board().wrapped_counters()

    def resilience_report(self) -> str:
        """Recovery-machinery health: retries, snoop losses, buffers, ECC.

        One screen an operator reads after (or during) a long monitoring
        run to decide whether the collected statistics can be trusted:
        how often the bus had to re-issue retried tenures, whether the
        passive monitor ever missed a snoop, how close the transaction
        buffers came to overflowing, and what the directory ECC saw.
        """
        board = self._require_board()
        lines = [f"=== resilience: board {board.name!r} ==="]
        lines.append(f"retries posted            {board.retries_posted}")
        lines.append(f"snoop losses              {board.snoop_losses}")
        firmware = board.firmware
        for node in getattr(firmware, "nodes", []):
            buf = node.buffer
            lines.append(
                f"node {node.index}: buffer high-water {buf.stats.high_water}"
                f"/{buf.capacity}, rejected {buf.stats.rejected}"
            )
            if node.ecc:
                scrubber = node.scrubber
                cadence = (
                    f"scrub every {scrubber.interval_cycles:.0f} cycles, full pass "
                    f"{scrubber.full_pass_cycles():.0f} cycles, "
                    f"{node.directory.ecc_stats.scrub_passes} passes done"
                    if scrubber is not None
                    else "no scrubber"
                )
                lines.append(f"node {node.index}: ECC on ({cadence})")
            else:
                lines.append(f"node {node.index}: ECC off")
            for name, value in sorted(node.resilience.snapshot().items()):
                lines.append(f"  {name:38s} {value}")
        wrapped = board.wrapped_counters()
        if wrapped:
            lines.append("WRAPPED counters: " + ", ".join(wrapped))
        return "\n".join(lines)

    def watch(self, every_transactions: Optional[int] = None) -> str:
        """One frame of the live monitoring dashboard.

        The first call attaches an in-memory
        :class:`~repro.telemetry.CounterSampler` to the board (cadence
        ``every_transactions``, default
        :data:`~repro.telemetry.DEFAULT_EVERY_TRANSACTIONS`); every call
        takes a fresh sample — so polling ``watch`` *is* the periodic
        readout — and renders the series so far: windowed miss-ratio and
        utilization sparklines, span profile, wrap flags.
        """
        from repro.telemetry import CounterSampler, MemorySink, TelemetrySeries

        board = self._require_board()
        attached = False
        if board.telemetry is None:
            board.attach_telemetry(
                CounterSampler(
                    MemorySink(),
                    every_transactions=every_transactions,
                    label=board.name,
                )
            )
            self._log.append("watch: telemetry sampler attached")
            attached = True
        sampler = board.telemetry
        records = getattr(sampler.sink, "records", None)
        if records is None:
            return (
                "board sampler writes to an external sink; "
                "use 'python -m repro.cli telemetry report' on its output"
            )
        sampler.sample(board)
        series = TelemetrySeries(records)
        lines = [f"=== watch: board {board.name!r} ==="]
        if attached:
            lines.append(
                f"(sampler attached, every "
                f"{sampler.every_transactions} transactions; dashboard "
                f"fills as traffic runs)"
            )
        lines.append(f"emulated wall-clock: {board.emulated_seconds:.3f}s")
        lines.append(series.dashboard())
        return "\n".join(lines)

    def self_test(self) -> "SelfTestResult":
        """Run the power-on diagnostic (resets the board's statistics)."""
        from repro.memories.selftest import run_self_test

        result = run_self_test(self._require_board())
        self._log.append(
            "self-test " + ("passed" if result.passed else "FAILED")
        )
        return result

    # ------------------------------------------------------------------ #
    # Textual command interface
    # ------------------------------------------------------------------ #

    def execute(self, command_line: str) -> str:
        """Run one console command; returns its output text.

        Supported commands: ``stats``, ``report``, ``reset``, ``describe``,
        ``log``, ``self-test``, ``protocol <node>``, ``overflows``,
        ``verify``, ``engines``, ``faults``,
        ``watch [every_transactions]``, ``supervise <run_dir>``,
        ``service <service_root>``, ``timeline <run_dir>``.
        """
        command = command_line.strip().lower()
        if command == "self-test":
            return self.self_test().render()
        if command.startswith("watch"):
            parts = command.split()
            every = int(parts[1]) if len(parts) > 1 else None
            return self.watch(every)
        if command.startswith("supervise"):
            # Needs no board: reads the run directory's journal only.
            parts = command_line.strip().split()
            if len(parts) < 2:
                raise ConfigurationError("usage: supervise <run_dir>")
            from repro.supervisor import RunSupervisor, render_status

            supervisor = RunSupervisor.open(parts[1])
            try:
                self._log.append(f"supervise: inspected {parts[1]}")
                return render_status(supervisor.status())
            finally:
                supervisor.close()
        if command.startswith("service"):
            # Needs no board: reads the service root's manifest only.
            parts = command_line.strip().split()
            if len(parts) < 2:
                raise ConfigurationError("usage: service <service_root>")
            from repro.service import render_service_manifest

            self._log.append(f"service: inspected {parts[1]}")
            return render_service_manifest(parts[1])
        if command.startswith("timeline"):
            # Needs no board: pure function of the run directory's files.
            parts = command_line.strip().split()
            if len(parts) < 2:
                raise ConfigurationError("usage: timeline <run_dir>")
            from repro.obs import build_timeline, timeline_text

            self._log.append(f"timeline: inspected {parts[1]}")
            return timeline_text(build_timeline(parts[1]))
        if command == "faults":
            return self.resilience_report()
        if command == "verify":
            from repro.verify.machine import check_machine

            machine = self._emulation_firmware().machine
            report = check_machine(machine)
            self._log.append(f"verify: {report.summary()}")
            return report.render(verbose=True)
        if command == "engines":
            from repro.engines import decide_all

            board = self._require_board()
            lines = [f"=== engines: board {board.name!r} ==="]
            for decision in decide_all(board=board):
                verdict = "eligible" if decision.eligible else "REJECTED"
                lines.append(f"{decision.spec.name:8s} [{verdict}]")
                for finding in decision.report.findings:
                    lines.append(f"  {finding.render()}")
            self._log.append("engines: capability decisions rendered")
            return "\n".join(lines)
        if command.startswith("protocol"):
            parts = command.split()
            node_index = int(parts[1]) if len(parts) > 1 else 0
            firmware = self._emulation_firmware()
            try:
                node = firmware.nodes[node_index]
            except IndexError:
                raise ConfigurationError(
                    f"board has {len(firmware.nodes)} nodes; no node {node_index}"
                ) from None
            return node.protocol.render()
        if command == "overflows":
            wrapped = self.wrapped_counters()
            if not wrapped:
                return "no counters have wrapped"
            return "WRAPPED (values are modulo 2^40): " + ", ".join(wrapped)
        if command == "stats":
            return "\n".join(
                f"{k} {v}" for k, v in sorted(self.read_statistics().items())
            )
        if command == "report":
            return self.report()
        if command == "reset":
            self.reset_statistics()
            return "ok"
        if command == "describe":
            firmware = self._emulation_firmware()
            return firmware.machine.describe()
        if command == "log":
            return "\n".join(self._log)
        raise ConfigurationError(f"unknown console command {command_line!r}")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _refuse_unverified(self, machine: TargetMachine) -> None:
        """Raise when the machine's programming fails static verification."""
        from repro.verify.machine import check_machine

        report = check_machine(machine)
        if not report.ok:
            details = "\n".join(f.render() for f in report.errors)
            raise ConfigurationError(
                f"machine {machine.name!r} failed verification "
                f"(pass force=True to program it anyway):\n{details}"
            )

    def _require_board(self) -> MemoriesBoard:
        if self.board is None:
            raise ConfigurationError("no board attached; call power_up() first")
        return self.board

    def _emulation_firmware(self) -> CacheEmulationFirmware:
        board = self._require_board()
        firmware = board.firmware
        if not isinstance(firmware, CacheEmulationFirmware):
            raise ConfigurationError(
                "this operation requires cache-emulation firmware; "
                f"the board is running {type(firmware).__name__}"
            )
        return firmware
