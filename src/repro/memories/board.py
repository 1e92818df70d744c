"""The MemorIES board: chassis, firmware dispatch, and trace replay.

:class:`MemoriesBoard` is the self-contained board of Figure 5.  It bundles
the address-filter FPGA, the global events counter FPGA and a *firmware*
object — the programmable part.  The shipped cache-emulation firmware
(:class:`CacheEmulationFirmware`) instantiates up to four node controllers
from a :class:`~repro.target.mapping.TargetMachine` programming; the
alternate firmware images of Section 2.3 live in
:mod:`repro.memories.firmware`.

The board can be used two ways, mirroring the paper:

* **Live**, plugged into a running :class:`~repro.host.smp.HostSMP` via
  ``host.plug_in(board)`` — it then observes every bus tenure in real time.
* **Offline**, replaying a collected :class:`~repro.bus.trace.BusTrace`
  with :meth:`MemoriesBoard.replay` ("a mechanism to collect traces for
  finer and repeatable off-line analysis", Section 1).

Time: the board keeps its own bus-cycle clock, advancing a configurable
number of cycles per observed tenure (2 busy cycles / assumed utilization).
``emulated_seconds`` is therefore the wall-clock time the real board would
have spent — the quantity Tables 3 and 4 compare against software
simulators.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
)

if TYPE_CHECKING:
    from repro.telemetry.sampler import CounterSampler
    from repro.telemetry.spans import RunTrace

import numpy as np

from repro.bus.bus import ADDRESS_TENURE_CYCLES
from repro.bus.trace import BusTrace, iter_decoded
from repro.bus.transaction import (
    MAX_PROCESSOR_ID,
    BusCommand,
    BusTransaction,
    SnoopResponse,
)
from repro.common.errors import ConfigurationError, EmulationError
from repro.memories.address_filter import AddressFilter
from repro.memories.global_counter import GlobalEventsCounter
from repro.memories.node_controller import NodeController
from repro.memories.protocol_table import CacheOp
from repro.target.mapping import TargetMachine

#: The observed bus utilization regime from Section 3.3 ("always varied
#: between 2% to 20%"); the board's clock model defaults to the top of it.
DEFAULT_ASSUMED_UTILIZATION = 0.20


class Firmware(Protocol):
    """What a loadable FPGA firmware image must implement."""

    def process(
        self,
        cpu_id: int,
        command: BusCommand,
        address: int,
        snoop_response: SnoopResponse,
        now_cycle: float,
    ) -> bool:
        """Handle one filtered tenure; False requests a bus retry."""
        ...

    def snapshot(self) -> dict:
        """Counter snapshot for console statistics extraction."""
        ...

    def reset(self) -> None:
        """Re-initialise firmware state."""
        ...


class CacheEmulationFirmware:
    """The primary firmware: up to four emulated shared-cache nodes.

    Args:
        machine: the target-machine programming (node configs, CPU
            partitioning, coherence groups).
        seed: seed for any random replacement policies.
        ecc: protect every node's SDRAM directory with SECDED ECC and a
            background patrol scrubber (see :mod:`repro.memories.ecc`).
            Off by default — the unprotected directory is bit-identical to
            the original board model.
        scrub_interval: scrubber cadence override in bus cycles (only
            meaningful with ``ecc``).
    """

    def __init__(
        self,
        machine: TargetMachine,
        seed: int = 0,
        ecc: bool = False,
        scrub_interval: Optional[float] = None,
    ) -> None:
        self.machine = machine
        self.ecc = ecc
        self.nodes: List[NodeController] = []
        rng = np.random.default_rng(seed)
        self._rng = rng
        for index, spec in enumerate(machine.nodes):
            self.nodes.append(
                NodeController(
                    index=index,
                    config=spec.config,
                    cpus=spec.cpus,
                    group=spec.group,
                    rng=rng,
                    ecc=ecc,
                    scrub_interval=scrub_interval,
                )
            )
        # Nodes taken out of service by the degradation ladder (see
        # offline_node); excluded from routing, ticks and resyncs.
        self.offline: set = set()
        # Pre-computed routing: per group, cpu -> local controller, and each
        # controller's peer list within the group.
        self._groups: List[Tuple[Dict[int, NodeController], Dict[int, Tuple[NodeController, ...]], Tuple[NodeController, ...]]] = []
        self._rebuild_groups()

    def _rebuild_groups(self) -> None:
        """Recompute routing over the nodes still in service."""
        groups: List[Tuple[Dict[int, NodeController], Dict[int, Tuple[NodeController, ...]], Tuple[NodeController, ...]]] = []
        for group, indices in self.machine.groups().items():
            controllers = [
                self.nodes[i] for i in indices if i not in self.offline
            ]
            if not controllers:
                continue
            local_by_cpu: Dict[int, NodeController] = {}
            peers_of: Dict[int, Tuple[NodeController, ...]] = {}
            for controller in controllers:
                for cpu in controller.cpus:
                    local_by_cpu[cpu] = controller
                peers_of[controller.index] = tuple(
                    c for c in controllers if c is not controller
                )
            groups.append((local_by_cpu, peers_of, tuple(controllers)))
        self._groups = groups

    def offline_node(self, index: int) -> None:
        """Take one emulated node out of service (degraded-mode operation).

        The node's counters freeze at their current values (they stay in
        statistics snapshots — the history up to the failure is still
        real data); its CPUs fall through to the unmapped-master path, so
        their traffic keeps driving coherence on the surviving nodes, the
        same way an uninstantiated target node's would.  Idempotent.
        """
        if not 0 <= index < len(self.nodes):
            raise ConfigurationError(
                f"cannot offline node {index}; board has {len(self.nodes)}"
            )
        if index in self.offline:
            return
        self.offline.add(index)
        self._rebuild_groups()

    def process(
        self,
        cpu_id: int,
        command: BusCommand,
        address: int,
        snoop_response: SnoopResponse,
        now_cycle: float,
    ) -> bool:
        # Admission pre-check: a refusal must be side-effect free so the bus
        # master can re-issue the tenure and have it processed exactly once.
        # Every local controller involved is checked *before* any directory
        # or counter state changes; only the full buffers account the
        # rejection.  (Remote probes overflowing mid-processing are still
        # dropped silently — they carry no data in the emulated machine.)
        rejected = False
        for local_by_cpu, _peers_of, _controllers in self._groups:
            local = local_by_cpu.get(cpu_id)
            if local is not None and not local.can_accept(now_cycle):
                local.buffer.note_rejection()
                rejected = True
        if rejected:
            return False

        accepted = True
        for local_by_cpu, peers_of, controllers in self._groups:
            local = local_by_cpu.get(cpu_id)
            if local is None:
                # Unmapped master.  An unmapped *processor* (its emulated
                # node exists in the target but is not instantiated on this
                # board, e.g. nodes 5..8 of an 8-node target) contributes
                # coherence traffic: reads snoop, ownership claims
                # invalidate, but its castouts go to memory and touch
                # nothing.  An I/O bridge doing DMA is different: DMA writes
                # arrive as castout-style tenures and must invalidate stale
                # cached copies.
                if command is BusCommand.READ:
                    op = CacheOp.REMOTE_READ
                elif command is BusCommand.CASTOUT and cpu_id <= MAX_PROCESSOR_ID:
                    continue
                else:
                    op = CacheOp.REMOTE_WRITE
                for controller in controllers:
                    controller.process_remote(op, address, now_cycle)
            else:
                ok = local.process_local(
                    command, address, snoop_response, now_cycle,
                    peers_of[local.index],
                )
                if not ok:
                    accepted = False
        return accepted

    def snapshot(self) -> dict:
        merged: dict = {}
        for node in self.nodes:
            merged.update(node.counters.snapshot())
            merged.update(node.resilience.snapshot())
            merged.update(node.buffer_snapshot())
        return merged

    def wrapped_counters(self) -> Iterator[str]:
        """Qualified names of 40-bit counters that have overflowed."""
        for node in self.nodes:
            yield from node.counters.wrapped_counters()
            yield from node.resilience.wrapped_counters()

    def tick(self, now_cycle: float) -> None:
        """Advance background machinery (ECC patrol scrubbers)."""
        for node in self.nodes:
            if node.index not in self.offline:
                node.tick(now_cycle)

    def tick_active(self) -> bool:
        """Whether :meth:`tick` currently does any work.

        The compiled replay engine cannot interleave time-driven machinery
        (the ECC patrol scrubber) between tenures, so the capability prover
        asks this hint and routes the board to the scalar path whenever any
        in-service node has a scrubber.  With none, per-tenure ticks are
        pure no-ops and skipping them is bit-exact.
        """
        return any(
            node.scrubber is not None
            for node in self.nodes
            if node.index not in self.offline
        )

    def resync_address(self, address: int, now_cycle: float) -> int:
        """Recover from a lost snoop: conservatively resync every node.

        Returns how many nodes dropped a (suspect) copy of the line.
        """
        dropped = 0
        for node in self.nodes:
            if node.index in self.offline:
                continue
            if node.resync_address(address, now_cycle):
                dropped += 1
        return dropped

    def reset(self) -> None:
        for node in self.nodes:
            node.reset()
        if self.offline:
            self.offline.clear()
            self._rebuild_groups()

    def state_dict(self) -> dict:
        """Mutable firmware state for board checkpoints."""
        return {
            "rng": self._rng.bit_generator.state,
            "offline": sorted(self.offline),
            "nodes": [node.state_dict() for node in self.nodes],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a checkpointed firmware state.

        Raises:
            EmulationError: when the checkpoint's node count does not match
                this firmware's programming.
        """
        nodes = state["nodes"]
        if len(nodes) != len(self.nodes):
            raise EmulationError(
                f"checkpoint has {len(nodes)} nodes; firmware has "
                f"{len(self.nodes)}"
            )
        self._rng.bit_generator.state = state["rng"]
        offline = set(state.get("offline", ()))
        if offline != self.offline:
            self.offline = offline
            self._rebuild_groups()
        for node, node_state in zip(self.nodes, nodes):
            node.load_state_dict(node_state)


class MemoriesBoard:
    """The assembled board (Figure 7's physical block diagram, in software).

    Args:
        firmware: the loaded firmware image; pass a
            :class:`CacheEmulationFirmware` for cache studies or one of the
            images in :mod:`repro.memories.firmware`.
        bus_hz: host bus clock (100 MHz on the S7A).
        assumed_utilization: bus utilization used to advance the board clock
            per tenure — sets how many wall-clock seconds a replayed trace
            represents.
        name: console label.
    """

    def __init__(
        self,
        firmware: Firmware,
        bus_hz: int = 100_000_000,
        assumed_utilization: float = DEFAULT_ASSUMED_UTILIZATION,
        name: str = "memories",
    ) -> None:
        if not 0.0 < assumed_utilization <= 1.0:
            raise ConfigurationError(
                f"utilization {assumed_utilization} outside (0, 1]"
            )
        self.firmware = firmware
        self.bus_hz = bus_hz
        self.name = name
        self.address_filter = AddressFilter()
        self.global_counter = GlobalEventsCounter()
        self.cycles_per_tenure = ADDRESS_TENURE_CYCLES / assumed_utilization
        self.now_cycle = 0.0
        self.retries_posted = 0
        self.snoop_losses = 0
        # Degraded-mode accounting (repro.supervisor): trace segments the
        # run skipped because their payload failed CRC, and the records
        # those segments would have replayed.
        self.segments_quarantined = 0
        self.records_skipped = 0
        # Background-machinery hook (the ECC patrol scrubber); optional so
        # alternate firmware images need not implement it.
        self._firmware_tick = getattr(firmware, "tick", None)
        # Offline-replay engine preference.  True lets the engine registry
        # (repro.engines) pick the best engine whose capabilities this
        # board provably grants (normally the compiled engine);
        # False restricts selection to the scalar reference path (tests,
        # A/B benchmarks).  Correctness never depends on this flag — the
        # registry's capability prover handles that.
        self.batched_replay = True
        # Observability (repro.telemetry): with nothing attached the
        # dispatch path pays exactly one pointer test per tenure.
        self.telemetry: Optional["CounterSampler"] = None
        self.run_trace: Optional["RunTrace"] = None

    # ------------------------------------------------------------------ #
    # Telemetry attachment
    # ------------------------------------------------------------------ #

    def attach_telemetry(
        self,
        sampler: Optional["CounterSampler"] = None,
        run_trace: Optional["RunTrace"] = None,
    ) -> None:
        """Wire a counter sampler and/or a span trace into this board.

        The sampler observes every dispatched tenure (after its effects
        commit) and emits delta samples on its cadence; the run trace gets
        this board's cycle clock and wraps :meth:`replay` /
        :meth:`replay_words` in a ``replay`` span.  Both are pure
        observers: an instrumented replay's statistics are bit-identical
        to a bare one.
        """
        if sampler is not None:
            self.telemetry = sampler
        if run_trace is not None:
            run_trace.bind_clock(lambda: self.now_cycle)
            self.run_trace = run_trace

    def detach_telemetry(self) -> None:
        """Return the dispatch path to the uninstrumented fast path.

        The sampler's cadence cursor is checkpointed on the way out
        (:meth:`~repro.telemetry.sampler.CounterSampler.detach`): an armed
        countdown computed against *this* board's clock would otherwise
        survive the detachment and delay the first window after a later
        reattach — e.g. when the board keeps replaying uninstrumented, or
        the sampler moves to another board.
        """
        if self.telemetry is not None:
            self.telemetry.detach()
            self.telemetry = None
        if self.run_trace is not None:
            self.run_trace.bind_clock(None)
            self.run_trace = None

    # ------------------------------------------------------------------ #
    # Live operation (bus monitor protocol)
    # ------------------------------------------------------------------ #

    def observe(self, txn: BusTransaction) -> SnoopResponse:
        """Observe one live bus tenure (the Monitor protocol)."""
        return self._dispatch(
            txn.cpu_id, txn.command, txn.address, txn.snoop_response
        )

    def _dispatch(
        self,
        cpu_id: int,
        command: BusCommand,
        address: int,
        snoop_response: SnoopResponse,
    ) -> SnoopResponse:
        self.now_cycle += self.cycles_per_tenure
        now = self.now_cycle
        if self._firmware_tick is not None:
            self._firmware_tick(now)
        if not self.address_filter.admit(command, snoop_response, now):
            response = SnoopResponse.NULL
        else:
            self.global_counter.record(cpu_id, command, self.cycles_per_tenure)
            if self.firmware.process(cpu_id, command, address, snoop_response, now):
                response = SnoopResponse.NULL
            else:
                self.retries_posted += 1
                response = SnoopResponse.RETRY
        # Sample *after* the tenure commits so window boundaries land on
        # exact transaction counts regardless of replay chunking.  The
        # sampler's countdown is decremented inline (rather than through
        # maybe_sample) to keep the instrumented fast path at one integer
        # decrement and compare per tenure.
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry._countdown -= 1
            if telemetry._countdown <= 0:
                telemetry.on_countdown(self)
        return response

    # ------------------------------------------------------------------ #
    # Offline replay
    # ------------------------------------------------------------------ #

    def replay(self, trace: BusTrace) -> int:
        """Replay a collected trace through the board; returns records run."""
        return self.replay_words(trace.words)

    def replay_words(self, words: np.ndarray) -> int:
        """Replay packed 64-bit records (the fast path).

        With a run trace attached the whole replay is timed as one
        ``replay`` span (cycle-domain boundaries plus wall-clock
        duration); sampling cadence is handled per-tenure by the attached
        sampler, so chunked and monolithic replays of the same words
        produce the identical series.
        """
        if self.run_trace is None:
            return self._replay_words(words)
        with self.run_trace.span("replay", records=int(words.shape[0])):
            return self._replay_words(words)

    def _replay_words(self, words: np.ndarray) -> int:
        # Engine selection is the registry's job (repro.engines): the
        # static capability prover picks the best engine whose
        # bit-identity preconditions this board provably grants, honouring
        # the batched_replay preference flag.  No refusal logic lives here.
        from repro.engines.registry import select_board_engine

        return select_board_engine(self).replay(self, words)

    def _replay_words_scalar(self, words: np.ndarray) -> int:
        """Reference replay path: one :meth:`_dispatch` per record.

        The compiled engine (:mod:`repro.memories.compiled`) must stay
        bit-identical to this loop; the registry selects this path
        whenever a live ECC patrol scrubber must tick between tenures.
        """
        dispatch = self._dispatch
        command_of = _COMMANDS
        response_of = _RESPONSES
        for cpu_id, command, address, response in iter_decoded(words):
            dispatch(cpu_id, command_of[command], address, response_of[response])
        return int(words.shape[0])

    # ------------------------------------------------------------------ #
    # Console-facing state
    # ------------------------------------------------------------------ #

    @property
    def emulated_seconds(self) -> float:
        """Wall-clock seconds the real board would have spent so far."""
        return self.now_cycle / self.bus_hz

    def statistics(self) -> dict:
        """Merged counter snapshot across filter, global FPGA and firmware.

        Keys are sorted, so the dict is deterministic across runs and
        Python versions (golden tests and telemetry deltas rely on this),
        and ``board.wrapped_counters`` flags how many 40-bit counters have
        overflowed — a non-zero value means the absolute counts below are
        aliased and only wrap-aware deltas can be trusted.
        """
        merged = dict(self.address_filter.stats.snapshot())
        board_keys = {
            "board.retries_posted": self.retries_posted,
            "board.snoop_losses": self.snoop_losses,
            "board.wrapped_counters": len(self.wrapped_counters()),
            "board.segments_quarantined": self.segments_quarantined,
            "board.records_skipped": self.records_skipped,
            "board.offline_nodes": len(self.offline_nodes()),
        }
        for source, part in (
            ("global counter", self.global_counter.snapshot()),
            ("firmware", self.firmware.snapshot()),
            ("board", board_keys),
        ):
            for key, value in part.items():
                if key in merged:
                    raise EmulationError(
                        f"duplicate statistics key {key!r} from {source}: "
                        "a counter bank is shadowing another bank's counter"
                    )
                merged[key] = value
        return dict(sorted(merged.items()))

    def wrapped_counters(self) -> List[str]:
        """Qualified names of every overflowed 40-bit counter, sorted.

        Covers the global-events FPGA bank and (when the firmware exposes
        a ``wrapped_counters`` hook) every firmware counter bank.
        """
        wrapped = list(self.global_counter.counters.wrapped_counters())
        hook = getattr(self.firmware, "wrapped_counters", None)
        if hook is not None:
            wrapped.extend(hook())
        return sorted(wrapped)

    def note_segment_quarantined(self, records: int) -> None:
        """Account one skipped (quarantined) trace segment.

        The supervisor calls this instead of replaying a segment whose
        payload failed its CRC: the run continues, but the gap is explicit
        in ``board.segments_quarantined`` / ``board.records_skipped`` so
        downstream analysis knows the counters under-count reality.
        """
        self.segments_quarantined += 1
        self.records_skipped += int(records)

    def offline_node(self, index: int) -> None:
        """Take one emulated node out of service (degraded-mode operation).

        Delegates to the firmware's ``offline_node`` hook; see
        :meth:`CacheEmulationFirmware.offline_node` for semantics.

        Raises:
            ConfigurationError: when the loaded firmware image has no
                offline support, or ``index`` is out of range.
        """
        hook = getattr(self.firmware, "offline_node", None)
        if hook is None:
            raise ConfigurationError(
                "the loaded firmware image cannot offline nodes"
            )
        hook(index)

    def offline_nodes(self) -> List[int]:
        """Indices of nodes currently out of service, sorted."""
        return sorted(getattr(self.firmware, "offline", ()))

    def note_snoop_loss(self, address: int) -> int:
        """Record a snooped tenure the board failed to latch.

        A passive monitor that misses a bus cycle (the fault injector's
        ``drop_snoop`` site) cannot reconstruct what the lost tenure did, so
        the firmware conservatively invalidates any copy of the line and
        lets the next reference refill it.  Returns how many emulated nodes
        dropped a suspect copy; firmware images without a
        ``resync_address`` hook simply count the loss.
        """
        self.snoop_losses += 1
        resync = getattr(self.firmware, "resync_address", None)
        if resync is None:
            return 0
        return int(resync(address, self.now_cycle))

    def reset(self) -> None:
        """Power-up initialisation: clear everything, rewind the clock."""
        self.address_filter.reset()
        self.global_counter.reset()
        self.firmware.reset()
        self.now_cycle = 0.0
        self.retries_posted = 0
        self.snoop_losses = 0
        self.segments_quarantined = 0
        self.records_skipped = 0
        # Counters just dropped to zero; an attached sampler must forget
        # its previous snapshot or it would misread the drop as a wrap.
        if self.telemetry is not None:
            self.telemetry.reset()

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> dict:
        """Capture the board's complete mutable state.

        The returned dict is JSON-serialisable (see
        :mod:`repro.faults.checkpoint` for the file format) and, restored
        into an identically-programmed board, continues the emulation with
        statistics identical to an uninterrupted run.
        """
        state = {
            "version": 1,
            "name": self.name,
            "now_cycle": self.now_cycle,
            "retries_posted": self.retries_posted,
            "snoop_losses": self.snoop_losses,
            "segments_quarantined": self.segments_quarantined,
            "records_skipped": self.records_skipped,
            "address_filter": self.address_filter.state_dict(),
            "global_counter": self.global_counter.state_dict(),
        }
        firmware_state = getattr(self.firmware, "state_dict", None)
        if firmware_state is not None:
            state["firmware"] = firmware_state()
        if self.telemetry is not None:
            state["telemetry"] = self.telemetry.state_dict()
        return state

    def restore(self, state: dict) -> None:
        """Restore a :meth:`checkpoint` into this (identically-built) board.

        Raises:
            ConfigurationError: when the checkpoint carries firmware state
                but the loaded firmware cannot accept it.
        """
        self.now_cycle = float(state["now_cycle"])
        self.retries_posted = int(state["retries_posted"])
        self.snoop_losses = int(state.get("snoop_losses", 0))
        self.segments_quarantined = int(state.get("segments_quarantined", 0))
        self.records_skipped = int(state.get("records_skipped", 0))
        self.address_filter.load_state_dict(state["address_filter"])
        self.global_counter.load_state_dict(state["global_counter"])
        if "firmware" in state:
            load = getattr(self.firmware, "load_state_dict", None)
            if load is None:
                raise ConfigurationError(
                    "checkpoint contains firmware state but the loaded "
                    "firmware image has no load_state_dict()"
                )
            load(state["firmware"])
        # A checkpointed sampling cursor restores into an attached sampler
        # so the continued run extends its time series seamlessly; with no
        # sampler attached the cursor is simply dropped (telemetry is an
        # observer, never required state).
        if "telemetry" in state and self.telemetry is not None:
            self.telemetry.load_state_dict(state["telemetry"])


_COMMANDS = [BusCommand(i) for i in range(len(BusCommand))]
_RESPONSES = [SnoopResponse(i) for i in range(len(SnoopResponse))]


def board_for_machine(
    machine: TargetMachine,
    seed: int = 0,
    assumed_utilization: float = DEFAULT_ASSUMED_UTILIZATION,
    ecc: bool = False,
    scrub_interval: Optional[float] = None,
) -> MemoriesBoard:
    """Convenience: a board running cache-emulation firmware for ``machine``."""
    return MemoriesBoard(
        CacheEmulationFirmware(
            machine, seed=seed, ecc=ecc, scrub_interval=scrub_interval
        ),
        assumed_utilization=assumed_utilization,
        name=machine.name,
    )
