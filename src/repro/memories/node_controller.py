"""One emulated shared-cache node (an SMP node controller FPGA).

Each of the board's four node controllers runs the cache-emulation firmware
for one emulated node: it receives the filtered bus-transaction stream, and
for every transaction applies its loaded protocol table to the SDRAM tag/state
directory — as a *local* operation when the requesting CPU belongs to this
node, or as a *remote* operation when a peer node of the same coherence group
issued it (keeping multiple emulated caches coherent, Section 2.1/2.2).

Besides maintaining the directory, the controller attributes every local L2
miss to the source that satisfies it in the target machine — another L2
(modified/shared intervention, taken from the real bus's combined snoop
response), the emulated cache itself, or memory — which is exactly the
Figure 12 breakdown.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.bus.transaction import BusCommand, SnoopResponse
from repro.common.errors import EmulationError
from repro.memories.cache_model import TagStateDirectory
from repro.memories.config import CacheNodeConfig
from repro.memories.counters import CounterBank
from repro.memories.protocol_table import (
    CacheOp,
    LineState,
    ProtocolTable,
    load_protocol,
)
from repro.memories.replacement import make_policy
from repro.memories.sdram import SdramModel
from repro.memories.tx_buffer import TransactionBuffer


class NodeController:
    """Cache-emulation firmware for one node controller FPGA.

    Args:
        index: controller position on the board (0..3, i.e. Nodes A..D).
        config: the emulated cache's configuration.
        cpus: host CPU IDs local to this node.
        group: coherence group (see :mod:`repro.target.mapping`).
        protocol: protocol table; defaults to the one named in ``config``.
        rng: generator for the random replacement policy, if configured.
        buffer: transaction buffer pacing the SDRAM; a default 512-entry
            buffer is created when omitted.
        sdram: optional bank-level SDRAM timing model
            (:class:`repro.memories.sdram.SdramModel`); when present each
            directory operation is charged its address-dependent cost
            instead of the constant 42%-bandwidth service time.
    """

    def __init__(
        self,
        index: int,
        config: CacheNodeConfig,
        cpus: Sequence[int],
        group: int = 0,
        protocol: Optional[ProtocolTable] = None,
        rng: Optional[np.random.Generator] = None,
        buffer: Optional[TransactionBuffer] = None,
        sdram: Optional["SdramModel"] = None,
        ecc: bool = False,
        scrub_interval: Optional[float] = None,
    ) -> None:
        self.index = index
        self.config = config
        self.cpus = frozenset(cpus)
        self.group = group
        self.protocol = protocol if protocol is not None else load_protocol(
            config.protocol
        )
        policy = make_policy(config.replacement, config.assoc, rng)
        self.ecc = ecc
        self.scrubber = None
        self.resilience = CounterBank(prefix=f"node{index}.resilience")
        if ecc:
            from repro.memories.ecc import (
                DEFAULT_SCRUB_INTERVAL,
                DirectoryScrubber,
                EccTagStateDirectory,
            )

            self.directory = EccTagStateDirectory(config, policy)
            self.scrubber = DirectoryScrubber(
                self.directory,
                counters=self.resilience,
                interval_cycles=(
                    DEFAULT_SCRUB_INTERVAL
                    if scrub_interval is None
                    else scrub_interval
                ),
            )
        else:
            self.directory = TagStateDirectory(config, policy)
        self.buffer = buffer if buffer is not None else TransactionBuffer()
        self.sdram = sdram
        self.counters = CounterBank(prefix=f"node{index}")
        self._table = self.protocol.raw_table()
        self._fill = self.protocol.fill

    def _offer(self, address: int, now_cycle: float) -> bool:
        """Admit one directory operation, pricing it via the SDRAM model."""
        if self.sdram is None:
            return self.buffer.offer(now_cycle)
        amap = self.directory.amap
        entry_address = amap.set_index(address) * self.config.assoc * 8
        cost = self.sdram.access_cycles(entry_address, now_cycle)
        return self.buffer.offer(now_cycle, cost)

    # ------------------------------------------------------------------ #
    # Local operations
    # ------------------------------------------------------------------ #

    def process_local(
        self,
        command: BusCommand,
        address: int,
        snoop_response: SnoopResponse,
        now_cycle: float,
        peers: Sequence["NodeController"],
    ) -> bool:
        """Handle a tenure issued by one of this node's CPUs.

        Returns False when the transaction buffer was full and the operation
        had to be dropped (the board will post a bus retry).
        """
        if not self._offer(address, now_cycle):
            return False

        counters = self.counters
        directory = self.directory
        set_index, tag, way = directory.probe(address)
        if way >= 0 and self.ecc:
            way = self._verify_probed(address, set_index, way)

        if command is BusCommand.READ:
            counters.increment("local.read")
            op = CacheOp.LOCAL_READ
        elif command is BusCommand.RWITM:
            counters.increment("local.write")
            op = CacheOp.LOCAL_WRITE
        elif command is BusCommand.DCLAIM:
            counters.increment("local.write")
            counters.increment("local.upgrade")
            op = CacheOp.LOCAL_WRITE
        elif command is BusCommand.CASTOUT:
            counters.increment("local.castout")
            op = CacheOp.LOCAL_CASTOUT
        else:
            raise EmulationError(f"non-memory command {command.name} reached a node")

        kind = _OP_KIND[op]
        fetches_data = command in (BusCommand.READ, BusCommand.RWITM)

        if way >= 0:
            state = LineState(directory.state_at(set_index, way))
            transition = self._table[(int(op), int(state))]
            counters.increment(f"hit.{kind}")
            counters.increment(f"hit_state.{state.name}")
            if transition.next_state is LineState.INVALID:
                directory.invalidate(set_index, way)
            else:
                directory.set_state(set_index, way, int(transition.next_state))
                directory.touch(set_index, way)
            # A write hit on a non-exclusive line (Shared, or dirty-shared
            # Owned) must invalidate peer copies — the target machine's
            # inter-node upgrade.  Owned matters: after a remote read
            # demotes Modified to Owned, peers hold Shared copies, and a
            # write hit that skipped the probe would leave them stale
            # (found by the repro.verify model checker's SWMR invariant).
            if op is CacheOp.LOCAL_WRITE and state in (
                LineState.SHARED, LineState.OWNED
            ):
                for peer in peers:
                    peer.process_remote(CacheOp.REMOTE_WRITE, address, now_cycle)
            if fetches_data:
                self._attribute_satisfaction(snoop_response, hit=True)
            return True

        # Miss path.
        counters.increment(f"miss.{kind}")
        if op is CacheOp.LOCAL_CASTOUT:
            # Non-inclusive caches receive castouts for lines they no longer
            # hold (Section 3.4); allocate write-back data in a dirty state.
            counters.increment("inclusion.castout_miss")
            fill_state = self._fill.write
        elif op is CacheOp.LOCAL_WRITE:
            for peer in peers:
                peer.process_remote(CacheOp.REMOTE_WRITE, address, now_cycle)
            fill_state = self._fill.write
        else:  # LOCAL_READ
            shared_elsewhere = False
            for peer in peers:
                held, dirty = peer.process_remote(
                    CacheOp.REMOTE_READ, address, now_cycle
                )
                if held:
                    shared_elsewhere = True
                if dirty:
                    counters.increment("intervention.from_peer")
            fill_state = (
                self._fill.read_shared if shared_elsewhere else self._fill.read_alone
            )

        evicted = directory.install(set_index, tag, int(fill_state))
        counters.increment(f"fill.{fill_state.name}")
        if evicted is not None:
            _victim_addr, victim_state = evicted
            if LineState(victim_state).is_dirty:
                counters.increment("evict.dirty")
            else:
                counters.increment("evict.clean")
        if fetches_data:
            self._attribute_satisfaction(snoop_response, hit=False)
        return True

    def _verify_probed(self, address: int, set_index: int, way: int) -> int:
        """ECC demand-check of a probed line; returns the post-repair way.

        Real SECDED SDRAM verifies every word it reads.  A corrected flip
        may change the line's tag back (so the probed hit was false), and
        an uncorrectable word drops the line — both cases re-probe so the
        caller always operates on a verified view.
        """
        from repro.memories.ecc import EccOutcome

        outcome = self.directory.verify_line(set_index, way, self.resilience)
        if outcome is EccOutcome.CLEAN:
            return way
        _set_index, _tag, way = self.directory.probe(address)
        return way

    def ecc_self_check(self) -> int:
        """Sweep the whole directory through ECC; returns uncorrectable lines.

        The supervisor's per-segment health check: a node reporting
        uncorrectable directory corruption here is a candidate for being
        taken offline.  The sweep is strictly read-only — no counters
        move, no lines drop, no repairs happen (that stays with the
        patrol scrubber) — so running it never perturbs bit-identity
        with an unsupervised replay.
        """
        if not self.ecc:
            return 0
        return self.directory.self_check()

    def can_accept(self, now_cycle: float) -> bool:
        """Whether this controller could admit one more operation now."""
        return self.buffer.can_accept(now_cycle)

    def tick(self, now_cycle: float) -> None:
        """Advance background machinery (the ECC patrol scrubber)."""
        if self.scrubber is not None:
            self.scrubber.tick(now_cycle)

    def resync_address(self, address: int, now_cycle: float) -> bool:
        """Conservatively resynchronise after a missed (lost) bus tenure.

        A passive monitor that skipped a cycle cannot know what the lost
        tenure did to this line, so the only safe repair is to invalidate
        any copy and let the next reference refill it — over-counting
        misses slightly rather than silently diverging from the host.
        Returns True when a line was dropped.
        """
        self.resilience.increment("resync.checked")
        directory = self.directory
        set_index, _tag, way = directory.probe(address)
        if way >= 0 and self.ecc:
            way = self._verify_probed(address, set_index, way)
        if way < 0:
            return False
        directory.invalidate(set_index, way)
        self.resilience.increment("resync.invalidated")
        return True

    def _attribute_satisfaction(
        self, snoop_response: SnoopResponse, hit: bool
    ) -> None:
        """Figure 12 accounting: where did this L2 miss get its data?"""
        counters = self.counters
        if snoop_response is SnoopResponse.MODIFIED:
            counters.increment("satisfied.mod_int")
        elif snoop_response is SnoopResponse.SHARED:
            counters.increment("satisfied.shr_int")
        elif hit:
            counters.increment("satisfied.l3")
        else:
            counters.increment("satisfied.memory")

    # ------------------------------------------------------------------ #
    # Remote operations
    # ------------------------------------------------------------------ #

    def process_remote(
        self,
        op: CacheOp,
        address: int,
        now_cycle: float,
    ) -> tuple[bool, bool]:
        """Handle a tenure from another node of the same coherence group.

        Returns (held a valid copy, supplied dirty data).  Remote probes
        consume directory bandwidth too, so they pass through the
        transaction buffer; an overflowing remote probe is dropped silently
        (it carries no data in the emulated machine).
        """
        if op is CacheOp.REMOTE_READ:
            self.counters.increment("remote.read")
        else:
            self.counters.increment("remote.write")
        if not self._offer(address, now_cycle):
            return False, False

        directory = self.directory
        set_index, _tag, way = directory.probe(address)
        if way >= 0 and self.ecc:
            way = self._verify_probed(address, set_index, way)
        if way < 0:
            return False, False
        state = LineState(directory.state_at(set_index, way))
        transition = self._table[(int(op), int(state))]
        supplied_dirty = transition.is_hit and state.is_dirty
        if supplied_dirty:
            self.counters.increment("remote.supplied_dirty")
        if transition.next_state is LineState.INVALID:
            directory.invalidate(set_index, way)
            self.counters.increment("remote.invalidated")
        else:
            directory.set_state(set_index, way, int(transition.next_state))
        return True, supplied_dirty

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #

    def references(self) -> int:
        """Local data references (reads + writes; castouts excluded)."""
        counters = self.counters
        return counters.read("local.read") + counters.read("local.write")

    def misses(self) -> int:
        """Local read + write misses."""
        counters = self.counters
        return counters.read("miss.read") + counters.read("miss.write")

    def miss_ratio(self) -> float:
        """Emulated-cache miss ratio over local data references."""
        references = self.references()
        if references == 0:
            return 0.0
        return self.misses() / references

    def satisfied_breakdown(self) -> dict:
        """Figure 12 categories as fractions of data-fetching references."""
        counters = self.counters
        categories = {
            "memory": counters.read("satisfied.memory"),
            "l3": counters.read("satisfied.l3"),
            "mod_int": counters.read("satisfied.mod_int"),
            "shr_int": counters.read("satisfied.shr_int"),
        }
        total = sum(categories.values())
        if total == 0:
            return {name: 0.0 for name in categories}
        return {name: value / total for name, value in categories.items()}

    def buffer_snapshot(self) -> dict:
        """Per-node transaction-buffer observables for board statistics.

        Surfacing ``high_water`` and ``rejected`` is what lets an operator
        tell *why* the board posted retries (Section 3.3's overflow case)
        instead of discovering it post-hoc from skewed miss ratios.
        """
        stats = self.buffer.stats
        prefix = f"node{self.index}.buffer"
        return {
            f"{prefix}.accepted": stats.accepted,
            f"{prefix}.rejected": stats.rejected,
            f"{prefix}.high_water": stats.high_water,
        }

    def reset(self) -> None:
        """Console re-initialisation: clear directory, buffer and counters."""
        self.directory.clear()
        self.buffer.reset()
        self.counters.reset()
        self.resilience.reset()
        if self.scrubber is not None:
            self.scrubber.reset()

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Mutable controller state for board checkpoints."""
        state = {
            "directory": self.directory.state_dict(),
            "buffer": self.buffer.state_dict(),
            "counters": self.counters.state_dict(),
            "resilience": self.resilience.state_dict(),
        }
        if self.sdram is not None:
            state["sdram"] = self.sdram.state_dict()
        if self.scrubber is not None:
            state["scrubber"] = self.scrubber.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a checkpointed controller state."""
        self.directory.load_state_dict(state["directory"])
        self.buffer.load_state_dict(state["buffer"])
        self.counters.load_state_dict(state["counters"])
        self.resilience.load_state_dict(state.get("resilience", {}))
        if self.sdram is not None and "sdram" in state:
            self.sdram.load_state_dict(state["sdram"])
        if self.scrubber is not None and "scrubber" in state:
            self.scrubber.load_state_dict(state["scrubber"])


_OP_KIND = {
    CacheOp.LOCAL_READ: "read",
    CacheOp.LOCAL_WRITE: "write",
    CacheOp.LOCAL_CASTOUT: "castout",
}
