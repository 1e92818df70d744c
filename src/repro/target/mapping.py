"""Mapping host CPUs onto emulated shared-cache nodes.

Section 2.1: MemorIES "can be configured to emulate up to 4 SMP nodes",
and the node controllers decide locality by the bus ID of the requesting
processor.  A :class:`TargetNodeSpec` binds one cache configuration to the
set of host CPUs whose traffic it absorbs; a :class:`TargetMachine` is the
complete board programming — a list of node specs partitioned into
*coherence groups* (Figure 4's multi-configuration mode runs several
groups side by side against the same reference stream).

Rules enforced here (the console refuses violating programmings):

* a spec's CPU list matches its config's ``procs_per_node``;
* within one coherence group no CPU belongs to two nodes (across groups
  overlap is the whole point — each group independently emulates the
  full machine);
* at most :data:`MAX_EMULATED_NODES` nodes fit on one board.

Machines serialise to JSON "programming files" via :meth:`TargetMachine.save`
and :meth:`TargetMachine.load`; loading re-validates everything.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.memories.config import CacheNodeConfig

#: The board instantiates at most four node controllers (Nodes A..D).
MAX_EMULATED_NODES = 4

#: Console labels for the four node controller slots.
NODE_LABELS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class TargetNodeSpec:
    """One emulated node: a cache configuration plus its local CPUs.

    Attributes:
        config: the emulated cache's configuration.
        cpus: host CPU bus IDs whose traffic is local to this node.
        group: coherence group index; nodes of the same group keep each
            other coherent, nodes of different groups never interact.
    """

    config: CacheNodeConfig
    cpus: Tuple[int, ...]
    group: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "cpus", tuple(int(cpu) for cpu in self.cpus))
        if not self.cpus:
            raise ConfigurationError("a node spec needs at least one CPU")
        if any(cpu < 0 for cpu in self.cpus):
            raise ConfigurationError(
                f"negative CPU id in {self.cpus}; bus IDs are non-negative"
            )
        if len(set(self.cpus)) != len(self.cpus):
            raise ConfigurationError(f"duplicate CPU ids in {self.cpus}")
        if self.group < 0:
            raise ConfigurationError(f"negative coherence group {self.group}")
        if len(self.cpus) != self.config.procs_per_node:
            raise ConfigurationError(
                f"config declares {self.config.procs_per_node} processors "
                f"per node but the spec maps {len(self.cpus)} CPUs"
            )

    def to_dict(self) -> dict:
        """JSON-compatible form (used by programming files)."""
        return {
            "config": asdict(self.config),
            "cpus": list(self.cpus),
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TargetNodeSpec":
        try:
            config = CacheNodeConfig(**data["config"])
            cpus = tuple(data["cpus"])
            group = int(data.get("group", 0))
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed node spec in programming file: {exc}"
            ) from exc
        return cls(config=config, cpus=cpus, group=group)


@dataclass(frozen=True)
class TargetMachine:
    """A complete board programming: up to four node specs.

    Attributes:
        nodes: the emulated nodes, in board slot order (A..D).
        name: console label (also becomes the board's name).
    """

    nodes: Tuple[TargetNodeSpec, ...]
    name: str = "target"

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ConfigurationError("a target machine needs at least one node")
        if len(self.nodes) > MAX_EMULATED_NODES:
            raise ConfigurationError(
                f"the board has {MAX_EMULATED_NODES} node controllers; "
                f"cannot program {len(self.nodes)} nodes"
            )
        seen: Dict[int, Dict[int, int]] = {}
        for index, spec in enumerate(self.nodes):
            owned = seen.setdefault(spec.group, {})
            for cpu in spec.cpus:
                if cpu in owned:
                    raise ConfigurationError(
                        f"CPU {cpu} mapped to nodes {owned[cpu]} and {index} "
                        f"of the same coherence group {spec.group}"
                    )
                owned[cpu] = index

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def groups(self) -> Dict[int, List[int]]:
        """Coherence group -> node indices, in slot order."""
        grouped: Dict[int, List[int]] = {}
        for index, spec in enumerate(self.nodes):
            grouped.setdefault(spec.group, []).append(index)
        return grouped

    def node_for_cpu(self, cpu: int, group: int = 0) -> int:
        """Index of the node owning ``cpu`` within ``group``, or -1."""
        for index, spec in enumerate(self.nodes):
            if spec.group == group and cpu in spec.cpus:
                return index
        return -1

    def all_cpus(self) -> Tuple[int, ...]:
        """Every mapped host CPU, ascending, without duplicates."""
        cpus = set()
        for spec in self.nodes:
            cpus.update(spec.cpus)
        return tuple(sorted(cpus))

    def describe(self) -> str:
        """Multi-line console description of the programming."""
        n_groups = len(self.groups())
        lines = [
            f"target {self.name!r}: {len(self.nodes)} node(s), "
            f"{n_groups} coherence group(s), CPUs {_cpu_ranges(self.all_cpus())}"
        ]
        for index, spec in enumerate(self.nodes):
            label = NODE_LABELS[index]
            lines.append(
                f"  node {label} (group {spec.group}): "
                f"CPUs {_cpu_ranges(spec.cpus)}  {spec.config.describe()}"
            )
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Stable digest of the complete programming.

        Checkpoint files carry this so a restore into a board programmed
        with a *different* machine is refused outright instead of silently
        mis-replaying (the node counts may match while geometry differs).
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        # Computed once per machine: the machine, its node specs and their
        # cache configs are frozen dataclasses of ints, strings and tuples,
        # so the programming cannot change after construction.
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # Programming files
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """JSON-compatible programming-file structure."""
        return {
            "name": self.name,
            "nodes": [spec.to_dict() for spec in self.nodes],
        }

    def save(self, path: Union[str, Path]) -> None:
        """Write the programming file the console would upload."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def from_dict(cls, data: dict) -> "TargetMachine":
        """Rebuild (and re-validate) a machine from its dict form."""
        try:
            name = str(data.get("name", "target"))
            node_entries = list(data["nodes"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigurationError(
                f"malformed programming file: {exc}"
            ) from exc
        nodes = tuple(TargetNodeSpec.from_dict(entry) for entry in node_entries)
        return cls(nodes=nodes, name=name)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TargetMachine":
        """Read a programming file; re-validates every rule."""
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"malformed programming file {path}: {exc}"
            ) from exc
        return cls.from_dict(data)


def _cpu_ranges(cpus: Sequence[int]) -> str:
    """Compact rendering of a CPU list: (0, 1, 2, 3, 7) -> '0-3,7'."""
    if not cpus:
        return "-"
    ordered = sorted(cpus)
    parts: List[str] = []
    start = previous = ordered[0]
    for cpu in ordered[1:]:
        if cpu == previous + 1:
            previous = cpu
            continue
        parts.append(str(start) if start == previous else f"{start}-{previous}")
        start = previous = cpu
    parts.append(str(start) if start == previous else f"{start}-{previous}")
    return ",".join(parts)
