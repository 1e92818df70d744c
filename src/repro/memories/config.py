"""Cache-node configuration and validation against the hardware envelope.

Table 2 of the paper defines what one emulated shared-cache node can be:

====================================  ==========================
Cache size                            2 MB – 8 GB
Cache associativity                   direct mapped – 8-way
Processors per shared cache node      1 – 8
Cache line size                       128 B – 16 KB
====================================  ==========================

A :class:`CacheNodeConfig` captures one point in that space plus the
replacement policy and coherence-protocol table name.  Validation lives here
so every consumer (console software, node controllers, the trace-driven
simulator) enforces the same envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.addr import is_power_of_two
from repro.common.errors import ConfigurationError
from repro.common.units import GB, MB, format_size, parse_size

#: Hardware envelope from Table 2.
MIN_CACHE_SIZE = 2 * MB
MAX_CACHE_SIZE = 8 * GB
MIN_ASSOC = 1
MAX_ASSOC = 8
MIN_LINE_SIZE = 128
MAX_LINE_SIZE = 16 * 1024
MIN_PROCS_PER_NODE = 1
MAX_PROCS_PER_NODE = 8

#: Per-node on-board SDRAM (four 64 MB DIMMs per node controller).
NODE_SDRAM_BYTES = 256 * MB

#: Directory entry width in bytes: tag (up to ~33 bits) + state (4 bits) +
#: replacement metadata, rounded to the 8-byte SDRAM word the board uses.
DIRECTORY_ENTRY_BYTES = 8

REPLACEMENT_POLICIES = ("lru", "fifo", "random", "plru")

#: Protocol tables shipped with the board firmware (user tables may add more).
BUILTIN_PROTOCOLS = ("msi", "mesi", "moesi")


@dataclass(frozen=True)
class CacheNodeConfig:
    """Configuration of one emulated shared-cache node.

    Attributes:
        size: cache capacity in bytes (accepts strings via :meth:`create`).
        assoc: set associativity; 1 means direct mapped.
        line_size: line size in bytes.
        procs_per_node: host CPUs whose traffic this node absorbs.
        replacement: one of :data:`REPLACEMENT_POLICIES`.
        protocol: name of the coherence-protocol state table to load.
        name: optional label shown in console output.
    """

    size: int
    assoc: int = 4
    line_size: int = 128
    procs_per_node: int = 8
    replacement: str = "lru"
    protocol: str = "mesi"
    name: str = ""

    @classmethod
    def create(
        cls,
        size: int | str,
        assoc: int = 4,
        line_size: int | str = 128,
        procs_per_node: int = 8,
        replacement: str = "lru",
        protocol: str = "mesi",
        name: str = "",
    ) -> "CacheNodeConfig":
        """Build and validate a config, accepting "64MB"-style size strings."""
        config = cls(
            size=parse_size(size),
            assoc=assoc,
            line_size=parse_size(line_size),
            procs_per_node=procs_per_node,
            replacement=replacement,
            protocol=protocol,
            name=name,
        )
        config.validate()
        return config

    def validate(self) -> None:
        """Check this config against the Table 2 hardware envelope.

        Raises:
            ConfigurationError: on any violated constraint, with a message
                naming the offending parameter.
        """
        if not MIN_CACHE_SIZE <= self.size <= MAX_CACHE_SIZE:
            raise ConfigurationError(
                f"cache size {format_size(self.size)} outside "
                f"{format_size(MIN_CACHE_SIZE)}..{format_size(MAX_CACHE_SIZE)}"
            )
        if not MIN_LINE_SIZE <= self.line_size <= MAX_LINE_SIZE:
            raise ConfigurationError(
                f"line size {self.line_size} outside "
                f"{MIN_LINE_SIZE}..{MAX_LINE_SIZE}"
            )
        self.validate_geometry()

    def validate_geometry(self) -> None:
        """Structural checks only (no Table 2 min/max size limits).

        Scaled-down experiment configs (see :meth:`scaled`) use caches below
        the board's 2 MB minimum on purpose; they still need power-of-two
        geometry, a sane associativity and a directory that fits in SDRAM.
        """
        if not MIN_ASSOC <= self.assoc <= MAX_ASSOC:
            raise ConfigurationError(
                f"associativity {self.assoc} outside {MIN_ASSOC}..{MAX_ASSOC}"
            )
        if not is_power_of_two(self.line_size):
            raise ConfigurationError(
                f"line size {self.line_size} is not a power of two"
            )
        if not MIN_PROCS_PER_NODE <= self.procs_per_node <= MAX_PROCS_PER_NODE:
            raise ConfigurationError(
                f"processors per node {self.procs_per_node} outside "
                f"{MIN_PROCS_PER_NODE}..{MAX_PROCS_PER_NODE}"
            )
        if self.size % (self.assoc * self.line_size) != 0:
            raise ConfigurationError(
                f"size {format_size(self.size)} not divisible by "
                f"assoc*line_size ({self.assoc}*{self.line_size})"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(
                f"derived set count {self.num_sets} is not a power of two"
            )
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ConfigurationError(
                f"unknown replacement policy {self.replacement!r}; "
                f"expected one of {REPLACEMENT_POLICIES}"
            )
        if self.directory_bytes > NODE_SDRAM_BYTES:
            raise ConfigurationError(
                f"directory needs {format_size(self.directory_bytes)} but a node "
                f"controller has {format_size(NODE_SDRAM_BYTES)} of SDRAM; "
                f"use a larger line size"
            )

    @property
    def num_lines(self) -> int:
        """Total line frames in the cache."""
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets (lines / associativity)."""
        return self.num_lines // self.assoc

    @property
    def directory_bytes(self) -> int:
        """SDRAM the tag/state directory occupies for this geometry.

        This is the constraint that forces the 1 KB L3 line size in the
        paper's Figure 12 experiments: an 8 GB cache with 128 B lines would
        need a 512 MB directory, which does not fit in a node's 256 MB.
        """
        return self.num_lines * DIRECTORY_ENTRY_BYTES

    def scaled(self, factor: int) -> "CacheNodeConfig":
        """This config with capacity divided by ``factor`` (same geometry).

        Used by the experiment harness to shrink paper-scale caches and
        problem footprints by a common factor; skips Table 2's *minimum*
        size check because scaled-down caches legitimately fall below 2 MB.
        """
        if factor < 1 or self.size % factor != 0:
            raise ConfigurationError(f"cannot scale {format_size(self.size)} by {factor}")
        return replace(self, size=self.size // factor)

    def describe(self) -> str:
        """One-line human description, e.g. ``64MB 4-way 128B lru/mesi``."""
        assoc = "direct-mapped" if self.assoc == 1 else f"{self.assoc}-way"
        label = f"{self.name}: " if self.name else ""
        return (
            f"{label}{format_size(self.size)} {assoc} "
            f"{format_size(self.line_size)} lines, {self.replacement}/{self.protocol}"
        )
