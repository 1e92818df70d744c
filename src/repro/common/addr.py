"""Physical-address arithmetic shared by all cache and directory models.

Every cache in this reproduction — the host's L1/L2, the emulated L3 node
directories, the NUMA sparse directory, the hot-spot profiler — slices a
physical address the same way: an offset within a cache line, a set index,
and a tag.  :class:`AddressMap` captures one such slicing for a given
(line size, number of sets) pair and performs the bit manipulation in one
place, so the slicing logic is tested once.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.common.errors import ValidationError


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Exact integer log2 of a power of two.

    Raises:
        ValidationError: if ``value`` is not a positive power of two.
    """
    if not is_power_of_two(value):
        raise ValidationError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


@dataclass(frozen=True)
class AddressMap:
    """Splits physical addresses into (tag, set index, line offset).

    Attributes:
        line_size: cache line size in bytes; must be a power of two.
        num_sets: number of sets in the cache; must be a power of two.
        offset_bits: number of address bits covered by the line offset.
        index_bits: number of address bits covered by the set index.

    ``offset_bits`` and ``index_bits`` are derived once, when the map is
    built, because every cache lookup slices with them.  They are plain
    instance attributes, not dataclass fields, so equality, hashing and
    ``repr`` still see only the geometry.
    """

    line_size: int
    num_sets: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.line_size):
            raise ValidationError(f"line size {self.line_size} is not a power of two")
        if not is_power_of_two(self.num_sets):
            raise ValidationError(f"set count {self.num_sets} is not a power of two")
        object.__setattr__(self, "offset_bits", log2_int(self.line_size))
        object.__setattr__(self, "index_bits", log2_int(self.num_sets))

    def line_address(self, address: int) -> int:
        """The line-aligned address containing ``address``."""
        return address & ~(self.line_size - 1)

    def line_number(self, address: int) -> int:
        """Index of the cache line containing ``address`` (address >> offset)."""
        return address >> self.offset_bits

    def set_index(self, address: int) -> int:
        """Set the address maps to."""
        return (address >> self.offset_bits) & (self.num_sets - 1)

    def tag(self, address: int) -> int:
        """Tag bits of the address (everything above the set index)."""
        return address >> (self.offset_bits + self.index_bits)

    def rebuild(self, tag: int, set_index: int) -> int:
        """Reconstruct the line-aligned address from a (tag, set) pair.

        This is the inverse of :meth:`tag` / :meth:`set_index` up to line
        alignment, and is what a directory uses to name a victim line on
        eviction.
        """
        if not 0 <= set_index < self.num_sets:
            raise ValidationError(f"set index {set_index} out of range")
        return ((tag << self.index_bits) | set_index) << self.offset_bits


def align_down(address: int, granularity: int) -> int:
    """Align ``address`` down to a power-of-two ``granularity``."""
    if not is_power_of_two(granularity):
        raise ValidationError(f"granularity {granularity} is not a power of two")
    return address & ~(granularity - 1)


def page_number(address: int, page_size: int = 4096) -> int:
    """Page index of an address; used by the hot-spot profiler firmware."""
    if not is_power_of_two(page_size):
        raise ValidationError(f"page size {page_size} is not a power of two")
    return address >> log2_int(page_size)
