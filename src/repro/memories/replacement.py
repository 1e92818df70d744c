"""Replacement policies for the emulated cache directories.

The board's SDRAM directory stores replacement metadata next to each tag
("state/Tag/LRU functions", Section 3.3).  Policies here operate on one
set's resident lines as parallel ``tags``/``states`` lists, which the
directory reads out of its arrays and writes back:

* ``lru``    — true least-recently-used (move-to-front lists).
* ``fifo``   — first-in first-out (insertion order, hits do not refresh).
* ``random`` — uniform random victim, reproducible via the board's RNG seed.
* ``plru``   — tree pseudo-LRU, the policy real SRAM tag arrays often use;
  requires a power-of-two associativity.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.common.addr import is_power_of_two
from repro.common.errors import ConfigurationError


class ReplacementPolicy:
    """Interface: stateless except for optional per-set metadata.

    A policy may reorder the set's lists on :meth:`touch` (LRU does), and
    then reports it through the new way it returns; it must install new
    lines via :meth:`insert`, returning the evicted ``(tag, state)`` pair
    when the set was full.
    """

    name = "abstract"
    needs_meta = False

    def make_meta(self) -> int:
        """Initial per-set metadata word (tree bits for PLRU)."""
        return 0

    def touch(self, tags: List[int], states: List[int], way: int, meta: int) -> Tuple[int, int]:
        """Record a hit on ``way``; returns (new way index, new meta)."""
        raise NotImplementedError

    def insert(
        self,
        tags: List[int],
        states: List[int],
        tag: int,
        state: int,
        assoc: int,
        meta: int,
    ) -> Tuple[Optional[Tuple[int, int]], int]:
        """Install a line; returns ((victim tag, victim state) or None, meta)."""
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """Move-to-front true LRU; the board's default."""

    name = "lru"

    def touch(self, tags, states, way, meta):
        if way != 0:
            tags.insert(0, tags.pop(way))
            states.insert(0, states.pop(way))
        return 0, meta

    def insert(self, tags, states, tag, state, assoc, meta):
        victim = None
        if len(tags) >= assoc:
            victim = (tags.pop(), states.pop())
        tags.insert(0, tag)
        states.insert(0, state)
        return victim, meta


class FifoPolicy(ReplacementPolicy):
    """Insertion-order eviction; hits do not refresh a line's position."""

    name = "fifo"

    def touch(self, tags, states, way, meta):
        return way, meta

    def insert(self, tags, states, tag, state, assoc, meta):
        victim = None
        if len(tags) >= assoc:
            victim = (tags.pop(), states.pop())
        tags.insert(0, tag)
        states.insert(0, state)
        return victim, meta


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection, seeded for reproducibility."""

    name = "random"

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0xD1CE)

    def touch(self, tags, states, way, meta):
        return way, meta

    def insert(self, tags, states, tag, state, assoc, meta):
        victim = None
        if len(tags) >= assoc:
            way = int(self._rng.integers(0, len(tags)))
            victim = (tags[way], states[way])
            tags[way] = tag
            states[way] = state
            return victim, meta
        tags.append(tag)
        states.append(state)
        return victim, meta


class PlruPolicy(ReplacementPolicy):
    """Tree pseudo-LRU over a power-of-two number of ways.

    The per-set metadata word holds one bit per internal tree node; bit
    value 0 means "the LRU side is the left subtree".  Way positions are
    stable (no list reordering), matching how a hardware tag array works.
    """

    name = "plru"
    needs_meta = True

    def __init__(self, assoc: int) -> None:
        if not is_power_of_two(assoc):
            raise ConfigurationError(
                f"plru requires a power-of-two associativity, got {assoc}"
            )
        self._assoc = assoc
        self._levels = assoc.bit_length() - 1

    def _update_on_access(self, way: int, meta: int) -> int:
        """Flip tree bits so the accessed way's path is marked MRU."""
        node = 1
        for level in range(self._levels - 1, -1, -1):
            bit = (way >> level) & 1
            # Point the node *away* from the way just used.
            if bit:
                meta &= ~(1 << node)
            else:
                meta |= 1 << node
            node = (node << 1) | bit
        return meta

    def victim_way(self, meta: int) -> int:
        """Follow the tree bits to the pseudo-LRU way."""
        node = 1
        way = 0
        for _ in range(self._levels):
            bit = (meta >> node) & 1
            way = (way << 1) | bit
            node = (node << 1) | bit
        return way

    def touch(self, tags, states, way, meta):
        return way, self._update_on_access(way, meta)

    def insert(self, tags, states, tag, state, assoc, meta):
        if len(tags) < assoc:
            way = len(tags)
            tags.append(tag)
            states.append(state)
            return None, self._update_on_access(way, meta)
        way = self.victim_way(meta)
        victim = (tags[way], states[way])
        tags[way] = tag
        states[way] = state
        return victim, self._update_on_access(way, meta)


def make_policy(
    name: str,
    assoc: int,
    rng: Optional[np.random.Generator] = None,
) -> ReplacementPolicy:
    """Instantiate a replacement policy by its configuration name.

    Raises:
        ConfigurationError: unknown policy name, or plru with a
            non-power-of-two associativity.
    """
    name = name.lower()
    if name == "lru":
        return LruPolicy()
    if name == "fifo":
        return FifoPolicy()
    if name == "random":
        return RandomPolicy(rng)
    if name == "plru":
        return PlruPolicy(assoc)
    raise ConfigurationError(f"unknown replacement policy {name!r}")
