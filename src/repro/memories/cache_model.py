"""The SDRAM-resident tag/state directory of one emulated cache node.

Each node controller FPGA owns four 64 MB SDRAM DIMMs holding, for every
line frame of the emulated cache, its tag, coherence state and replacement
metadata.  :class:`TagStateDirectory` models that structure: a set-associative
array of (tag, state) pairs managed by a pluggable replacement policy.

The directory itself is protocol-agnostic — it stores whatever state integers
the node controller's protocol table produces — and exposes fine-grained
operations (probe / touch / install / invalidate) so the controller can apply
table transitions between them.
"""

from __future__ import annotations

import base64
from itertools import accumulate, chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.addr import AddressMap
from repro.common.errors import EmulationError
from repro.memories.config import CacheNodeConfig
from repro.memories.protocol_table import LineState
from repro.memories.replacement import ReplacementPolicy, make_policy

#: Physical address width bounding the stored tag (the 50-bit trace field).
_TAG_ADDRESS_BITS = 50

#: Element widths (bytes) a packed checkpoint array may use.
_PACK_WIDTHS = (1, 2, 4, 8)


class TagStateDirectory:
    """Set-associative tag/state array for one emulated cache.

    Args:
        config: geometry (size / associativity / line size) of the cache.
        policy: replacement policy instance; defaults to the one named in
            ``config.replacement``.
    """

    def __init__(
        self,
        config: CacheNodeConfig,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        config.validate_geometry()
        self.config = config
        self.amap = AddressMap(line_size=config.line_size, num_sets=config.num_sets)
        self.policy = policy if policy is not None else make_policy(
            config.replacement, config.assoc
        )
        num_sets = config.num_sets
        self._tags: list[list[int]] = [[] for _ in range(num_sets)]
        self._states: list[list[int]] = [[] for _ in range(num_sets)]
        # One make_meta() call per set: a policy is free to return mutable
        # metadata, and replicating a single instance across sets would
        # alias every set's replacement state onto one object.
        self._meta: list = [self.policy.make_meta() for _ in range(num_sets)]
        # Per-set tag -> way index, the O(1) replacement for scanning
        # tags.index(tag) on every probe.  Kept coherent by every mutator;
        # rare paths that edit tags in place (fault injection, ECC repair)
        # rebuild their set via _rebuild_way_map.
        self._ways: list[dict[int, int]] = [{} for _ in range(num_sets)]

    def _rebuild_way_map(self, set_index: int) -> None:
        """Recompute one set's tag->way map from its tag list.

        First occurrence wins when (corrupted) duplicate tags exist, the
        same line ``list.index`` used to return.
        """
        tags = self._tags[set_index]
        ways: dict[int, int] = {}
        for way in range(len(tags) - 1, -1, -1):
            ways[tags[way]] = way
        self._ways[set_index] = ways

    # ------------------------------------------------------------------ #
    # Hot-path operations
    # ------------------------------------------------------------------ #

    def probe(self, address: int) -> Tuple[int, int, int]:
        """Locate ``address``; returns (set_index, tag, way) with way=-1 on miss."""
        amap = self.amap
        set_index = amap.set_index(address)
        tag = amap.tag(address)
        way = self._ways[set_index].get(tag, -1)
        return set_index, tag, way

    def state_at(self, set_index: int, way: int) -> int:
        """State integer stored at (set, way)."""
        return self._states[set_index][way]

    def set_state(self, set_index: int, way: int, state: int) -> None:
        """Overwrite the state at (set, way)."""
        self._states[set_index][way] = state

    def touch(self, set_index: int, way: int) -> int:
        """Record a hit for the replacement policy; returns the new way."""
        new_way, meta = self.policy.touch(
            self._tags[set_index], self._states[set_index], way, self._meta[set_index]
        )
        self._meta[set_index] = meta
        if new_way != way:
            if new_way == 0:
                # Promotion to MRU rotates positions 0..way one step; no
                # entry beyond the hit way moves.  Back to front, so a
                # (corrupted) duplicate tag keeps its first occurrence.
                tags = self._tags[set_index]
                ways = self._ways[set_index]
                for position in range(way, -1, -1):
                    ways[tags[position]] = position
            else:
                self._rebuild_way_map(set_index)
        return new_way

    def install(
        self, set_index: int, tag: int, state: int
    ) -> Optional[Tuple[int, int]]:
        """Allocate a line; returns (victim line address, victim state) or None."""
        victim, meta = self.policy.insert(
            self._tags[set_index],
            self._states[set_index],
            tag,
            state,
            self.config.assoc,
            self._meta[set_index],
        )
        self._meta[set_index] = meta
        # insert() may rotate, replace or evict anywhere in the set, so the
        # miss path pays one O(assoc) map rebuild.
        self._rebuild_way_map(set_index)
        if victim is None:
            return None
        victim_tag, victim_state = victim
        return self.amap.rebuild(victim_tag, set_index), victim_state

    def invalidate(self, set_index: int, way: int) -> int:
        """Drop the line at (set, way); returns its former state."""
        tags = self._tags[set_index]
        tag = tags.pop(way)
        state = self._states[set_index].pop(way)
        ways = self._ways[set_index]
        if ways.get(tag) == way:
            del ways[tag]
        # Lines from `way` on moved down one.  Back to front, and an entry
        # naming an earlier copy stays, so a (corrupted) duplicate tag
        # keeps its first occurrence, as _rebuild_way_map would.
        for position in range(len(tags) - 1, way - 1, -1):
            moved = tags[position]
            if ways.get(moved, way) >= way:
                ways[moved] = position
        return state

    # ------------------------------------------------------------------ #
    # Whole-directory queries (console, tests, peers)
    # ------------------------------------------------------------------ #

    def lookup_state(self, address: int) -> int:
        """State of the line holding ``address`` (INVALID when absent)."""
        set_index, tag, way = self.probe(address)
        if way < 0:
            return int(LineState.INVALID)
        return self._states[set_index][way]

    def resident_lines(self) -> int:
        """Number of valid lines currently in the directory."""
        return sum(len(tags) for tags in self._tags)

    def ways_in_set(self, set_index: int) -> int:
        """Number of resident lines in one set (fault injection, console)."""
        return len(self._tags[set_index])

    @property
    def stored_bits(self) -> int:
        """Flippable bits per line exposed to the fault injector.

        The unprotected directory confines injected flips to the tag field
        (a corrupted tag silently loses or aliases the line — exactly the
        soft-error symptom ECC exists to catch — while a flipped raw state
        would be an invalid protocol-table index and crash the emulation
        rather than skew it).  :class:`repro.memories.ecc.EccTagStateDirectory`
        overrides this to span the whole protected word.
        """
        amap = self.amap
        return max(1, _TAG_ADDRESS_BITS - amap.offset_bits - amap.index_bits)

    def inject_bit_flip(self, set_index: int, way: int, bit: int) -> None:
        """Fault injection: flip one stored tag bit of a resident line."""
        if bit < 0 or bit >= self.stored_bits:
            raise EmulationError(f"bit index {bit} outside the stored tag")
        self._tags[set_index][way] ^= 1 << bit
        self._rebuild_way_map(set_index)

    def occupancy(self) -> float:
        """Fraction of line frames in use."""
        return self.resident_lines() / self.config.num_lines

    def iter_lines(self) -> Iterator[Tuple[int, int]]:
        """Yield (line address, state) for every resident line."""
        rebuild = self.amap.rebuild
        for set_index, (tags, states) in enumerate(zip(self._tags, self._states)):
            for tag, state in zip(tags, states):
                yield rebuild(tag, set_index), state

    def check_invariants(self) -> None:
        """Assert structural invariants; used by property-based tests.

        Raises:
            EmulationError: if a set exceeds the associativity, holds
                duplicate tags, or parallel arrays lost sync.
        """
        assoc = self.config.assoc
        for set_index, (tags, states) in enumerate(zip(self._tags, self._states)):
            if len(tags) != len(states):
                raise EmulationError(f"set {set_index}: tag/state arrays diverged")
            if len(tags) > assoc:
                raise EmulationError(f"set {set_index}: {len(tags)} lines > {assoc}-way")
            if len(set(tags)) != len(tags):
                raise EmulationError(f"set {set_index}: duplicate tags")
            ways = self._ways[set_index]
            if len(ways) != len(tags) or any(
                way >= len(tags) or tags[way] != tag for tag, way in ways.items()
            ):
                raise EmulationError(f"set {set_index}: tag->way map out of sync")

    def clear(self) -> None:
        """Invalidate the whole directory (console power-up initialisation)."""
        for tags in self._tags:
            tags.clear()
        for states in self._states:
            states.clear()
        for ways in self._ways:
            ways.clear()
        self._meta = [self.policy.make_meta() for _ in range(self.config.num_sets)]

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Full mutable contents, packed (see :func:`pack_directory`).

        For an ECC-protected subclass the stored state integers already
        carry the packed check bits, so this captures them for free.
        """
        return pack_directory(self._tags, self._states, self._meta)

    def load_state_dict(self, state: dict) -> None:
        """Restore packed contents into a same-geometry directory.

        Raises:
            EmulationError: when the checkpoint's set count does not match
                this directory's geometry, or its arrays are malformed.
        """
        tags, states, meta = unpack_directory(state)
        if len(tags) != self.config.num_sets or len(meta) != len(tags):
            raise EmulationError(
                f"checkpoint has {len(tags)} sets; directory has "
                f"{self.config.num_sets}"
            )
        self._tags = tags
        self._states = states
        self._meta = meta
        # Bulk _rebuild_way_map: zipping the reversed row keeps the first
        # occurrence of a (corrupted) duplicate tag.
        self._ways = [
            dict(zip(reversed(row), range(len(row) - 1, -1, -1)))
            for row in tags
        ]


def _pack_ints(values: Iterable[int], count: int) -> dict:
    """``count`` non-negative ints as one little-endian array, base64'd.

    The element width is the narrowest of 1/2/4/8 bytes that holds the
    largest value, and is recorded next to the data.
    """
    array = np.fromiter(values, dtype=np.uint64, count=count)
    top = int(array.max()) if count else 0
    width = next(w for w in _PACK_WIDTHS if top >> (8 * w) == 0)
    data = array.astype(f"<u{width}").tobytes()
    return {"width": width, "data": base64.b64encode(data).decode("ascii")}


def _unpack_ints(field: dict) -> List[int]:
    """Inverse of :func:`_pack_ints`."""
    try:
        width = field["width"]
        raw = base64.b64decode(field["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise EmulationError(f"malformed packed directory array: {exc}") from exc
    if width not in _PACK_WIDTHS or len(raw) % width:
        raise EmulationError(
            f"packed directory array of {len(raw)} bytes at width {width!r}"
        )
    return np.frombuffer(raw, dtype=f"<u{width}").tolist()


def pack_directory(
    tags: Sequence[Sequence[int]],
    states: Sequence[Sequence[int]],
    meta: Sequence[int],
) -> dict:
    """Checkpoint form of a directory: four packed integer arrays.

    ``ways`` holds each set's resident-line count, ``tags`` and ``states``
    the sets' rows laid end to end, and ``meta`` one replacement word per
    set.  Each array is a ``{"width", "data"}`` pair (see
    :func:`_pack_ints`), so the dict is JSON-ready and compares equal
    exactly when the directory contents do.

    Raises:
        EmulationError: when a set's tag and state rows differ in length.
    """
    counts = list(map(len, tags))
    if counts != list(map(len, states)):
        raise EmulationError("directory tag/state rows diverged")
    total = sum(counts)
    return {
        "ways": _pack_ints(counts, len(counts)),
        "tags": _pack_ints(chain.from_iterable(tags), total),
        "states": _pack_ints(chain.from_iterable(states), total),
        "meta": _pack_ints(meta, len(meta)),
    }


def unpack_directory(
    packed: dict,
) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """Per-set (tags, states) rows and meta words of a packed directory.

    Raises:
        EmulationError: when the arrays are malformed or disagree in length.
    """
    try:
        fields = [packed[key] for key in ("ways", "tags", "states", "meta")]
    except (KeyError, TypeError) as exc:
        raise EmulationError(f"not a packed directory: {exc}") from exc
    counts, flat_tags, flat_states, meta = map(_unpack_ints, fields)
    if sum(counts) != len(flat_tags) or len(flat_states) != len(flat_tags):
        raise EmulationError(
            f"packed directory holds {len(flat_tags)} tags and "
            f"{len(flat_states)} states for {sum(counts)} resident lines"
        )
    ends = list(accumulate(counts))
    spans = list(zip([0, *ends[:-1]], ends))
    tags = [flat_tags[start:end] for start, end in spans]
    states = [flat_states[start:end] for start, end in spans]
    return tags, states, meta
