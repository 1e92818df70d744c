"""The SDRAM-resident tag/state directory of one emulated cache node.

Each node controller FPGA owns four 64 MB SDRAM DIMMs holding, for every
line frame of the emulated cache, its tag, coherence state and replacement
metadata.  :class:`TagStateDirectory` keeps the same dense table: three
numpy arrays indexed by set, ``tags`` and ``states`` of shape
``(num_sets, assoc)`` and one replacement word per set in ``meta``.  A
set's resident lines are a prefix of its row; tag ``-1`` (state 0) marks
an empty way.  A probe returns the first way holding a tag, so a
(corrupted) duplicate tag resolves to its first copy on every path, as
``list.index`` and the set lanes' probe both do.

The directory itself is protocol-agnostic — it stores whatever state integers
the node controller's protocol table produces — and exposes fine-grained
operations (probe / touch / install / invalidate) so the controller can apply
table transitions between them.  Replacement policies still work on one
set's resident lines as Python lists; the fast replay engines read and
write the arrays directly.
"""

from __future__ import annotations

import base64
from typing import Iterator, List, Optional, Sequence, Tuple

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

#: Tag of an empty way (every stored tag is non-negative); its state is 0.
EMPTY_TAG = -1


def _lines(row: List[int]) -> int:
    """Resident lines of one padded tag row (they are its prefix)."""
    return row.index(EMPTY_TAG) if row[-1] < 0 else len(row)


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
        shape = (config.num_sets, config.assoc)
        self._tags = np.full(shape, EMPTY_TAG, dtype=np.int64)
        self._states = np.zeros(shape, dtype=np.int64)
        self._meta = self._fresh_meta()

    def _fresh_meta(self) -> np.ndarray:
        """Initial replacement words: int64 when the policy's word is an
        int, else one ``make_meta()`` object per set (a policy is free to
        return mutable metadata, and replicating a single instance across
        sets would alias every set's replacement state onto one object)."""
        num_sets = self.config.num_sets
        first = self.policy.make_meta()
        if type(first) is int:
            return np.full(num_sets, first, dtype=np.int64)
        meta = np.empty(num_sets, dtype=object)
        meta[0] = first
        for set_index in range(1, num_sets):
            meta[set_index] = self.policy.make_meta()
        return meta

    def _row(self, set_index: int) -> Tuple[List[int], List[int]]:
        """One set's resident tags and states, as the lists a replacement
        policy works on."""
        tags = self._tags[set_index].tolist()
        lines = _lines(tags)
        del tags[lines:]
        return tags, self._states[set_index].tolist()[:lines]

    def _put_row(self, set_index: int, tags: List[int], states: List[int]) -> None:
        """Write one set's resident lines back, padding the empty ways."""
        pad = self.config.assoc - len(tags)
        self._tags[set_index] = tags + [EMPTY_TAG] * pad
        self._states[set_index] = states + [0] * pad

    # ------------------------------------------------------------------ #
    # Hot-path operations
    # ------------------------------------------------------------------ #

    def probe(self, address: int) -> Tuple[int, int, int]:
        """Locate ``address``; returns (set_index, tag, way) with way=-1 on miss."""
        amap = self.amap
        set_index = amap.set_index(address)
        tag = amap.tag(address)
        row = self._tags[set_index].tolist()
        return set_index, tag, row.index(tag) if tag in row else -1

    def state_at(self, set_index: int, way: int) -> int:
        """State integer stored at (set, way)."""
        return self._states.item(set_index, way)

    def set_state(self, set_index: int, way: int, state: int) -> None:
        """Overwrite the state at (set, way)."""
        self._states[set_index, way] = state

    def touch(self, set_index: int, way: int) -> int:
        """Record a hit for the replacement policy; returns the new way.

        A policy that moves lines on a hit reports it through the new way,
        so only then is the set written back.
        """
        tags, states = self._row(set_index)
        new_way, meta = self.policy.touch(
            tags, states, way, self._meta.item(set_index)
        )
        self._meta[set_index] = meta
        if new_way != way:
            self._put_row(set_index, tags, states)
        return new_way

    def install(
        self, set_index: int, tag: int, state: int
    ) -> Optional[Tuple[int, int]]:
        """Allocate a line; returns (victim line address, victim state) or None."""
        tags, states = self._row(set_index)
        victim, meta = self.policy.insert(
            tags, states, tag, state, self.config.assoc,
            self._meta.item(set_index),
        )
        self._meta[set_index] = meta
        self._put_row(set_index, tags, states)
        if victim is None:
            return None
        victim_tag, victim_state = victim
        return self.amap.rebuild(victim_tag, set_index), victim_state

    def invalidate(self, set_index: int, way: int) -> int:
        """Drop the line at (set, way); returns its former state.  The
        lines after it move up one way."""
        tags, states = self._row(set_index)
        del tags[way]
        state = states.pop(way)
        self._put_row(set_index, tags, states)
        return state

    # ------------------------------------------------------------------ #
    # Whole-directory queries (console, tests, peers)
    # ------------------------------------------------------------------ #

    def lookup_state(self, address: int) -> int:
        """State of the line holding ``address`` (INVALID when absent)."""
        set_index, tag, way = self.probe(address)
        if way < 0:
            return int(LineState.INVALID)
        return self._states.item(set_index, way)

    def resident_lines(self) -> int:
        """Number of valid lines currently in the directory."""
        return int(np.count_nonzero(self._tags >= 0))

    def ways_in_set(self, set_index: int) -> int:
        """Number of resident lines in one set (fault injection, console)."""
        return _lines(self._tags[set_index].tolist())

    def set_tags(self, set_index: int) -> List[int]:
        """Resident tags of one set, in way order (fault injection, tests)."""
        return self._row(set_index)[0]

    def _check_resident(self, set_index: int, way: int) -> None:
        if not 0 <= way < self.ways_in_set(set_index):
            raise EmulationError(f"set {set_index} holds no line at way {way}")

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
        self._check_resident(set_index, way)
        self._tags[set_index, way] ^= 1 << bit

    def occupancy(self) -> float:
        """Fraction of line frames in use."""
        return self.resident_lines() / self.config.num_lines

    def iter_lines(self) -> Iterator[Tuple[int, int]]:
        """Yield (line address, state) for every resident line."""
        rebuild = self.amap.rebuild
        sets, ways = np.nonzero(self._tags >= 0)
        for set_index, tag, state in zip(
            sets.tolist(),
            self._tags[sets, ways].tolist(),
            self._states[sets, ways].tolist(),
        ):
            yield rebuild(tag, set_index), state

    def check_invariants(self) -> None:
        """Assert structural invariants; used by property-based tests.

        Raises:
            EmulationError: if the arrays lost their shape, a set's lines
                are not a prefix of its row (an empty way before a tag),
                an empty way holds a state, or a set holds duplicate tags.
        """
        shape = (self.config.num_sets, self.config.assoc)
        tags, states = self._tags, self._states
        if tags.shape != shape or states.shape != shape:
            raise EmulationError(
                f"directory rows {tags.shape}/{states.shape}; geometry {shape}"
            )

        def fail_where(bad_sets, problem: str) -> None:
            if bad_sets.any():
                first = int(np.flatnonzero(bad_sets)[0])
                raise EmulationError(f"set {first}: {problem}")

        resident = tags >= 0
        fail_where(
            (tags < EMPTY_TAG).any(1)
            | (resident[:, 1:] & ~resident[:, :-1]).any(1),
            "lines are not a prefix of the row",
        )
        fail_where(((states != 0) & ~resident).any(1),
                   "an empty way holds a state")
        ordered = np.sort(tags, axis=1)
        fail_where(
            ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any(1),
            "duplicate tags",
        )

    def clear(self) -> None:
        """Invalidate the whole directory (console power-up initialisation)."""
        self._tags.fill(EMPTY_TAG)
        self._states.fill(0)
        self._meta = self._fresh_meta()

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
        tags, states, meta = unpack_directory(state, self.config.assoc)
        if len(tags) != self.config.num_sets or len(meta) != len(tags):
            raise EmulationError(
                f"checkpoint has {len(tags)} sets; directory has "
                f"{self.config.num_sets}"
            )
        self._tags = tags
        self._states = states
        self._meta = meta.astype(self._meta.dtype)


def _pack_ints(values: np.ndarray) -> dict:
    """Non-negative ints as one little-endian array, base64'd.

    The element width is the narrowest of 1/2/4/8 bytes that holds the
    largest value, and is recorded next to the data.

    Raises:
        EmulationError: on a negative value.
    """
    values = np.asarray(values)
    if values.size and values.min() < 0:
        raise EmulationError("negative value in a packed directory array")
    top = int(values.max()) if values.size else 0
    width = next(w for w in _PACK_WIDTHS if top >> (8 * w) == 0)
    # Every value is non-negative and fits the width: one cast, exact.
    data = values.astype(f"<u{width}").tobytes()
    return {"width": width, "data": base64.b64encode(data).decode("ascii")}


def _unpack_ints(field: dict) -> np.ndarray:
    """Inverse of :func:`_pack_ints` (a read-only uint64 array)."""
    try:
        width = field["width"]
        raw = base64.b64decode(field["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise EmulationError(f"malformed packed directory array: {exc}") from exc
    if width not in _PACK_WIDTHS or len(raw) % width:
        raise EmulationError(
            f"packed directory array of {len(raw)} bytes at width {width!r}"
        )
    return np.frombuffer(raw, dtype=f"<u{width}").astype(np.uint64)


def pack_directory(tags: np.ndarray, states: np.ndarray, meta) -> dict:
    """Checkpoint form of a directory: four packed integer arrays.

    ``tags`` and ``states`` are the directory's ``(num_sets, ways)``
    rows (resident lines first, tag -1 in the empty ways).  ``ways``
    holds each set's resident-line count, ``tags`` and ``states`` the
    sets' resident lines laid end to end, and ``meta`` one replacement
    word per set.  Each array is a ``{"width", "data"}`` pair (see
    :func:`_pack_ints`), so the dict is JSON-ready and compares equal
    exactly when the directory contents do.
    """
    resident = tags >= 0
    # Column by column: reducing rows this short runs numpy's inner loop
    # once per set.
    ways = np.zeros(resident.shape[0], dtype=np.intp)
    for j in range(resident.shape[1]):
        ways += resident[:, j]
    return {
        "ways": _pack_ints(ways),
        "tags": _pack_ints(tags[resident]),
        "states": _pack_ints(states[resident]),
        "meta": _pack_ints(meta),
    }


def pack_rows(
    tags: Sequence[Sequence[int]],
    states: Sequence[Sequence[int]],
    meta: Sequence[int],
) -> dict:
    """:func:`pack_directory` of a directory given as per-set row lists
    (the version-1 and version-2 checkpoint layout).

    Raises:
        EmulationError: when a set's tag and state rows differ in length.
    """
    counts = np.fromiter(map(len, tags), dtype=np.intp, count=len(tags))
    if counts.tolist() != list(map(len, states)):
        raise EmulationError("directory tag/state rows diverged")
    flat_tags = np.array([tag for row in tags for tag in row], dtype=np.int64)
    if flat_tags.size and flat_tags.min() < 0:
        raise EmulationError("negative tag in a directory row")
    resident = np.arange(int(counts.max(initial=0))) < counts[:, None]
    padded_tags = np.full(resident.shape, EMPTY_TAG, dtype=np.int64)
    padded_states = np.zeros(resident.shape, dtype=np.int64)
    padded_tags[resident] = flat_tags
    padded_states[resident] = [state for row in states for state in row]
    return pack_directory(padded_tags, padded_states, np.asarray(meta))


def unpack_directory(
    packed: dict, assoc: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and meta words of a packed directory, as ``tags`` and
    ``states`` arrays of ``assoc`` ways (default: the fullest set's line
    count) with the empty ways padded, and an int64 ``meta`` array.

    Raises:
        EmulationError: when the arrays are malformed, disagree in length,
            or a set holds more than ``assoc`` lines.
    """
    try:
        fields = [packed[key] for key in ("ways", "tags", "states", "meta")]
    except (KeyError, TypeError) as exc:
        raise EmulationError(f"not a packed directory: {exc}") from exc
    counts, flat_tags, flat_states, meta = map(_unpack_ints, fields)
    total = int(counts.sum())
    if total != len(flat_tags) or len(flat_states) != len(flat_tags):
        raise EmulationError(
            f"packed directory holds {len(flat_tags)} tags and "
            f"{len(flat_states)} states for {total} resident lines"
        )
    fullest = int(counts.max(initial=0))
    ways = fullest if assoc is None else assoc
    if fullest > ways:
        raise EmulationError(
            f"packed directory holds {fullest} lines in one set of {ways} ways"
        )
    if flat_tags.size and int(flat_tags.max()) >> 63:
        raise EmulationError("packed directory tag beyond 63 bits")
    resident = np.arange(ways) < counts[:, None].astype(np.intp)
    tags = np.full(resident.shape, EMPTY_TAG, dtype=np.int64)
    states = np.zeros(resident.shape, dtype=np.int64)
    tags[resident] = flat_tags.astype(np.int64)
    states[resident] = flat_states.astype(np.int64)
    return tags, states, meta.astype(np.int64)


def unpack_rows(packed: dict) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """Per-set (tags, states) row lists and meta words of a packed
    directory: the version-1 and version-2 layout, inverse of
    :func:`pack_rows`."""
    tags, states, meta = unpack_directory(packed)
    resident = tags >= 0
    return (
        [row[keep].tolist() for row, keep in zip(tags, resident)],
        [row[keep].tolist() for row, keep in zip(states, resident)],
        meta.tolist(),
    )
