"""Per-line SECDED protection and background scrubbing for the directory.

The SDRAM tag/state directory is the board's only large RAM structure; a
days-long run (the paper sizes its 40-bit counters for ">30 hours" of
continuous monitoring) gives soft errors time to accumulate.  Real server
SDRAM pairs every word with Hamming single-error-correct / double-error-
detect (SECDED) check bits and a background scrubber that sweeps the array,
correcting single-bit flips before a second flip in the same word turns
them uncorrectable.  This module adds exactly that to the reproduction:

* :func:`secded_encode` / :func:`secded_decode` — an extended-Hamming codec
  over the packed ``(tag, state)`` word of one directory line.
* :class:`EccTagStateDirectory` — a :class:`TagStateDirectory` that stores
  check bits alongside every line, verifies lines on access, and exposes
  :meth:`EccTagStateDirectory.inject_bit_flip` for the fault-injection
  layer (flipping a stored bit *without* refreshing the check bits, the
  way a real soft error would).
* :class:`DirectoryScrubber` — an incremental background sweep driven off
  the board's bus-cycle clock.

ECC is opt-in (``NodeController(..., ecc=True)``): with it disabled the
directory stores raw states and behaves bit-identically to the unprotected
board, which keeps zero-fault runs byte-comparable to the seed behavior.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, ValidationError
from repro.memories.cache_model import TagStateDirectory
from repro.memories.counters import CounterBank

#: Bits reserved for the coherence state in the protected word.  LineState
#: needs 3; the fourth is headroom so an injected flip can produce an
#: *invalid* state encoding — the case on-access verification must catch.
STATE_BITS = 4
STATE_MASK = (1 << STATE_BITS) - 1

#: Default scrub cadence: one partial pass per this many bus cycles.
DEFAULT_SCRUB_INTERVAL = 10_000.0
#: Directory sets examined per scrub pass.
DEFAULT_SETS_PER_PASS = 64


# --------------------------------------------------------------------------- #
# Extended Hamming (SECDED) codec
# --------------------------------------------------------------------------- #


class EccOutcome(enum.Enum):
    """Result of verifying one protected word against its check bits."""

    CLEAN = "clean"
    CORRECTED = "corrected"
    UNCORRECTABLE = "uncorrectable"


class SecdedCodec:
    """Extended-Hamming SECDED codec for a fixed data width.

    Data bits occupy the codeword positions that are not powers of two
    (1-based); positions ``2^i`` hold the Hamming parity bits and one extra
    overall-parity bit extends single-error correction to double-error
    detection.  Parity masks are precomputed so encode/verify are a handful
    of big-int ANDs and popcounts — this sits on the directory's install
    path when ECC is enabled.
    """

    def __init__(self, data_bits: int) -> None:
        if data_bits < 1:
            raise ValidationError(f"data width {data_bits} must be >= 1")
        self.data_bits = data_bits
        r = 1
        while (1 << r) < data_bits + r + 1:
            r += 1
        self.parity_bits = r
        # Codeword positions (1-based) of each data bit, in order.
        self._positions: List[int] = []
        position = 1
        while len(self._positions) < data_bits:
            if position & (position - 1):
                self._positions.append(position)
            position += 1
        self._position_of = {pos: i for i, pos in enumerate(self._positions)}
        # For each parity bit i: mask over *data-bit indices* whose codeword
        # position has bit i set.
        self._parity_masks: List[int] = []
        for i in range(r):
            mask = 0
            for data_index, pos in enumerate(self._positions):
                if pos & (1 << i):
                    mask |= 1 << data_index
            self._parity_masks.append(mask)

    def encode(self, data: int) -> int:
        """Check bits: r Hamming parity bits, plus overall parity at bit r."""
        if data < 0 or data >> self.data_bits:
            raise ValidationError(
                f"data {data:#x} does not fit in {self.data_bits} bits"
            )
        parity = 0
        for i, mask in enumerate(self._parity_masks):
            if bin(data & mask).count("1") & 1:
                parity |= 1 << i
        overall = (bin(data).count("1") + bin(parity).count("1")) & 1
        return parity | (overall << self.parity_bits)

    def decode(self, data: int, check: int) -> Tuple[int, EccOutcome]:
        """Verify ``data`` against stored ``check``; correct if possible.

        Returns the (possibly corrected) data word and the outcome.  Flips
        in the check bits themselves are detected and absorbed too.
        """
        r = self.parity_bits
        stored_parity = check & ((1 << r) - 1)
        stored_overall = (check >> r) & 1
        syndrome = 0
        for i, mask in enumerate(self._parity_masks):
            if bin(data & mask).count("1") & 1:
                syndrome |= 1 << i
        syndrome ^= stored_parity
        overall = (
            bin(data).count("1") + bin(stored_parity).count("1") + stored_overall
        ) & 1
        if syndrome == 0 and overall == 0:
            return data, EccOutcome.CLEAN
        if overall == 1:
            # Odd number of flips: assume exactly one, at codeword position
            # `syndrome`.  Syndrome 0 means the overall parity bit itself
            # flipped; a power-of-two syndrome means a parity bit flipped —
            # in both cases the data word is already correct.
            data_index = self._position_of.get(syndrome)
            if data_index is not None:
                data ^= 1 << data_index
            return data, EccOutcome.CORRECTED
        # Even parity but non-zero syndrome: an even number of flips —
        # beyond SECDED's correction power.
        return data, EccOutcome.UNCORRECTABLE


_CODEC_CACHE: dict = {}


def codec_for(data_bits: int) -> SecdedCodec:
    """Shared :class:`SecdedCodec` instance for a data width."""
    codec = _CODEC_CACHE.get(data_bits)
    if codec is None:
        codec = _CODEC_CACHE[data_bits] = SecdedCodec(data_bits)
    return codec


def secded_encode(data: int, data_bits: int) -> int:
    """Functional form of :meth:`SecdedCodec.encode`."""
    return codec_for(data_bits).encode(data)


def secded_decode(data: int, check: int, data_bits: int) -> Tuple[int, EccOutcome]:
    """Functional form of :meth:`SecdedCodec.decode`."""
    return codec_for(data_bits).decode(data, check)


# --------------------------------------------------------------------------- #
# ECC-protected directory
# --------------------------------------------------------------------------- #


@dataclass
class EccStats:
    """Model-side ECC bookkeeping (the counter bank holds the event counts).

    Attributes:
        scrub_passes: completed incremental scrub passes.
        lines_scrubbed: lines examined by the scrubber.
    """

    scrub_passes: int = 0
    lines_scrubbed: int = 0


class EccTagStateDirectory(TagStateDirectory):
    """A tag/state directory whose lines carry SECDED check bits.

    The protected word of one line is ``(tag << STATE_BITS) | state``; its
    check bits are packed into the high bits of the stored state integer, so
    replacement policies — which move a line's tag and state together —
    keep data and check bits associated for free.

    Legitimate writes (install / set_state) refresh the check bits; the
    fault injector's :meth:`inject_bit_flip` deliberately does not, exactly
    like a particle strike in SDRAM.
    """

    #: Physical address width bounding the tag (the 50-bit trace field).
    ADDRESS_BITS = 50

    def __init__(self, config, policy=None) -> None:
        super().__init__(config, policy)
        amap = self.amap
        tag_bits = max(
            1, self.ADDRESS_BITS - amap.offset_bits - amap.index_bits
        )
        self._data_bits = STATE_BITS + tag_bits
        self._codec = codec_for(self._data_bits)
        self._check_shift = STATE_BITS + 4  # state field + headroom
        self.ecc_stats = EccStats()

    # -- encoding helpers ------------------------------------------------ #

    def _encode(self, tag: int, state: int) -> int:
        word = (tag << STATE_BITS) | (state & STATE_MASK)
        check = self._codec.encode(word)
        return (state & STATE_MASK) | (check << self._check_shift)

    # -- overridden hot-path operations ---------------------------------- #

    def state_at(self, set_index: int, way: int) -> int:
        return self._states.item(set_index, way) & STATE_MASK

    def set_state(self, set_index: int, way: int, state: int) -> None:
        tag = self._tags.item(set_index, way)
        self._states[set_index, way] = self._encode(tag, state)

    def install(self, set_index: int, tag: int, state: int):
        result = super().install(set_index, tag, self._encode(tag, state))
        if result is None:
            return None
        victim_addr, victim_stored = result
        return victim_addr, self._victim_state(victim_addr, victim_stored)

    def _victim_state(self, victim_addr: int, stored: int) -> int:
        """State of an evicted line, ECC-verified on its way out.

        A line can sit corrupted between scrub passes and be chosen as the
        replacement victim without ever being re-accessed; this is the one
        read path :meth:`verify_line` cannot cover (the line is already
        gone).  Correct what is correctable; anything still outside the
        state alphabet leaves as INVALID (a clean eviction) rather than
        crashing the protocol-table lookup.
        """
        state = stored & STATE_MASK
        word = (self.amap.tag(victim_addr) << STATE_BITS) | state
        corrected, outcome = self._codec.decode(word, stored >> self._check_shift)
        if outcome is not EccOutcome.UNCORRECTABLE:
            state = corrected & STATE_MASK
        if not self._state_is_valid(state):
            from repro.memories.protocol_table import LineState

            return int(LineState.INVALID)
        return state

    def invalidate(self, set_index: int, way: int) -> int:
        return super().invalidate(set_index, way) & STATE_MASK

    def lookup_state(self, address: int) -> int:
        return super().lookup_state(address) & STATE_MASK

    def iter_lines(self):
        for address, stored in super().iter_lines():
            yield address, stored & STATE_MASK

    # -- verification, scrubbing, injection ------------------------------ #

    def verify_line(
        self,
        set_index: int,
        way: int,
        counters: Optional[CounterBank] = None,
    ) -> EccOutcome:
        """Check one line's word against its check bits; repair in place.

        Single-bit flips (in tag, state or the check bits) are corrected.
        Uncorrectable words, words whose corrected state is not a valid
        encoding, and corrections that would duplicate another way's tag
        are conservatively invalidated — the emulated line is refetched on
        its next reference, which only ever *overstates* the miss ratio.
        """
        stored = self._states.item(set_index, way)
        tag = self._tags.item(set_index, way)
        word = (tag << STATE_BITS) | (stored & STATE_MASK)
        check = stored >> self._check_shift
        corrected, outcome = self._codec.decode(word, check)
        if outcome is EccOutcome.CLEAN:
            return outcome
        if counters is not None:
            counters.increment("ecc.detected")
        if outcome is EccOutcome.UNCORRECTABLE:
            if counters is not None:
                counters.increment("ecc.uncorrectable")
            super().invalidate(set_index, way)
            return outcome
        new_tag = corrected >> STATE_BITS
        new_state = corrected & STATE_MASK
        duplicate = new_tag != tag and new_tag in self.set_tags(set_index)
        if duplicate or not self._state_is_valid(new_state):
            # Correcting would collide with another resident line (the flip
            # let a second copy of the tag be installed meanwhile) or the
            # original word itself was corrupt beyond the state alphabet:
            # drop the line instead of guessing.
            if counters is not None:
                counters.increment("ecc.dropped")
            super().invalidate(set_index, way)
            return EccOutcome.UNCORRECTABLE
        self._tags[set_index, way] = new_tag
        self._states[set_index, way] = self._encode(new_tag, new_state)
        if counters is not None:
            counters.increment("ecc.corrected")
        return outcome

    @staticmethod
    def _state_is_valid(state: int) -> bool:
        from repro.memories.protocol_table import LineState

        try:
            LineState(state)
        except ValueError:
            return False
        return True

    def self_check(self) -> int:
        """Count resident lines whose stored word is beyond repair.

        A strictly read-only probe: unlike :meth:`verify_line` it never
        repairs, invalidates or counts anything, so running it changes no
        state whatsoever.  The run supervisor calls it between replay
        segments to decide whether a directory bank has failed hard
        enough to take the node offline; *repair* of correctable damage
        stays with the patrol scrubber at its own cadence, which keeps
        supervised runs bit-identical to unsupervised ones even while
        faults are being injected.

        Counts the same conditions :meth:`verify_line` would invalidate
        for: uncorrectable words, and corrections that would collide with
        another way's tag or land outside the state alphabet.
        """
        uncorrectable = 0
        sets, ways = np.nonzero(self._tags >= 0)
        for set_index, tag, stored in zip(
            sets.tolist(),
            self._tags[sets, ways].tolist(),
            self._states[sets, ways].tolist(),
        ):
            word = (tag << STATE_BITS) | (stored & STATE_MASK)
            corrected, outcome = self._codec.decode(
                word, stored >> self._check_shift
            )
            if outcome is EccOutcome.CLEAN:
                continue
            if outcome is EccOutcome.UNCORRECTABLE:
                uncorrectable += 1
                continue
            new_tag = corrected >> STATE_BITS
            duplicate = new_tag != tag and new_tag in self.set_tags(set_index)
            if duplicate or not self._state_is_valid(corrected & STATE_MASK):
                uncorrectable += 1
        return uncorrectable

    def scrub_set(
        self, set_index: int, counters: Optional[CounterBank] = None
    ) -> int:
        """Verify every line of one set; returns lines examined."""
        examined = 0
        way = 0
        # verify_line may drop lines, shrinking the set while we walk it.
        while way < self.ways_in_set(set_index):
            outcome = self.verify_line(set_index, way, counters)
            examined += 1
            if outcome is not EccOutcome.UNCORRECTABLE:
                way += 1
        self.ecc_stats.lines_scrubbed += examined
        return examined

    @property
    def stored_bits(self) -> int:
        """Width of one stored line word: data plus SECDED check bits."""
        return self._data_bits + self._codec.parity_bits + 1

    def inject_bit_flip(self, set_index: int, way: int, bit: int) -> None:
        """Flip one stored bit of a line without refreshing its check bits.

        ``bit`` indexes the protected word: bits ``0..STATE_BITS-1`` hit the
        coherence state, higher bits hit the tag.  Bits at or above the
        check-bit boundary flip a check bit instead.
        """
        if bit < 0 or bit >= self.stored_bits:
            raise ValidationError(f"bit index {bit} outside the stored word")
        self._check_resident(set_index, way)
        if bit < STATE_BITS:
            self._states[set_index, way] ^= 1 << bit
        elif bit < self._data_bits:
            self._tags[set_index, way] ^= 1 << (bit - STATE_BITS)
        else:
            self._states[set_index, way] ^= 1 << (
                self._check_shift + (bit - self._data_bits)
            )


class DirectoryScrubber:
    """Incremental background scrub of one ECC directory.

    Driven from the board's bus-cycle clock: every ``interval_cycles`` the
    scrubber examines the next ``sets_per_pass`` sets, wrapping around the
    directory — the patrol-scrub pattern of real memory controllers.

    Args:
        directory: the :class:`EccTagStateDirectory` to sweep.
        counters: resilience counter bank receiving ecc.* event counts.
        interval_cycles: bus cycles between partial passes.
        sets_per_pass: sets examined per pass.
    """

    def __init__(
        self,
        directory: EccTagStateDirectory,
        counters: Optional[CounterBank] = None,
        interval_cycles: float = DEFAULT_SCRUB_INTERVAL,
        sets_per_pass: int = DEFAULT_SETS_PER_PASS,
    ) -> None:
        if not isinstance(directory, EccTagStateDirectory):
            raise ConfigurationError(
                "the scrubber requires an ECC-protected directory"
            )
        if interval_cycles <= 0 or sets_per_pass < 1:
            raise ConfigurationError(
                "scrub interval and sets per pass must be positive"
            )
        self.directory = directory
        self.counters = counters
        self.interval_cycles = float(interval_cycles)
        self.sets_per_pass = int(sets_per_pass)
        self._cursor = 0
        self._next_due = self.interval_cycles

    def full_pass_cycles(self) -> float:
        """Bus cycles one complete sweep of the directory takes."""
        num_sets = self.directory.config.num_sets
        passes = (num_sets + self.sets_per_pass - 1) // self.sets_per_pass
        return passes * self.interval_cycles

    def tick(self, now_cycle: float) -> int:
        """Run any scrub passes that have come due; returns lines examined."""
        examined = 0
        num_sets = self.directory.config.num_sets
        while now_cycle >= self._next_due:
            for _ in range(self.sets_per_pass):
                examined += self.directory.scrub_set(self._cursor, self.counters)
                self._cursor = (self._cursor + 1) % num_sets
            self.directory.ecc_stats.scrub_passes += 1
            self._next_due += self.interval_cycles
        return examined

    def scrub_all(self) -> int:
        """One immediate full sweep (console diagnostic; tests)."""
        examined = 0
        for set_index in range(self.directory.config.num_sets):
            examined += self.directory.scrub_set(set_index, self.counters)
        self.directory.ecc_stats.scrub_passes += 1
        return examined

    def reset(self) -> None:
        """Restart the patrol from set 0 with a fresh schedule."""
        self._cursor = 0
        self._next_due = self.interval_cycles

    def state_dict(self) -> dict:
        """Checkpointable scrubber position."""
        return {"cursor": self._cursor, "next_due": self._next_due}

    def load_state_dict(self, state: dict) -> None:
        """Restore a checkpointed scrubber position."""
        self._cursor = int(state["cursor"])
        self._next_due = float(state["next_due"])
