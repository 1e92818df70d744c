"""Tests for repro.memories.cache_model: the SDRAM tag/state directory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memories.cache_model import TagStateDirectory
from repro.memories.config import CacheNodeConfig
from repro.memories.protocol_table import LineState


def make_directory(size=16 * 1024, assoc=4, line_size=128, replacement="lru"):
    config = CacheNodeConfig(
        size=size, assoc=assoc, line_size=line_size, replacement=replacement
    )
    return TagStateDirectory(config)


class TestProbeInstall:
    def test_probe_miss_then_hit(self):
        directory = make_directory()
        set_index, tag, way = directory.probe(0x1000)
        assert way == -1
        directory.install(set_index, tag, int(LineState.SHARED))
        _, _, way = directory.probe(0x1000)
        assert way >= 0

    def test_state_read_write(self):
        directory = make_directory()
        set_index, tag, _ = directory.probe(0x2000)
        directory.install(set_index, tag, int(LineState.EXCLUSIVE))
        _, _, way = directory.probe(0x2000)
        assert directory.state_at(set_index, way) == int(LineState.EXCLUSIVE)
        directory.set_state(set_index, way, int(LineState.MODIFIED))
        assert directory.lookup_state(0x2000) == int(LineState.MODIFIED)

    def test_lookup_state_absent_is_invalid(self):
        assert make_directory().lookup_state(0x9999) == int(LineState.INVALID)

    def test_install_evicts_when_full(self):
        directory = make_directory(size=4 * 128, assoc=4)  # one set
        for i in range(4):
            set_index, tag, _ = directory.probe(i * 128)
            assert directory.install(set_index, tag, 1) is None
        set_index, tag, _ = directory.probe(4 * 128)
        evicted = directory.install(set_index, tag, 1)
        assert evicted is not None
        victim_addr, _state = evicted
        assert victim_addr == 0  # LRU: the first line installed

    def test_eviction_returns_line_address_and_state(self):
        directory = make_directory(size=2 * 128, assoc=2)
        s0, t0, _ = directory.probe(0x0000)
        directory.install(s0, t0, int(LineState.MODIFIED))
        s1, t1, _ = directory.probe(0x8000)
        directory.install(s1, t1, int(LineState.SHARED))
        s2, t2, _ = directory.probe(0x10000)
        evicted = directory.install(s2, t2, int(LineState.SHARED))
        assert evicted == (0x0000, int(LineState.MODIFIED))

    def test_invalidate_removes_line(self):
        directory = make_directory()
        set_index, tag, _ = directory.probe(0x3000)
        directory.install(set_index, tag, 2)
        _, _, way = directory.probe(0x3000)
        former = directory.invalidate(set_index, way)
        assert former == 2
        assert directory.lookup_state(0x3000) == int(LineState.INVALID)

    def test_touch_refreshes_lru(self):
        directory = make_directory(size=2 * 128, assoc=2)
        s, t0, _ = directory.probe(0 * 128 * directory.config.num_sets)
        directory.install(s, t0, 1)
        addr_b = 1 << 20
        sb, tb, _ = directory.probe(addr_b)
        directory.install(sb, tb, 1)
        # Touch the first line so the second becomes LRU.
        _, _, way = directory.probe(0)
        directory.touch(0, way)
        s2, t2, _ = directory.probe(1 << 21)
        evicted = directory.install(s2, t2, 1)
        assert evicted[0] == addr_b


class TestWholeDirectory:
    def test_resident_and_occupancy(self):
        directory = make_directory(size=8 * 128, assoc=2)
        for i in range(4):
            s, t, _ = directory.probe(i * 128)
            directory.install(s, t, 1)
        assert directory.resident_lines() == 4
        assert directory.occupancy() == pytest.approx(0.5)

    def test_iter_lines_rebuilds_addresses(self):
        directory = make_directory()
        addresses = {0x1000, 0x2080, 0x40100}
        for address in addresses:
            s, t, _ = directory.probe(address)
            directory.install(s, t, 1)
        listed = {addr for addr, _state in directory.iter_lines()}
        assert listed == {a & ~127 for a in addresses}

    def test_clear(self):
        directory = make_directory()
        s, t, _ = directory.probe(0x1000)
        directory.install(s, t, 1)
        directory.clear()
        assert directory.resident_lines() == 0

    def test_check_invariants_passes_after_traffic(self):
        directory = make_directory(size=1024, assoc=2)
        for i in range(100):
            s, t, _ = directory.probe((i * 937) % (1 << 16) * 128)
            if directory.probe((i * 937) % (1 << 16) * 128)[2] < 0:
                directory.install(s, t, 1)
        directory.check_invariants()

    def test_bit_flip_of_an_empty_way_is_refused(self):
        from repro.common.errors import EmulationError

        directory = make_directory(size=4 * 128, assoc=4)
        s, t, _ = directory.probe(0)
        directory.install(s, t, 1)
        with pytest.raises(EmulationError, match="no line at way 1"):
            directory.inject_bit_flip(s, 1, 0)
        directory.check_invariants()


@st.composite
def directory_ops(draw):
    return draw(
        st.lists(
            st.tuples(
                st.integers(0, 31),   # line index
                st.integers(1, 3),    # state
                st.sampled_from(["access", "invalidate"]),
            ),
            min_size=1,
            max_size=200,
        )
    )


class TestPropertyBased:
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random", "plru"])
    def test_invariants_under_random_ops_all_policies(self, replacement):
        import numpy as np

        rng = np.random.default_rng(5)
        directory = make_directory(size=8 * 128, assoc=4, replacement=replacement)
        for _ in range(500):
            address = int(rng.integers(0, 64)) * 128
            set_index, tag, way = directory.probe(address)
            if way < 0:
                directory.install(set_index, tag, int(rng.integers(1, 4)))
            else:
                directory.touch(set_index, way)
            directory.check_invariants()

    @given(ops=directory_ops())
    @settings(max_examples=50, deadline=None)
    def test_lru_invariants_property(self, ops):
        directory = make_directory(size=4 * 128, assoc=2)
        for line, state, kind in ops:
            address = line * 128
            set_index, tag, way = directory.probe(address)
            if kind == "access":
                if way < 0:
                    directory.install(set_index, tag, state)
                else:
                    directory.set_state(set_index, way, state)
                    directory.touch(set_index, way)
            elif way >= 0:
                directory.invalidate(set_index, way)
        directory.check_invariants()
        assert directory.resident_lines() <= directory.config.num_lines


class MutableMetaPolicy:
    """Test double: a policy whose per-set metadata is a mutable log.

    The built-in policies use integer metadata, where accidental sharing
    across sets is invisible (rebinding an int never aliases).  This
    policy makes the per-set-instance contract observable.
    """

    name = "log"
    needs_meta = True

    def make_meta(self):
        return []

    def touch(self, tags, states, way, meta):
        meta.append(way)
        return way, meta

    def insert(self, tags, states, tag, state, assoc, meta):
        victim = None
        if len(tags) >= assoc:
            victim = (tags.pop(), states.pop())
        tags.insert(0, tag)
        states.insert(0, state)
        meta.append(-1)
        return victim, meta


class TestPerSetMetadata:
    def make_logging_directory(self):
        config = CacheNodeConfig(size=8 * 128, assoc=2, line_size=128)
        return TagStateDirectory(config, policy=MutableMetaPolicy())

    def test_meta_instances_distinct_per_set(self):
        directory = self.make_logging_directory()
        metas = directory._meta
        assert len({id(meta) for meta in metas}) == len(metas)

    def test_mutating_one_set_does_not_leak(self):
        directory = self.make_logging_directory()
        set_index, tag, _ = directory.probe(0)
        directory.install(set_index, tag, 1)
        _, _, way = directory.probe(0)
        directory.touch(set_index, way)
        assert directory._meta[set_index] == [-1, way]
        for other, meta in enumerate(directory._meta):
            if other != set_index:
                assert meta == []

    def test_clear_rebuilds_distinct_meta(self):
        directory = self.make_logging_directory()
        set_index, tag, _ = directory.probe(0)
        directory.install(set_index, tag, 1)
        directory.clear()
        metas = directory._meta
        assert all(meta == [] for meta in metas)
        assert len({id(meta) for meta in metas}) == len(metas)


class TestWayMapCoherence:
    """The directory rows keep their invariants at all times: each set's
    lines are a prefix of its row, and a probe finds a tag at its first
    occurrence."""

    @staticmethod
    def assert_rows(directory, set_index):
        """One set's row invariants, duplicates allowed."""
        row = directory._tags[set_index].tolist()
        tags = directory.set_tags(set_index)
        assert row == tags + [-1] * (len(row) - len(tags)), row
        assert all(tag >= 0 for tag in tags), row
        for tag in tags:
            address = directory.amap.rebuild(tag, set_index)
            assert directory.probe(address)[2] == tags.index(tag)

    def assert_map_matches_scan(self, directory):
        directory.check_invariants()
        for set_index in range(directory.config.num_sets):
            self.assert_rows(directory, set_index)

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random", "plru"])
    def test_map_tracks_mixed_traffic(self, replacement):
        import numpy as np

        rng = np.random.default_rng(11)
        directory = make_directory(size=8 * 128, assoc=4, replacement=replacement)
        for step in range(600):
            address = int(rng.integers(0, 96)) * 128
            set_index, tag, way = directory.probe(address)
            roll = rng.random()
            if way < 0:
                directory.install(set_index, tag, int(rng.integers(1, 4)))
            elif roll < 0.7:
                directory.touch(set_index, way)
            else:
                directory.invalidate(set_index, way)
            if step % 50 == 0:
                self.assert_map_matches_scan(directory)
        self.assert_map_matches_scan(directory)

    def test_map_survives_bit_flip(self):
        directory = make_directory(size=4 * 128, assoc=4)
        for i in range(3):
            set_index, tag, _ = directory.probe(i * 128 * directory.config.num_sets)
            directory.install(set_index, tag, 1)
        directory.inject_bit_flip(0, 1, 3)
        self.assert_map_matches_scan(directory)
        # The flipped tag is findable at its corrupted value.
        corrupted = directory.set_tags(0)[1]
        assert directory.probe(directory.amap.rebuild(corrupted, 0))[2] == 1

    def test_map_rebuilt_by_state_roundtrip(self):
        directory = make_directory(size=8 * 128, assoc=2)
        for i in range(10):
            set_index, tag, way = directory.probe(i * 128)
            if way < 0:
                directory.install(set_index, tag, 1)
        fresh = make_directory(size=8 * 128, assoc=2)
        fresh.load_state_dict(directory.state_dict())
        self.assert_map_matches_scan(fresh)
        assert fresh._tags.tolist() == directory._tags.tolist()
        assert fresh._states.tolist() == directory._states.tolist()
        for i in range(10):
            assert fresh.probe(i * 128) == directory.probe(i * 128)

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random", "plru"])
    def test_duplicate_tags_keep_first_occurrence(self, replacement):
        """Sets holding a (corrupted) duplicate tag: after every touch,
        invalidate and install the row keeps its lines a prefix and a
        probe finds each tag at its first occurrence, as a checkpoint
        restore of the same row does."""
        seeds = [[5, 5, 7, 9], [7, 5, 5, 9], [5, 7, 5, 9], [7, 9, 5, 5],
                 [5, 7, 9, 5], [5, 5, 5, 7], [5, 5]]

        def seeded(tags):
            directory = make_directory(size=8 * 128, assoc=4,
                                       replacement=replacement)
            directory._put_row(0, list(tags), [1] * len(tags))
            return directory

        def assert_rebuilt(directory, action):
            self.assert_rows(directory, 0)
            restored = make_directory(size=8 * 128, assoc=4,
                                      replacement=replacement)
            restored.load_state_dict(directory.state_dict())
            assert restored._tags.tolist() == directory._tags.tolist(), action

        for tags in seeds:
            for way in range(len(tags)):
                directory = seeded(tags)
                directory.touch(0, way)
                assert_rebuilt(directory, ("touch", tags, way))
                directory = seeded(tags)
                directory.invalidate(0, way)
                assert_rebuilt(directory, ("invalidate", tags, way))
            directory = seeded(tags)
            directory.install(0, 11, 1)
            assert_rebuilt(directory, ("install", tags))
            # A run of operations, checked after each one.
            directory = seeded(tags)
            for tag in (9, 5, 7, 11, 5, 13):
                way = directory.probe(directory.amap.rebuild(tag, 0))[2]
                if way < 0:
                    directory.install(0, tag, 1)
                    action = "install"
                elif tag == 5:
                    directory.invalidate(0, way)
                    action = "invalidate"
                else:
                    directory.touch(0, way)
                    action = "touch"
                assert_rebuilt(directory, (action, tags, tag))

    def test_check_invariants_detects_stale_map(self):
        from repro.common.errors import EmulationError

        directory = make_directory(size=4 * 128, assoc=2)
        set_index, tag, _ = directory.probe(0)
        directory.install(set_index, tag, 1)
        directory.check_invariants()
        # An empty way before a tag: the line is no longer in the prefix.
        directory._tags[set_index] = [-1, tag]
        directory._states[set_index] = [0, 1]
        with pytest.raises(EmulationError, match="not a prefix"):
            directory.check_invariants()
        # A duplicate tag.
        directory._tags[set_index] = [tag, tag]
        directory._states[set_index] = [1, 1]
        with pytest.raises(EmulationError, match="duplicate tags"):
            directory.check_invariants()
        # A state left in an empty way.
        directory._tags[set_index] = [tag, -1]
        with pytest.raises(EmulationError, match="empty way"):
            directory.check_invariants()
