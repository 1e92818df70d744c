"""Tests for repro.host.cache: the per-CPU snooping MESI L2."""

import pytest

from repro.bus.bus import SystemBus
from repro.common.errors import ConfigurationError
from repro.host.cache import MESIState, SnoopingCache


def make_cache(cpu_id=0, bus=None, size=4096, assoc=2, line_size=128):
    bus = bus if bus is not None else SystemBus()
    cache = SnoopingCache(cpu_id=cpu_id, bus=bus, size=size, assoc=assoc, line_size=line_size)
    bus.attach_snooper(cache)
    return cache


class TestConstruction:
    def test_rejects_zero_assoc(self):
        with pytest.raises(ConfigurationError):
            make_cache(assoc=0)

    def test_rejects_non_power_line(self):
        with pytest.raises(ConfigurationError):
            make_cache(line_size=100)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigurationError):
            make_cache(size=1000, assoc=2, line_size=128)

    def test_rejects_non_power_sets(self):
        with pytest.raises(ConfigurationError):
            make_cache(size=3 * 128 * 2, assoc=2, line_size=128)


class TestSingleCache:
    def test_cold_read_misses_then_hits(self):
        cache = make_cache()
        assert cache.access(0x1000, is_write=False) is False
        assert cache.access(0x1000, is_write=False) is True
        assert cache.stats.read_misses == 1

    def test_read_alone_installs_exclusive(self):
        cache = make_cache()
        cache.access(0x1000, is_write=False)
        assert cache.lookup_state(0x1000) is MESIState.EXCLUSIVE

    def test_write_installs_modified(self):
        cache = make_cache()
        cache.access(0x1000, is_write=True)
        assert cache.lookup_state(0x1000) is MESIState.MODIFIED

    def test_write_hit_on_exclusive_is_silent_upgrade(self):
        cache = make_cache()
        cache.access(0x1000, is_write=False)
        tenures_before = cache.bus.stats.tenures
        cache.access(0x1000, is_write=True)
        assert cache.lookup_state(0x1000) is MESIState.MODIFIED
        assert cache.bus.stats.tenures == tenures_before  # no DCLAIM needed

    def test_same_line_different_offsets_hit(self):
        cache = make_cache()
        cache.access(0x1000, is_write=False)
        assert cache.access(0x1000 + 64, is_write=False) is True

    def test_lru_eviction_order(self):
        cache = make_cache(size=2 * 128, assoc=2, line_size=128)  # one set, 2 ways
        cache.access(0x0000, False)
        cache.access(0x1000, False)
        cache.access(0x0000, False)  # refresh line 0
        cache.access(0x2000, False)  # evicts 0x1000 (LRU)
        assert cache.lookup_state(0x0000) is not MESIState.INVALID
        assert cache.lookup_state(0x1000) is MESIState.INVALID

    def test_dirty_eviction_casts_out(self):
        bus = SystemBus()
        cache = make_cache(bus=bus, size=2 * 128, assoc=2)
        cache.access(0x0000, True)
        cache.access(0x1000, False)
        cache.access(0x2000, False)  # evicts dirty 0x0000
        assert cache.stats.castouts == 1
        assert bus.stats.castouts == 1

    def test_clean_eviction_is_silent(self):
        bus = SystemBus()
        cache = make_cache(bus=bus, size=2 * 128, assoc=2)
        cache.access(0x0000, False)
        cache.access(0x1000, False)
        cache.access(0x2000, False)
        assert bus.stats.castouts == 0

    def test_resident_lines_bounded(self):
        cache = make_cache(size=4096, assoc=2, line_size=128)
        for i in range(100):
            cache.access(i * 128, False)
        assert cache.resident_lines() <= 4096 // 128

    def test_stats_accumulate(self):
        cache = make_cache()
        cache.access(0x0000, False)
        cache.access(0x0000, True)
        cache.access(0x2000, True)
        stats = cache.stats
        assert stats.accesses == 3
        assert stats.read_accesses == 1
        assert stats.write_accesses == 2
        assert stats.hits == 1
        assert stats.miss_ratio == pytest.approx(2 / 3)


class TestTwoCacheCoherence:
    def setup_method(self):
        self.bus = SystemBus()
        self.a = make_cache(cpu_id=0, bus=self.bus)
        self.b = make_cache(cpu_id=1, bus=self.bus)

    def test_read_after_read_both_shared(self):
        self.a.access(0x1000, False)
        self.b.access(0x1000, False)
        assert self.a.lookup_state(0x1000) is MESIState.SHARED
        assert self.b.lookup_state(0x1000) is MESIState.SHARED

    def test_read_of_modified_triggers_intervention(self):
        self.a.access(0x1000, True)
        self.b.access(0x1000, False)
        assert self.a.stats.interventions_supplied == 1
        assert self.a.lookup_state(0x1000) is MESIState.SHARED
        assert self.b.lookup_state(0x1000) is MESIState.SHARED

    def test_write_invalidates_other_copy(self):
        self.a.access(0x1000, False)
        self.b.access(0x1000, True)
        assert self.a.lookup_state(0x1000) is MESIState.INVALID
        assert self.b.lookup_state(0x1000) is MESIState.MODIFIED
        assert self.a.stats.snoop_invalidations == 1

    def test_write_hit_on_shared_issues_dclaim(self):
        self.a.access(0x1000, False)
        self.b.access(0x1000, False)  # both shared
        dclaims_before = self.bus.stats.dclaims
        self.a.access(0x1000, True)
        assert self.bus.stats.dclaims == dclaims_before + 1
        assert self.a.stats.upgrades == 1
        assert self.b.lookup_state(0x1000) is MESIState.INVALID

    def test_castout_does_not_disturb_peers(self):
        self.a.access(0x1000, False)
        # b casts out an unrelated dirty line; a keeps its copy
        b = make_cache(cpu_id=2, bus=self.bus, size=2 * 128, assoc=2)
        b.access(0x0000, True)
        b.access(0x1000 + 0x4000, False)
        b.access(0x8000, False)  # evicts dirty 0x0000 -> castout
        assert self.a.lookup_state(0x1000) is not MESIState.INVALID

    def test_single_writer_invariant(self):
        self.a.access(0x1000, True)
        self.b.access(0x1000, True)
        modified_holders = [
            cache
            for cache in (self.a, self.b)
            if cache.lookup_state(0x1000) is MESIState.MODIFIED
        ]
        assert len(modified_holders) == 1
