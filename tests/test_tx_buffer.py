"""Tests for repro.memories.tx_buffer: SDRAM pacing and retry behaviour."""

import pytest

from repro.memories.tx_buffer import (
    NODE_BUFFER_ENTRIES,
    SDRAM_BANDWIDTH_FRACTION,
    TransactionBuffer,
    service_cycles_per_op,
)


class TestServiceModel:
    def test_service_cycles_from_bandwidth(self):
        assert service_cycles_per_op(0.42, 2) == pytest.approx(2 / 0.42)

    def test_full_bandwidth_is_tenure_rate(self):
        assert service_cycles_per_op(1.0, 2) == 2.0

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_invalid_fraction_rejected(self, fraction):
        with pytest.raises(ValueError):
            service_cycles_per_op(fraction)


class TestTransactionBuffer:
    def test_accepts_until_capacity(self):
        buffer = TransactionBuffer(capacity=3, service_cycles=1000.0)
        results = [buffer.offer(0.0) for _ in range(4)]
        assert results == [True, True, True, False]
        assert buffer.stats.rejected == 1

    def test_drains_at_service_rate(self):
        buffer = TransactionBuffer(capacity=2, service_cycles=10.0)
        assert buffer.offer(0.0)
        assert buffer.offer(0.0)
        assert not buffer.offer(5.0)     # neither op finished yet
        assert buffer.offer(10.5)        # first op done at t=10
        assert buffer.occupancy(20.5) == 1  # second done at 20, third pending

    def test_sequential_service_not_parallel(self):
        buffer = TransactionBuffer(capacity=10, service_cycles=10.0)
        buffer.offer(0.0)
        buffer.offer(0.0)
        # Second op starts only when the first completes: finishes at 20.
        assert buffer.occupancy(19.0) == 1
        assert buffer.occupancy(20.0) == 0

    def test_high_water_tracked(self):
        buffer = TransactionBuffer(capacity=8, service_cycles=100.0)
        for _ in range(5):
            buffer.offer(0.0)
        assert buffer.stats.high_water == 5

    def test_reset(self):
        buffer = TransactionBuffer(capacity=2, service_cycles=10.0)
        buffer.offer(0.0)
        buffer.reset()
        assert buffer.occupancy(0.0) == 0
        assert buffer.stats.accepted == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TransactionBuffer(capacity=0)


class TestPaperDesignPoint:
    def test_never_rejects_at_20_percent_utilization(self):
        """Section 3.3: months of lab use, never one retry at <= 20% load."""
        buffer = TransactionBuffer(capacity=NODE_BUFFER_ENTRIES)
        cycles_per_tenure = 2.0 / 0.20
        now = 0.0
        for _ in range(50_000):
            now += cycles_per_tenure
            assert buffer.offer(now)
        assert not buffer.stats.ever_rejected

    def test_never_rejects_at_42_percent_utilization(self):
        buffer = TransactionBuffer(capacity=NODE_BUFFER_ENTRIES)
        cycles_per_tenure = 2.0 / SDRAM_BANDWIDTH_FRACTION
        now = 0.0
        for _ in range(50_000):
            now += cycles_per_tenure
            assert buffer.offer(now)

    def test_sustained_overload_eventually_rejects(self):
        buffer = TransactionBuffer(capacity=NODE_BUFFER_ENTRIES)
        cycles_per_tenure = 2.0 / 0.9  # 90% sustained: beyond SDRAM rate
        now = 0.0
        rejected = 0
        for _ in range(20_000):
            now += cycles_per_tenure
            if not buffer.offer(now):
                rejected += 1
        assert rejected > 0

    def test_burst_absorbed_by_deep_buffer(self):
        buffer = TransactionBuffer(capacity=NODE_BUFFER_ENTRIES)
        # A 512-tenure burst at full bus rate fits exactly.
        for i in range(NODE_BUFFER_ENTRIES):
            assert buffer.offer(2.0 * i)


class TestOfferBatch:
    """offer_batch must be exactly offer() per element, only faster."""

    def assert_batch_matches_loop(self, arrivals, capacity=4, service=10.0,
                                  prime=None):
        import numpy as np

        def primed():
            buffer = TransactionBuffer(capacity=capacity, service_cycles=service)
            for t in prime or ():
                buffer.offer(t)
            return buffer

        def assert_same(buffer, loop):
            assert buffer.stats == loop.stats
            assert list(buffer._finish_times) == list(loop._finish_times)
            assert buffer._last_finish == loop._last_finish

        batch, loop = primed(), primed()
        # Which batches take the fast path: those offer_batch settles
        # through admit_drained.
        fast = []
        admit_drained = batch.admit_drained

        def spy(count, last):
            fast.append((count, last))
            admit_drained(count, last)

        batch.admit_drained = spy
        accepted_batch = batch.offer_batch(np.asarray(arrivals, dtype=np.float64))
        accepted_loop = sum(1 for t in arrivals if loop.offer(t))
        assert accepted_batch == accepted_loop
        assert_same(batch, loop)
        if fast:
            # The closed form on its own is the offer loop too.
            assert fast == [(len(arrivals), arrivals[-1])]
            drained = primed()
            drained.admit_drained(len(arrivals), float(arrivals[-1]))
            assert_same(drained, loop)

    def test_well_spaced_fast_path(self):
        self.assert_batch_matches_loop([0.0, 15.0, 30.0, 45.0])

    def test_exact_service_spacing_is_fast_path(self):
        # arrival[i-1] + service == arrival[i]: the previous op has just
        # finished (finish <= now drains), so depth stays at one.
        self.assert_batch_matches_loop([0.0, 10.0, 20.0, 30.0])

    def test_tight_spacing_falls_back(self):
        self.assert_batch_matches_loop([0.0, 1.0, 2.0, 3.0, 50.0, 51.0])

    def test_overflow_rejections_match(self):
        arrivals = [0.0] * 7  # burst: fills capacity 4, rejects 3
        self.assert_batch_matches_loop(arrivals)

    def test_busy_queue_falls_back(self):
        self.assert_batch_matches_loop(
            [5.0, 20.0, 35.0], prime=[0.0, 0.0, 0.0]
        )

    def test_drained_queue_uses_fast_path(self):
        self.assert_batch_matches_loop([100.0, 115.0], prime=[0.0])

    def test_empty_batch(self):
        import numpy as np

        buffer = TransactionBuffer(capacity=2, service_cycles=10.0)
        assert buffer.offer_batch(np.zeros(0)) == 0
        assert buffer.stats.accepted == 0

    def test_high_water_floor_on_fast_path(self):
        import numpy as np

        buffer = TransactionBuffer(capacity=4, service_cycles=1.0)
        buffer.offer_batch(np.asarray([0.0, 5.0, 10.0]))
        assert buffer.stats.high_water == 1
        assert buffer.stats.accepted == 3
