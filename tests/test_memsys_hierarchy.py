"""Tests for the inclusive cache hierarchy and the LLC slice hash."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.hierarchy import CacheHierarchy, MemoryLevel
from repro.memsys.slice_hash import SliceHash
from repro.params import COFFEE_LAKE_I7_9700, HASWELL_I7_4770
from repro.utils.rng import make_rng


@pytest.fixture
def hierarchy():
    return CacheHierarchy(COFFEE_LAKE_I7_9700)


class TestAccessPath:
    def test_cold_access_goes_to_dram(self, hierarchy):
        result = hierarchy.access(0x1000)
        assert result.level is MemoryLevel.DRAM
        assert not result.hit
        assert result.latency == COFFEE_LAKE_I7_9700.dram_latency

    def test_second_access_hits_l1(self, hierarchy):
        hierarchy.access(0x1000)
        result = hierarchy.access(0x1000)
        assert result.level is MemoryLevel.L1
        assert result.latency == COFFEE_LAKE_I7_9700.l1d.latency

    def test_fill_installs_in_all_levels(self, hierarchy):
        hierarchy.access(0x1000)
        assert hierarchy.l1.contains(0x1000)
        assert hierarchy.l2.contains(0x1000)
        assert hierarchy.llc_slice(0x1000).contains(0x1000)

    def test_latency_ordering(self, hierarchy):
        latencies = [hierarchy.latency_of(level) for level in MemoryLevel]
        assert latencies == sorted(latencies)

    def test_each_level_returns_one_shared_frozen_result(self, hierarchy):
        # access() hands out one constant per level instead of a new object
        # per load; sharing is only safe because the constants are frozen.
        # The L2 and LLC lines are cleared from the levels above between
        # accesses, so every access below is served by the named level.
        served: dict[MemoryLevel, list] = {level: [] for level in MemoryLevel}
        for paddr in (0x1000, 0x2000, 0x3000):
            served[MemoryLevel.DRAM].append(hierarchy.access(paddr))
            served[MemoryLevel.L1].append(hierarchy.access(paddr))
            hierarchy.l1.invalidate(paddr)
            served[MemoryLevel.L2].append(hierarchy.access(paddr))
            hierarchy.l1.invalidate(paddr)
            hierarchy.l2.invalidate(paddr)
            served[MemoryLevel.LLC].append(hierarchy.access(paddr))
        for level, results in served.items():
            first = results[0]
            assert all(result is first for result in results), level
            assert first.level is level
            assert first.latency == hierarchy.latency_of(level)
            with pytest.raises(dataclasses.FrozenInstanceError):
                first.latency = 0


class TestPrefetchFills:
    def test_prefetch_lands_in_l2_not_l1(self, hierarchy):
        hierarchy.insert_prefetch(0x2000)
        assert not hierarchy.l1.contains(0x2000)
        assert hierarchy.l2.contains(0x2000)
        assert hierarchy.llc_slice(0x2000).contains(0x2000)

    def test_prefetched_access_is_l2_hit(self, hierarchy):
        hierarchy.insert_prefetch(0x2000)
        result = hierarchy.access(0x2000)
        assert result.level is MemoryLevel.L2
        # Below the paper's 120-cycle LLC-hit threshold.
        assert result.latency < COFFEE_LAKE_I7_9700.llc_hit_threshold

    def test_prefetch_counter(self, hierarchy):
        hierarchy.insert_prefetch(0x2000)
        hierarchy.insert_prefetch(0x3000)
        assert hierarchy.prefetch_fills == 2


class TestClflush:
    def test_flush_removes_from_all_levels(self, hierarchy):
        hierarchy.access(0x1000)
        hierarchy.clflush(0x1000)
        assert hierarchy.contains(0x1000) is None
        assert hierarchy.access(0x1000).level is MemoryLevel.DRAM

    def test_flush_is_line_granular(self, hierarchy):
        hierarchy.access(0x1000)
        hierarchy.access(0x1040)
        hierarchy.clflush(0x1000)
        assert hierarchy.contains(0x1040) is not None


class TestInclusivity:
    def test_llc_eviction_back_invalidates(self, hierarchy):
        """Evicting a line from the LLC must remove it from L1/L2 — the
        property Prime+Probe depends on (paper §5.1)."""
        target = 0x10000
        hierarchy.access(target)
        assert hierarchy.l1.contains(target)
        slice_cache = hierarchy.llc_slice(target)
        slice_id, set_index = hierarchy.llc_set_index(target)
        # Fill the target's LLC set with conflicting lines.
        ways = COFFEE_LAKE_I7_9700.llc.ways
        filled = 0
        candidate = target
        while filled < ways + 4:
            candidate += COFFEE_LAKE_I7_9700.llc.sets * 64  # same set index
            if hierarchy.llc_set_index(candidate) == (slice_id, set_index):
                hierarchy.access(candidate)
                filled += 1
        assert not slice_cache.contains(target)
        assert not hierarchy.l1.contains(target)
        assert not hierarchy.l2.contains(target)

    def test_flush_all(self, hierarchy):
        for i in range(32):
            hierarchy.access(i * 64)
        hierarchy.flush_all()
        assert all(hierarchy.contains(i * 64) is None for i in range(32))


class TestSliceHash:
    def test_slice_count_validation(self):
        with pytest.raises(ValueError):
            SliceHash(3)

    def test_single_slice_always_zero(self):
        h = SliceHash(1)
        assert h.slice_of(0xDEADBEEF) == 0

    @pytest.mark.parametrize("n_slices", [2, 4, 8])
    def test_slices_in_range(self, n_slices):
        h = SliceHash(n_slices)
        rng = make_rng(0)
        for addr in rng.integers(0, 2**33, 200):
            assert 0 <= h.slice_of(int(addr)) < n_slices

    def test_roughly_balanced(self):
        h = SliceHash(8)
        rng = make_rng(1)
        counts = np.zeros(8)
        n = 8000
        for addr in rng.integers(0, 2**33, n):
            counts[h.slice_of(int(addr))] += 1
        assert counts.min() > n / 8 * 0.8
        assert counts.max() < n / 8 * 1.2

    def test_deterministic(self):
        h = SliceHash(8)
        assert h.slice_of(0x12345678) == h.slice_of(0x12345678)

    def test_haswell_has_four_slices(self):
        hierarchy = CacheHierarchy(HASWELL_I7_4770)
        assert len(hierarchy.llc) == 4

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**33))
    def test_line_granularity(self, addr):
        """All bytes of one cache line map to the same slice."""
        h = SliceHash(8)
        line_start = (addr // 64) * 64
        assert h.slice_of(line_start) == h.slice_of(line_start + 63)
