"""Tests for the inclusive cache hierarchy and the LLC slice hash."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.cache import Cache
from repro.memsys.hierarchy import CacheHierarchy, MemoryLevel
from repro.memsys.slice_hash import SliceHash
from repro.params import CACHE_LINE_SIZE, COFFEE_LAKE_I7_9700, HASWELL_I7_4770, CacheGeometry
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


class TestSliceTable:
    @pytest.mark.parametrize("n_slices", [1, 2, 4, 8])
    def test_table_matches_slice_hash(self, n_slices):
        """Frame slice XOR in-page slice equals ``SliceHash.slice_of``."""
        params = dataclasses.replace(COFFEE_LAKE_I7_9700, llc_slices=n_slices)
        hierarchy = CacheHierarchy(params)
        reference = SliceHash(n_slices)
        for paddr in make_rng(n_slices).integers(0, 2**36, 10_000).tolist():
            slice_id = reference.slice_of(paddr)
            assert hierarchy.llc_set_index(paddr)[0] == slice_id, hex(paddr)
            assert hierarchy.llc_slice(paddr) is hierarchy.llc[slice_id]


class _ReferenceHierarchy:
    """The per-level composition the one-pass ``access`` replaced.

    Each level is driven only through ``Cache.lookup``/``insert``/
    ``invalidate`` with byte addresses, the LLC slice comes from
    ``SliceHash.slice_of``, and an LLC eviction back-invalidates L1 and L2.
    """

    def __init__(self, params):
        self.l1 = Cache(params.l1d)
        self.l2 = Cache(params.l2)
        self.slice_hash = SliceHash(params.llc_slices)
        self.llc = [Cache(params.llc) for _ in range(params.llc_slices)]
        self.line_size = params.l1d.line_size
        self.prefetched: set[int] = set()
        self.demand_accesses = self.prefetch_fills = 0
        self.prefetch_useful = self.prefetch_useless = 0

    def _lose(self, line):
        if line in self.prefetched:
            self.prefetched.discard(line)
            self.prefetch_useless += 1

    def _fill_from_dram(self, paddr, llc, into_l1):
        evicted = llc.insert(paddr)
        if evicted is not None:
            self.l1.invalidate(evicted)
            self.l2.invalidate(evicted)
            self._lose(evicted)
        self.l2.insert(paddr)
        if into_l1:
            self.l1.insert(paddr)

    def access(self, paddr):
        self.demand_accesses += 1
        line = paddr & -self.line_size
        if line in self.prefetched:
            self.prefetched.discard(line)
            self.prefetch_useful += 1
        if self.l1.lookup(paddr):
            return MemoryLevel.L1
        if self.l2.lookup(paddr):
            self.l1.insert(paddr)
            return MemoryLevel.L2
        llc = self.llc[self.slice_hash.slice_of(paddr)]
        if llc.lookup(paddr):
            self.l2.insert(paddr)
            self.l1.insert(paddr)
            return MemoryLevel.LLC
        self._fill_from_dram(paddr, llc, into_l1=True)
        return MemoryLevel.DRAM

    def insert_prefetch(self, paddr):
        self.prefetch_fills += 1
        self._fill_from_dram(paddr, self.llc[self.slice_hash.slice_of(paddr)], into_l1=False)
        self.prefetched.add(paddr & -self.line_size)

    def clflush(self, paddr):
        self.l1.invalidate(paddr)
        self.l2.invalidate(paddr)
        self.llc[self.slice_hash.slice_of(paddr)].invalidate(paddr)
        self._lose(paddr & -self.line_size)


def _tiny_params(n_slices, line_size):
    """Few sets and ways, so short streams evict at every level.

    The LLC sets are the smallest, so lines often leave the LLC while the
    L1 or L2 still holds them: the back-invalidation path runs often.
    """
    return dataclasses.replace(
        COFFEE_LAKE_I7_9700,
        l1d=CacheGeometry(name="L1D", sets=2, ways=2, latency=4, line_size=line_size),
        l2=CacheGeometry(name="L2", sets=2, ways=4, latency=14, line_size=line_size),
        llc=CacheGeometry(name="LLC", sets=4, ways=2, latency=42, line_size=line_size),
        llc_slices=n_slices,
    )


# Line numbers: a few low lines in each of a few frames spread over the
# 36-bit physical space, so slices and sets both collide often.
_LINES = st.builds(
    lambda low, high: high | low,
    st.integers(0, 23),
    st.sampled_from([0, 1 << 10, 1 << 16, 1 << 22, 1 << 29]),
)
_HIERARCHY_OPS = st.lists(
    st.tuples(
        st.sampled_from(["access"] * 6 + ["insert_prefetch"] * 2 + ["clflush"]),
        _LINES,
        st.integers(0, CACHE_LINE_SIZE - 1),
    ),
    max_size=250,
)


def _state(h):
    caches = [("L1", h.l1), ("L2", h.l2)] + [(f"LLC{i}", c) for i, c in enumerate(h.llc)]
    counters = [h.demand_accesses, h.prefetch_fills, h.prefetch_useful, h.prefetch_useless]
    counters += [(cache.hits, cache.misses) for _, cache in caches]
    resident = {name: [list(lines) for lines in cache.sets] for name, cache in caches}
    return counters, resident


@pytest.mark.parametrize("line_size", [32, CACHE_LINE_SIZE])
@pytest.mark.parametrize("n_slices", [1, 2, 4, 8])
@settings(max_examples=100, deadline=None)
@given(ops=_HIERARCHY_OPS)
def test_one_pass_hierarchy_matches_per_level_reference(n_slices, line_size, ops):
    """Same served level per access, every counter, and every set's
    resident lines in LRU order, for any access/prefetch/flush stream."""
    params = _tiny_params(n_slices, line_size)
    hierarchy, reference = CacheHierarchy(params), _ReferenceHierarchy(params)
    for op, line, offset in ops:
        paddr = line * line_size + offset % line_size
        if op == "access":
            assert hierarchy.access(paddr).level is reference.access(paddr), (op, hex(paddr))
        else:
            getattr(hierarchy, op)(paddr)
            getattr(reference, op)(paddr)
        assert _state(hierarchy) == _state(reference), (op, hex(paddr))
