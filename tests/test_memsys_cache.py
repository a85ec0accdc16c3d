"""Unit and property tests for the set-associative cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.cache import Cache
from repro.memsys.replacement import LRUPolicy
from repro.params import CacheGeometry

SMALL = CacheGeometry(name="test", sets=4, ways=2, latency=4)


def make_cache():
    return Cache(SMALL)


class TestBasics:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not cache.lookup(0x1000)
        cache.insert(0x1000)
        assert cache.lookup(0x1000)

    def test_same_line_different_bytes(self):
        cache = make_cache()
        cache.insert(0x1000)
        assert cache.lookup(0x103F)  # last byte of the same line
        assert not cache.contains(0x1040)  # next line

    def test_contains_does_not_mutate(self):
        cache = make_cache()
        cache.insert(0)  # set 0
        cache.insert(4 * 64)  # set 0, different tag
        # `contains` must not refresh LRU: way holding addr 0 stays LRU.
        cache.contains(0)
        evicted = cache.insert(8 * 64)
        assert evicted == 0

    def test_eviction_returns_line_address(self):
        cache = make_cache()
        cache.insert(0)
        cache.insert(4 * 64)
        evicted = cache.insert(8 * 64)  # same set 0, third distinct tag
        assert evicted == 0

    def test_reinsert_does_not_evict(self):
        cache = make_cache()
        cache.insert(0x1000)
        assert cache.insert(0x1000) is None

    def test_invalidate(self):
        cache = make_cache()
        cache.insert(0x2000)
        assert cache.invalidate(0x2000)
        assert not cache.contains(0x2000)
        assert not cache.invalidate(0x2000)

    def test_flush_all(self):
        cache = make_cache()
        for i in range(8):
            cache.insert(i * 64)
        cache.flush_all()
        assert all(not cache.contains(i * 64) for i in range(8))

    def test_stats(self):
        cache = make_cache()
        cache.lookup(0)
        cache.insert(0)
        cache.lookup(0)
        assert cache.misses == 1
        assert cache.hits == 1


class TestGeometry:
    def test_set_index_wraps(self):
        cache = make_cache()
        assert cache.set_index(0) == 0
        assert cache.set_index(64) == 1
        assert cache.set_index(4 * 64) == 0

    def test_line_address(self):
        cache = make_cache()
        assert cache.line_address(0x1234) == 0x1200

    def test_occupancy_capped_at_ways(self):
        cache = make_cache()
        for tag in range(10):
            cache.insert(tag * 4 * 64)  # all set 0
        assert cache.set_occupancy(0) == 2

    def test_resident_lines_roundtrip(self):
        cache = make_cache()
        inserted = {0, 64, 2 * 64}
        for addr in inserted:
            cache.insert(addr)
        assert set(cache.resident_lines()) == inserted


class TestLRUBehaviour:
    def test_lru_eviction_order(self):
        cache = make_cache()
        cache.insert(0)
        cache.insert(4 * 64)
        cache.lookup(0)  # refresh the older line
        evicted = cache.insert(8 * 64)
        assert evicted == 4 * 64


@settings(max_examples=50)
@given(
    st.lists(
        st.integers(min_value=0, max_value=63).map(lambda line: line * 64),
        min_size=1,
        max_size=200,
    )
)
def test_property_occupancy_and_residency(addresses):
    """After any access sequence: each set holds at most `ways` lines and
    the most recently inserted line is always resident."""
    cache = make_cache()
    for addr in addresses:
        if not cache.lookup(addr):
            cache.insert(addr)
        assert cache.contains(addr)
    for set_index in range(cache.n_sets):
        assert cache.set_occupancy(set_index) <= SMALL.ways


@settings(max_examples=50)
@given(
    st.lists(
        st.integers(min_value=0, max_value=2**24 // 64).map(lambda line: line * 64),
        min_size=1,
        max_size=100,
    )
)
def test_property_eviction_only_from_same_set(addresses):
    cache = make_cache()
    for addr in addresses:
        evicted = cache.insert(addr)
        if evicted is not None:
            assert cache.set_index(evicted) == cache.set_index(addr)


class _WayStampSet:
    """Reference set: tags in numbered ways, victims chosen by LRU stamps.

    This is the way-indexed algorithm the dict-ordered sets replaced: the first
    invalid way is filled first, and a full set evicts the way whose
    ``LRUPolicy`` stamp is oldest.
    """

    def __init__(self, ways: int) -> None:
        self.tags: list[int | None] = [None] * ways
        self.policy = LRUPolicy(ways)

    def lookup(self, tag: int) -> bool:
        if tag not in self.tags:
            return False
        self.policy.touch(self.tags.index(tag))
        return True

    def insert(self, tag: int) -> int | None:
        if tag in self.tags:
            self.policy.touch(self.tags.index(tag))
            return None
        evicted = None
        if None in self.tags:
            way = self.tags.index(None)
        else:
            way = self.policy.victim()
            evicted = self.tags[way]
        self.tags[way] = tag
        self.policy.fill(way)
        return evicted

    def invalidate(self, tag: int) -> bool:
        if tag not in self.tags:
            return False
        self.tags[self.tags.index(tag)] = None
        return True

    def clear(self) -> None:
        self.tags = [None] * len(self.tags)
        self.policy.reset()

    def resident(self) -> set[int]:
        return {tag for tag in self.tags if tag is not None}


# Mostly lookups and fills, so sets fill up and evict between the rarer
# invalidations and clears.
_SET_OPS = st.tuples(
    st.sampled_from(["lookup"] * 4 + ["insert"] * 4 + ["invalidate", "clear"]),
    st.integers(0, 9),
)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=6), st.lists(_SET_OPS, max_size=300))
def test_property_cache_set_matches_way_stamp_lru(ways, ops):
    """The dict-ordered set returns the same hit and evicted-tag streams as
    the way-stamp LRU it replaced, for any lookup/insert/invalidate/clear
    sequence."""
    # One set, so a line's tag is its line number: tag ``t`` is paddr ``t * 64``.
    geometry = CacheGeometry(name="one-set", sets=1, ways=ways, latency=4)
    cache, reference = Cache(geometry), _WayStampSet(ways)
    line = geometry.line_size
    for op, tag in ops:
        if op == "clear":
            cache.flush_all()
            reference.clear()
        elif op == "insert":
            evicted = cache.insert(tag * line)
            evicted_tag = None if evicted is None else evicted // line
            assert evicted_tag == reference.insert(tag), (op, tag)
        else:
            assert getattr(cache, op)(tag * line) == getattr(reference, op)(tag), (op, tag)
        assert {addr // line for addr in cache.resident_lines()} == reference.resident()
        assert cache.set_occupancy(0) == len(reference.resident())
