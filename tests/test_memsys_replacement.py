"""Unit and property tests for the replacement policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memsys.replacement import (
    BitPLRU,
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    TreePLRU,
    make_policy,
)


class TestLRU:
    def test_victim_is_least_recent(self):
        lru = LRUPolicy(4)
        for way in range(4):
            lru.fill(way)
        lru.touch(0)
        assert lru.victim() == 1

    def test_hit_refreshes(self):
        lru = LRUPolicy(2)
        lru.fill(0)
        lru.fill(1)
        lru.touch(0)
        assert lru.victim() == 1

    def test_reset(self):
        lru = LRUPolicy(2)
        lru.fill(1)
        lru.reset()
        assert lru.victim() == 0

    def test_out_of_range_way(self):
        with pytest.raises(IndexError):
            LRUPolicy(2).touch(2)


class TestFIFO:
    def test_hits_do_not_refresh(self):
        fifo = FIFOPolicy(3)
        for way in range(3):
            fifo.fill(way)
        fifo.touch(0)  # a hit, not a fill
        assert fifo.victim() == 0

    def test_fill_order(self):
        fifo = FIFOPolicy(3)
        fifo.fill(2)
        fifo.fill(0)
        fifo.fill(1)
        assert fifo.victim() == 2


class TestBitPLRU:
    def test_victim_is_first_clear_bit(self):
        plru = BitPLRU(4)
        plru.touch(0)
        plru.touch(2)
        assert plru.victim() == 1

    def test_generation_reset(self):
        plru = BitPLRU(3)
        plru.touch(0)
        plru.touch(1)
        # Touching way 2 would set all bits: others are cleared first.
        plru.touch(2)
        assert plru.victim() == 0

    def test_figure_8b_scenario(self):
        """The paper's Figure 8b: fill 24, refresh first 8, evict 8 -> the
        victims are slots 8..15 (inputs 9-16), a contiguous run."""
        plru = BitPLRU(24)
        for way in range(24):
            plru.fill(way)
        for way in range(8):
            plru.touch(way)
        victims = []
        for _ in range(8):
            way = plru.victim()
            victims.append(way)
            plru.fill(way)
        assert victims == list(range(8, 16))

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=200))
    def test_victim_never_most_recent(self, touches):
        plru = BitPLRU(8)
        for way in touches:
            plru.touch(way)
        assert plru.victim() != touches[-1]


class _SummingBitPLRU:
    """Reference Bit-PLRU: counts the set MRU bits with ``sum()`` per touch,
    as the counted ``BitPLRU`` did before it kept the count."""

    def __init__(self, n_ways: int) -> None:
        self.n_ways = n_ways
        self.mru = [False] * n_ways

    def touch(self, way: int) -> None:
        if not self.mru[way] and sum(self.mru) == self.n_ways - 1:
            self.mru = [False] * self.n_ways
        self.mru[way] = True

    def victim(self) -> int:
        return next((way for way, bit in enumerate(self.mru) if not bit), 0)


@given(
    st.integers(min_value=1, max_value=24),
    st.lists(
        st.tuples(st.sampled_from(["touch", "fill", "victim", "reset"]), st.integers(0, 23)),
        max_size=300,
    ),
)
def test_property_counted_bit_plru_matches_summing_reference(n_ways, ops):
    plru, reference = BitPLRU(n_ways), _SummingBitPLRU(n_ways)
    for op, way in ops:
        way %= n_ways
        if op == "touch":
            plru.touch(way)
            reference.touch(way)
        elif op == "fill":
            plru.fill(way)
            reference.touch(way)
        elif op == "victim":
            plru.fill(plru.victim())
            reference.touch(reference.victim())
        else:
            plru.reset()
            reference.mru = [False] * n_ways
        assert plru.victim() == reference.victim()
        assert plru._mru == reference.mru


class TestTreePLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TreePLRU(6)

    def test_victim_avoids_recent(self):
        plru = TreePLRU(4)
        plru.touch(0)
        assert plru.victim() != 0

    def test_alternating_touches(self):
        plru = TreePLRU(2)
        plru.touch(0)
        assert plru.victim() == 1
        plru.touch(1)
        assert plru.victim() == 0

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=100))
    def test_victim_in_range(self, touches):
        plru = TreePLRU(8)
        for way in touches:
            plru.touch(way)
        assert 0 <= plru.victim() < 8


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("lru", LRUPolicy),
            ("fifo", FIFOPolicy),
            ("bit-plru", BitPLRU),
            ("tree-plru", TreePLRU),
            ("random", RandomPolicy),
        ],
    )
    def test_known_policies(self, name, cls):
        assert isinstance(make_policy(name, 4), cls)

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_policy("belady", 4)

    def test_invalid_way_count(self):
        with pytest.raises(ValueError):
            make_policy("lru", 0)
