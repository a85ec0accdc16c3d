"""Regression tests for the shared address-arithmetic helpers.

Each helper in :mod:`repro.memsys.addr` replaced an inline formula that was
re-derived in ``cpu/machine.py``, the four prefetchers, ``memsys/cache.py``,
and ``mmu/tlb.py``.  These tests pin every helper against the original
expression so the dedupe cannot silently change semantics.
"""

from __future__ import annotations

import pytest

from repro.memsys import addr
from repro.memsys.cache import Cache
from repro.params import CACHE_LINE_SIZE, PAGE_SIZE, CacheGeometry

# A spread of addresses: zero, line/page boundaries, mid-line, mid-page,
# large, and a couple of adversarial near-boundary values.
ADDRS = [
    0,
    1,
    CACHE_LINE_SIZE - 1,
    CACHE_LINE_SIZE,
    CACHE_LINE_SIZE + 7,
    PAGE_SIZE - 1,
    PAGE_SIZE,
    PAGE_SIZE + CACHE_LINE_SIZE,
    3 * PAGE_SIZE + 5 * CACHE_LINE_SIZE + 13,
    0x7FFF_FFFF_F000,
    0x7FFF_FFFF_FFFF,
]


@pytest.mark.parametrize("paddr", ADDRS)
def test_line_index_matches_inline_formula(paddr: int) -> None:
    assert addr.line_index(paddr) == paddr // CACHE_LINE_SIZE


@pytest.mark.parametrize("paddr", ADDRS)
def test_line_base_matches_inline_formula(paddr: int) -> None:
    assert addr.line_base(paddr) == (paddr // CACHE_LINE_SIZE) * CACHE_LINE_SIZE


@pytest.mark.parametrize("line", [0, 1, 63, 64, 12345])
def test_line_addr_matches_inline_formula(line: int) -> None:
    assert addr.line_addr(line) == line * CACHE_LINE_SIZE


@pytest.mark.parametrize("paddr", ADDRS)
def test_page_frame_matches_inline_formula(paddr: int) -> None:
    assert addr.page_frame(paddr) == paddr // PAGE_SIZE


@pytest.mark.parametrize("vaddr", ADDRS)
def test_page_split_matches_divmod(vaddr: int) -> None:
    assert addr.page_split(vaddr) == divmod(vaddr, PAGE_SIZE)


def test_same_page_matches_frame_comparison() -> None:
    for a in ADDRS:
        for b in ADDRS:
            assert addr.same_page(a, b) == (a // PAGE_SIZE == b // PAGE_SIZE)


def test_same_page_handles_negative_targets() -> None:
    # ip-stride's page-cross drop and the streamer's bounds check both rely
    # on Python floor division for negative prefetch targets: -1 lives in
    # frame -1, never frame 0.
    assert not addr.same_page(-1, 0)
    assert addr.page_frame(-1) == -1
    assert addr.line_addr(-1) == -CACHE_LINE_SIZE


def test_same_block_matches_adjacent_prefetcher_formula() -> None:
    block = 128
    for a in ADDRS:
        pair = addr.line_base(a) ^ CACHE_LINE_SIZE
        assert addr.same_block(pair, addr.line_base(a), block) == (
            pair // block == addr.line_base(a) // block
        )


@pytest.mark.parametrize("line_size,n_sets", [(64, 64), (64, 1024), (32, 16)])
def test_set_index_and_tag_match_cache_formulas(line_size: int, n_sets: int) -> None:
    for paddr in ADDRS:
        line = paddr // line_size
        assert addr.set_index(paddr, line_size, n_sets) == line % n_sets
        assert addr.cache_tag(paddr, line_size, n_sets) == line // n_sets


@pytest.mark.parametrize("line_size,n_sets", [(64, 64), (64, 1024), (32, 16)])
def test_tag_round_trips_to_line_base(line_size: int, n_sets: int) -> None:
    for paddr in ADDRS:
        index = addr.set_index(paddr, line_size, n_sets)
        tag = addr.cache_tag(paddr, line_size, n_sets)
        assert addr.tag_to_line_base(tag, index, line_size, n_sets) == addr.line_base(
            paddr, line_size
        )


@pytest.mark.parametrize("line_size,n_sets", [(64, 64), (64, 1024), (32, 16)])
def test_cache_shift_mask_matches_addr_helpers(line_size: int, n_sets: int) -> None:
    """``Cache`` derives set, tag and line address by shift and mask; pin
    each against the division formulas of :mod:`repro.memsys.addr`."""
    ways = 2
    geometry = CacheGeometry(name="pin", sets=n_sets, ways=ways, latency=4, line_size=line_size)
    for paddr in ADDRS:
        cache = Cache(geometry)
        index = addr.set_index(paddr, line_size, n_sets)
        tag = addr.cache_tag(paddr, line_size, n_sets)
        assert cache.set_index(paddr) == index
        assert cache.line_address(paddr) == addr.line_base(paddr, line_size)
        cache.insert(paddr)
        assert list(cache._sets[index]) == [tag]
        assert list(cache.resident_lines()) == [
            addr.tag_to_line_base(tag, index, line_size, n_sets)
        ]
        # Fill the set with other tags: the first fill past capacity evicts
        # ``paddr``'s line, reassembled from (tag, set index).
        others = [
            addr.tag_to_line_base(tag + k, index, line_size, n_sets) for k in range(1, ways + 1)
        ]
        evicted = [cache.insert(other) for other in others]
        assert evicted == [None] * (ways - 1) + [addr.line_base(paddr, line_size)]
