"""Tests for the IP-stride prefetcher — the paper's Algorithm 1 and §4 facts.

These tests drive the prefetcher directly with LoadEvents (white-box); the
microbenchmark-level validation lives in the revng tests.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.hierarchy import MemoryLevel
from repro.params import PAGE_SIZE, IPStrideParams
from repro.prefetch.base import LoadEvent
from repro.prefetch.ip_stride import IPStridePrefetcher

LINE = 64


def make_pf(**kwargs) -> IPStridePrefetcher:
    return IPStridePrefetcher(IPStrideParams(), **kwargs)


def load(pf, ip, addr, vaddr=None):
    """Feed one TLB-resident load; identity virtual mapping by default."""
    event = LoadEvent(
        ip=ip, vaddr=vaddr if vaddr is not None else addr, paddr=addr,
        hit_level=MemoryLevel.DRAM,
    )
    return pf.observe(event, lambda _v: None)


def train(pf, ip, base, stride, n):
    """n strided loads; returns all prefetch requests."""
    requests = []
    for i in range(n):
        requests.extend(load(pf, ip, base + i * stride))
    return requests


class TestAllocationAndConfidence:
    def test_first_access_creates_entry(self):
        pf = make_pf()
        assert load(pf, 0x100, 0x5000) == []
        entry = pf.entry_for_ip(0x100)
        assert entry is not None
        assert entry.confidence == 0
        assert entry.stride == 0

    def test_second_access_learns_stride(self):
        pf = make_pf()
        load(pf, 0x100, 0x5000)
        load(pf, 0x100, 0x5000 + 7 * LINE)
        entry = pf.entry_for_ip(0x100)
        assert entry.stride == 7 * LINE
        assert entry.confidence == 1

    def test_third_matching_access_prefetches(self):
        """Three iterations reach the threshold (paper §A.8: minimum 3)."""
        pf = make_pf()
        requests = train(pf, 0x100, 0x5000, 7 * LINE, 3)
        assert len(requests) == 1
        assert requests[0].paddr == 0x5000 + 3 * 7 * LINE
        assert pf.entry_for_ip(0x100).confidence == 2

    def test_confidence_saturates_at_3(self):
        pf = make_pf()
        train(pf, 0x100, 0x5000, 7 * LINE, 10)
        assert pf.entry_for_ip(0x100).confidence == 3

    def test_every_confident_access_prefetches(self):
        pf = make_pf()
        requests = train(pf, 0x100, 0x5000, 7 * LINE, 8)
        # Prefetches from access 3 onward.
        assert len(requests) == 6


class TestIndexing:
    def test_low_8_bits_only_no_tag(self):
        """Figure 6: any IP sharing the low 8 bits triggers the entry."""
        pf = make_pf()
        train(pf, 0x40_1020, 0x5000, 7 * LINE, 4)
        alias = 0x99_7720  # same low byte (0x20), different elsewhere
        requests = load(pf, alias, 0x9000)
        assert len(requests) == 1
        assert requests[0].paddr == 0x9000 + 7 * LINE

    def test_different_low_bits_different_entry(self):
        pf = make_pf()
        train(pf, 0x40_1020, 0x5000, 7 * LINE, 4)
        requests = load(pf, 0x40_1021, 0x9000)
        assert requests == []
        assert pf.occupancy == 2

    def test_entry_for_ip_respects_aliasing(self):
        pf = make_pf()
        load(pf, 0x123456, 0x5000)
        assert pf.entry_for_ip(0x9956) is pf.entry_for_ip(0x123456)


class TestUnconditionalTrigger:
    """The paper's 'key component' (§4.2 / Figure 7a, iteration 1)."""

    def test_trigger_fires_even_with_new_stride(self):
        pf = make_pf()
        train(pf, 0x100, 0x5000, 7 * LINE, 4)
        requests = load(pf, 0x100, 0x5000 + 4 * 7 * LINE + 3 * LINE)
        assert len(requests) == 1
        # Prefetch uses the *old* stride from the new address.
        assert requests[0].paddr == 0x5000 + 4 * 7 * LINE + 3 * LINE + 7 * LINE

    def test_mismatch_rewrites_stride_and_resets_confidence(self):
        pf = make_pf()
        train(pf, 0x100, 0x5000, 7 * LINE, 4)
        load(pf, 0x100, 0x5000 + 4 * 7 * LINE + 3 * LINE)
        entry = pf.entry_for_ip(0x100)
        # stride := current - last = (4*7+3) - 3*7 = 10 lines
        assert entry.stride == 10 * LINE
        assert entry.confidence == 1

    def test_figure_7a_retraining_takes_two_more(self):
        """After a stride change, iteration 2 is silent, iteration 3 fires."""
        pf = make_pf()
        train(pf, 0x100, 0x5000, 7 * LINE, 4)  # phase 1
        base = 0x5000 + 4 * 7 * LINE + 3 * LINE  # random offset
        assert len(load(pf, 0x100, base)) == 1  # old stride fires
        assert load(pf, 0x100, base + 5 * LINE) == []  # silent
        requests = load(pf, 0x100, base + 10 * LINE)  # new stride fires
        assert len(requests) == 1
        assert requests[0].paddr == base + 15 * LINE

    def test_figure_7b_offset_equal_to_new_stride(self):
        """Starting phase 2 exactly st_2 away trains in one less step."""
        pf = make_pf()
        train(pf, 0x100, 0x5000, 7 * LINE, 4)
        last = 0x5000 + 3 * 7 * LINE
        assert len(load(pf, 0x100, last + 5 * LINE)) == 1  # st_1 trigger
        requests = load(pf, 0x100, last + 10 * LINE)
        assert len(requests) == 1  # st_2 already fires
        assert requests[0].paddr == last + 15 * LINE


class TestStrideLimits:
    def test_stride_beyond_2kib_not_prefetched(self):
        pf = make_pf()
        train(pf, 0x100, 0x20_0000, 2048 + LINE, 5)
        assert pf.prefetches_issued == 0
        assert pf.prefetches_dropped_stride_cap > 0

    def test_max_stride_exactly_2kib_allowed(self):
        pf = make_pf()
        base = 0x40_0000
        requests = train(pf, 0x100, base, 2048, 3)
        assert len(requests) == 1

    def test_negative_stride(self):
        pf = make_pf()
        base = 0x40_0000 + 40 * LINE
        requests = train(pf, 0x100, base, -7 * LINE, 4)
        assert len(requests) == 2
        assert all(r.paddr < base for r in requests)

    def test_byte_granular_stride(self):
        """§4.2: strides need not be cache-line aligned."""
        pf = make_pf()
        requests = train(pf, 0x100, 0x40_0000, 100, 3)
        assert len(requests) == 1
        assert requests[0].paddr == 0x40_0000 + 300

    def test_prefetch_never_crosses_page(self):
        pf = make_pf()
        base = 0x40_0000 + PAGE_SIZE - 20 * LINE  # near page end
        train(pf, 0x100, base, 7 * LINE, 3)
        assert pf.prefetches_issued == 0
        assert pf.prefetches_dropped_page_cross > 0


class TestTLBMissPath:
    def test_tlb_miss_is_invisible(self):
        pf = make_pf()
        train(pf, 0x100, 0x5000, 7 * LINE, 4)
        before = pf.entry_for_ip(0x100)
        stride, conf, last = before.stride, before.confidence, before.last_paddr
        event = LoadEvent(ip=0x100, vaddr=0x9000, paddr=0x9000, hit_level=MemoryLevel.DRAM)
        assert pf.observe_tlb_miss(event) == []
        after = pf.entry_for_ip(0x100)
        assert (after.stride, after.confidence, after.last_paddr) == (stride, conf, last)

    def test_next_page_prefetcher_carries_over(self):
        """Table 1, locked row, offset 1: confident pattern continues onto
        the next *virtual* page even across a TLB miss."""
        pf = make_pf()
        vbase = 0x5000
        for i in range(4):
            load(pf, 0x100, 0x77_0000 + i * 7 * LINE, vaddr=vbase + i * 7 * LINE)
        next_vpage = (vbase // PAGE_SIZE + 1) * PAGE_SIZE
        event = LoadEvent(
            ip=0x100, vaddr=next_vpage, paddr=0x99_0000, hit_level=MemoryLevel.DRAM
        )
        requests = pf.observe_tlb_miss(event)
        assert len(requests) == 1
        assert requests[0].paddr == 0x99_0000 + 7 * LINE

    def test_next_page_disabled(self):
        pf = make_pf(enable_next_page=False)
        vbase = 0x5000
        for i in range(4):
            load(pf, 0x100, 0x77_0000 + i * 7 * LINE, vaddr=vbase + i * 7 * LINE)
        event = LoadEvent(
            ip=0x100, vaddr=(vbase // PAGE_SIZE + 1) * PAGE_SIZE,
            paddr=0x99_0000, hit_level=MemoryLevel.DRAM,
        )
        assert pf.observe_tlb_miss(event) == []

    def test_two_page_jump_does_not_carry(self):
        """Table 1, locked rows, offsets 2+: not prefetchable."""
        pf = make_pf()
        vbase = 0x5000
        for i in range(4):
            load(pf, 0x100, 0x77_0000 + i * 7 * LINE, vaddr=vbase + i * 7 * LINE)
        event = LoadEvent(
            ip=0x100, vaddr=(vbase // PAGE_SIZE + 2) * PAGE_SIZE,
            paddr=0x99_0000, hit_level=MemoryLevel.DRAM,
        )
        assert pf.observe_tlb_miss(event) == []


class TestCapacityAndReplacement:
    def test_capacity_is_24(self):
        pf = make_pf()
        for k in range(24):
            load(pf, 0x100 + k, 0x5000 + k * PAGE_SIZE)
        assert pf.occupancy == 24
        load(pf, 0x100 + 24, 0x5000 + 24 * PAGE_SIZE)
        assert pf.occupancy == 24
        assert pf.evictions == 1

    def test_confidence_zero_entries_evicted_first(self):
        pf = make_pf()
        # One trained (confident) entry plus 23 fresh ones.
        train(pf, 0x00, 0x40_0000, 7 * LINE, 4)
        for k in range(1, 24):
            load(pf, k, 0x50_0000 + k * PAGE_SIZE)
        load(pf, 24, 0x60_0000)  # allocation: must spare the trained entry
        assert pf.entry_for_ip(0x00) is not None
        assert pf.entry_for_ip(0x00).confidence == 3

    def test_clear_wipes_everything(self):
        pf = make_pf()
        train(pf, 0x100, 0x5000, 7 * LINE, 4)
        pf.clear()
        assert pf.occupancy == 0
        assert pf.entry_for_ip(0x100) is None
        assert pf.clears == 1

    def test_cleared_entry_must_retrain(self):
        pf = make_pf()
        train(pf, 0x100, 0x5000, 7 * LINE, 4)
        pf.clear()
        requests = train(pf, 0x100, 0x9000, 7 * LINE, 2)
        assert requests == []  # not confident yet


class TestPSCSemantics:
    """The state transitions AfterImage-PSC reads back (paper §6.1)."""

    def test_victim_touch_then_two_silent_checks(self):
        pf = make_pf()
        train(pf, 0x100, 0x5000, 7 * LINE, 4)
        # Victim load from an unrelated frame at an aliasing IP.
        load(pf, 0xAA00, 0x90_0000)
        # Attacker continues its progression: two silent steps, then fire.
        base = 0x5000 + 4 * 7 * LINE
        assert load(pf, 0x100, base) == []
        assert load(pf, 0x100, base + 7 * LINE) == []
        assert len(load(pf, 0x100, base + 14 * LINE)) == 1


@settings(max_examples=60)
@given(
    stride=st.integers(min_value=1, max_value=31).map(lambda s: s * LINE),
    n=st.integers(min_value=3, max_value=12),
)
def test_property_training_always_reaches_confidence(stride, n):
    pf = make_pf()
    base = 0x40_0000
    train(pf, 0x100, base, stride, n)
    entry = pf.entry_for_ip(0x100)
    assert entry.stride == stride
    assert entry.confidence >= 2


@settings(max_examples=60)
@given(
    ips=st.lists(st.integers(min_value=0, max_value=2**30), min_size=1, max_size=80),
)
def test_property_occupancy_bounded_and_indexes_unique(ips):
    pf = make_pf()
    for i, ip in enumerate(ips):
        load(pf, ip, 0x10_0000 + (i % 50) * PAGE_SIZE)
    assert pf.occupancy <= 24
    indexes = [e.index for e in pf.entries()]
    assert len(indexes) == len(set(indexes))


@settings(max_examples=40)
@given(
    accesses=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # which IP
            st.integers(min_value=0, max_value=60),  # line in page
        ),
        min_size=1,
        max_size=60,
    )
)
def test_property_prefetch_targets_stay_in_page(accesses):
    pf = make_pf()
    base = 0x40_0000
    for which, line in accesses:
        for request in load(pf, 0x100 + which, base + which * PAGE_SIZE + line * LINE):
            assert request.paddr // PAGE_SIZE == (base + which * PAGE_SIZE) // PAGE_SIZE


class _ScanningIPStride(IPStridePrefetcher):
    """Reference victim choice: the linear confidence-0 scan that the
    prefetcher's set of confidence-0 slots replaced."""

    def _victim_slot(self):
        for slot, entry in enumerate(self._slots):
            if entry is not None and entry.confidence == 0:
                return slot, "confidence0"
        return self._policy.victim(), "plru"


#: (op, IP, line step): ``op`` 0 is a clear, anything else one load.
_TABLE_OPS = st.tuples(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=35),
    st.integers(min_value=0, max_value=2),
)


@settings(max_examples=80)
@given(st.lists(_TABLE_OPS, min_size=1, max_size=300))
def test_property_confidence0_set_matches_linear_scan(ops):
    """Same victim slot, same cause and same per-cause eviction counts as
    the linear scan, over random loads and clears on 36 competing IPs,
    starting from a table full of fresh (confidence-0) entries."""
    pf, reference = make_pf(), _ScanningIPStride(IPStrideParams())
    last = {}
    for ip in range(12, 36):
        last[ip] = 0x40_0000 + ip * PAGE_SIZE
        load(pf, ip, last[ip])
        load(reference, ip, last[ip])
    for op, ip, step in ops:
        if op == 0:
            pf.clear()
            reference.clear()
        else:
            # Small line steps repeat often enough to confirm strides.
            addr = last.get(ip, 0x40_0000 + ip * PAGE_SIZE) + step * LINE
            last[ip] = addr
            assert load(pf, ip, addr) == load(reference, ip, addr)
        if pf.occupancy == pf.params.n_entries:
            assert pf._victim_slot() == reference._victim_slot()
        assert pf.evictions_by_cause == reference.evictions_by_cause
        assert [
            None if entry is None else (entry.index, entry.stride, entry.confidence)
            for entry in pf._slots
        ] == [
            None if entry is None else (entry.index, entry.stride, entry.confidence)
            for entry in reference._slots
        ]
