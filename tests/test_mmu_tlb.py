"""Tests for the TLB: residency, LRU, ASID tagging, global pages."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mmu.address_space import AddressSpace
from repro.mmu.page_table import PhysicalMemory
from repro.mmu.tlb import TLB
from repro.params import PAGE_SIZE
from repro.utils.rng import make_rng


@pytest.fixture
def physical():
    return PhysicalMemory(make_rng(0))


@pytest.fixture
def tlb():
    return TLB(n_entries=4, walk_latency=120)


def make_space(physical, name="proc", global_pages=False):
    return AddressSpace(name, physical, global_pages=global_pages)


class TestTranslate:
    def test_miss_then_hit(self, tlb, physical):
        space = make_space(physical)
        mapping = space.mmap(PAGE_SIZE)
        first_paddr, first_walk = tlb.translate(space, mapping.base)
        assert (tlb.misses, tlb.hits) == (1, 0)
        assert first_walk == 120
        second_paddr, second_walk = tlb.translate(space, mapping.base + 8)
        assert (tlb.misses, tlb.hits) == (1, 1)
        assert second_walk == 0
        assert second_paddr == first_paddr + 8

    def test_zero_walk_latency_rejected(self):
        # A hit is reported as a zero walk latency, so a miss must cost more.
        with pytest.raises(ValueError):
            TLB(n_entries=4, walk_latency=0)

    def test_unmapped_page_faults(self, tlb, physical):
        space = make_space(physical)
        with pytest.raises(KeyError):
            tlb.translate(space, 0xDEAD_0000)

    def test_capacity_eviction_is_lru(self, tlb, physical):
        space = make_space(physical)
        mapping = space.mmap(5 * PAGE_SIZE)
        pages = [mapping.base + i * PAGE_SIZE for i in range(5)]
        for page in pages[:4]:
            tlb.translate(space, page)
        tlb.translate(space, pages[0])  # refresh oldest
        tlb.translate(space, pages[4])  # evicts pages[1]
        assert tlb.is_resident(space, pages[0])
        assert not tlb.is_resident(space, pages[1])


class TestAsidTagging:
    def test_same_vaddr_different_spaces(self, tlb, physical):
        a = make_space(physical, "a")
        b = make_space(physical, "b")
        ma = a.mmap(PAGE_SIZE)
        # Force the same virtual page in b by translating its own page.
        mb = b.mmap(PAGE_SIZE)
        tlb.translate(a, ma.base)
        assert not tlb.is_resident(b, mb.base)


class TestFlushSemantics:
    def test_flush_drops_user_entries(self, tlb, physical):
        space = make_space(physical)
        mapping = space.mmap(PAGE_SIZE)
        tlb.translate(space, mapping.base)
        tlb.flush(keep_global=True)
        assert not tlb.is_resident(space, mapping.base)

    def test_global_pages_survive_flush(self, tlb, physical):
        kernel = make_space(physical, "kernel", global_pages=True)
        mapping = kernel.mmap(PAGE_SIZE)
        tlb.translate(kernel, mapping.base)
        tlb.flush(keep_global=True)
        assert tlb.is_resident(kernel, mapping.base)

    def test_full_flush_drops_global_too(self, tlb, physical):
        kernel = make_space(physical, "kernel", global_pages=True)
        mapping = kernel.mmap(PAGE_SIZE)
        tlb.translate(kernel, mapping.base)
        tlb.flush(keep_global=False)
        assert not tlb.is_resident(kernel, mapping.base)

    def test_invlpg(self, tlb, physical):
        space = make_space(physical)
        mapping = space.mmap(2 * PAGE_SIZE)
        tlb.translate(space, mapping.base)
        tlb.translate(space, mapping.base + PAGE_SIZE)
        tlb.invalidate_page(space, mapping.base)
        assert not tlb.is_resident(space, mapping.base)
        assert tlb.is_resident(space, mapping.base + PAGE_SIZE)


class TestWarm:
    def test_warm_installs_without_latency(self, tlb, physical):
        space = make_space(physical)
        mapping = space.mmap(PAGE_SIZE)
        tlb.warm(space, mapping.base)
        assert tlb.translate(space, mapping.base)[1] == 0
        assert (tlb.misses, tlb.hits) == (0, 1)

    def test_warm_unmapped_faults(self, tlb, physical):
        space = make_space(physical)
        with pytest.raises(KeyError):
            tlb.warm(space, 0xBAD_0000)

    def test_stats(self, tlb, physical):
        space = make_space(physical)
        mapping = space.mmap(PAGE_SIZE)
        tlb.translate(space, mapping.base)
        tlb.translate(space, mapping.base)
        assert tlb.misses == 1
        assert tlb.hits == 1


class _ListOrderedTLB:
    """Reference TLB: an entry map plus a plain list holding LRU order.

    This is the structure the one-dict ``TLB`` replaced: a hit moves its
    key to the end of the list and a fill into a full TLB evicts the
    list's first key.
    """

    def __init__(self, n_entries: int) -> None:
        self.n_entries = n_entries
        self.entries: dict[tuple[int, int], int] = {}
        self.order: list[tuple[int, int]] = []
        self.global_keys: set[tuple[int, int]] = set()

    def _touch(self, key):
        self.order.remove(key)
        self.order.append(key)

    def _install(self, key, frame, is_global):
        if len(self.entries) >= self.n_entries:
            victim = self.order.pop(0)
            del self.entries[victim]
            self.global_keys.discard(victim)
        self.entries[key] = frame
        self.order.append(key)
        if is_global:
            self.global_keys.add(key)

    def translate(self, space, vaddr) -> tuple[int, bool]:
        vpage, offset = divmod(vaddr, PAGE_SIZE)
        key = (space.asid, vpage)
        if key in self.entries:
            self._touch(key)
            return self.entries[key] * PAGE_SIZE + offset, True
        frame = space.page_table.frame_of(vpage)
        self._install(key, frame, space.global_pages)
        return frame * PAGE_SIZE + offset, False

    def warm(self, space, vaddr) -> None:
        key = (space.asid, vaddr // PAGE_SIZE)
        if key in self.entries:
            self._touch(key)
        else:
            self._install(key, space.page_table.frame_of(key[1]), space.global_pages)

    def invalidate_page(self, space, vaddr) -> None:
        key = (space.asid, vaddr // PAGE_SIZE)
        if key in self.entries:
            del self.entries[key]
            self.order.remove(key)
            self.global_keys.discard(key)

    def flush(self, keep_global: bool) -> None:
        for key in list(self.order):
            if not keep_global or key not in self.global_keys:
                del self.entries[key]
                self.order.remove(key)
                self.global_keys.discard(key)


_TLB_OPS = st.tuples(
    st.sampled_from(["translate", "translate", "warm", "invalidate_page", "flush"]),
    st.integers(0, 1),  # address space: user (0) or global kernel (1)
    st.integers(0, 7),  # page within the space's mapping
    st.booleans(),  # flush: keep global entries
)


@settings(max_examples=150)
@given(st.lists(_TLB_OPS, max_size=200))
def test_property_tlb_matches_list_ordered_reference(ops):
    """The one-dict TLB gives the same translations, hit flags, residency
    and occupancy as the list-ordered TLB it replaced."""
    physical = PhysicalMemory(make_rng(0))
    spaces = [make_space(physical, "user"), make_space(physical, "kernel", global_pages=True)]
    bases = [space.mmap(8 * PAGE_SIZE).base for space in spaces]
    tlb, reference = TLB(n_entries=4, walk_latency=120), _ListOrderedTLB(4)
    for op, which, page, keep_global in ops:
        space = spaces[which]
        vaddr = bases[which] + page * PAGE_SIZE + 8
        if op == "translate":
            paddr, walk_latency = tlb.translate(space, vaddr)
            assert (paddr, walk_latency == 0) == reference.translate(space, vaddr)
            assert walk_latency in (0, 120)
        elif op == "flush":
            tlb.flush(keep_global=keep_global)
            reference.flush(keep_global)
        else:
            getattr(tlb, op)(space, vaddr)
            getattr(reference, op)(space, vaddr)
        assert len(tlb) == len(reference.entries)
        for space, base in zip(spaces, bases):
            for k in range(8):
                assert tlb.is_resident(space, base + k * PAGE_SIZE) == (
                    (space.asid, base // PAGE_SIZE + k) in reference.entries
                )
