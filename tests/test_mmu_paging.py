"""Tests for physical memory, page tables, address spaces and buffers."""

import pytest

from repro.mmu.address_space import AddressSpace
from repro.mmu.aslr import Aslr
from repro.mmu.buffer import Buffer
from repro.mmu.page_table import PageTable, PhysicalMemory
from repro.params import PAGE_SIZE
from repro.utils.rng import make_rng


@pytest.fixture
def physical():
    return PhysicalMemory(make_rng(0))


@pytest.fixture
def space(physical):
    return AddressSpace("proc", physical)


class TestPhysicalMemory:
    def test_frames_unique(self, physical):
        frames = {physical.alloc_frame() for _ in range(500)}
        assert len(frames) == 500

    def test_zero_frame_reserved(self, physical):
        assert physical.ZERO_FRAME == 0
        for _ in range(100):
            assert physical.alloc_frame() != 0

    def test_free_and_realloc(self, physical):
        frame = physical.alloc_frame()
        count = physical.allocated_count
        physical.free_frame(frame)
        assert physical.allocated_count == count - 1

    def test_zero_frame_never_freed(self, physical):
        physical.free_frame(0)
        assert physical.allocated_count >= 1

    def test_frame_to_paddr(self):
        assert PhysicalMemory.frame_to_paddr(2, 5) == 2 * PAGE_SIZE + 5
        with pytest.raises(ValueError):
            PhysicalMemory.frame_to_paddr(1, PAGE_SIZE)


class TestAllocFrames:
    """``alloc_frames(k)`` is ``k`` ``alloc_frame()`` calls in one batch."""

    @pytest.mark.parametrize("n_frames", [64, 1 << 21])
    @pytest.mark.parametrize("k", [1, 2, 7, 40, 63, 4096])
    def test_matches_scalar_allocation(self, n_frames, k):
        # With 64 frames the batches collide with earlier frames and with
        # each other, so redraws are exercised; there k is capped at the 62
        # frames left, which takes every frame.
        for seed in range(20):
            scalar_rng, batched_rng = make_rng(seed), make_rng(seed)
            scalar = PhysicalMemory(scalar_rng, n_frames)
            batched = PhysicalMemory(batched_rng, n_frames)
            scalar.alloc_frame()
            batched.alloc_frame()
            expected = [scalar.alloc_frame() for _ in range(min(k, n_frames - 2))]
            assert batched.alloc_frames(len(expected)) == expected
            assert batched.allocated_count == scalar.allocated_count
            # Both generators stand at the same next draw.
            assert batched_rng.integers(1 << 62) == scalar_rng.integers(1 << 62)

    def test_zero_frames(self, physical):
        assert physical.alloc_frames(0) == []
        assert physical.allocated_count == 1

    def test_exhaustion_raises(self):
        physical = PhysicalMemory(make_rng(0), n_frames=8)
        assert len(set(physical.alloc_frames(7))) == 7
        with pytest.raises(MemoryError):
            physical.alloc_frames(1)
        with pytest.raises(MemoryError):
            PhysicalMemory(make_rng(0), n_frames=8).alloc_frames(8)


class TestPageTable:
    def test_remap_allowed(self):
        table = PageTable()
        table.map(1, 10)
        table.map(1, 20)  # CoW promotion
        assert table.frame_of(1) == 20

    def test_unmap(self):
        table = PageTable()
        table.map(1, 10)
        assert table.unmap(1) == 10
        assert not table.is_mapped(1)
        assert table.unmap(1) is None


class TestAddressSpaceTranslate:
    def test_translate(self, space):
        space.page_table.map(5, 77)
        assert space.translate(5 * PAGE_SIZE + 123) == 77 * PAGE_SIZE + 123

    def test_unmapped_faults(self, space):
        with pytest.raises(KeyError):
            space.translate(0x1000)

    def test_translate_or_none_is_one_walk(self, space, monkeypatch):
        # The prefetchers' TranslateFn: None instead of a fault, and exactly
        # one ``translate`` call, so the page-walk count perfbench hooks on
        # ``AddressSpace.translate`` is unchanged.
        calls = []
        translate = AddressSpace.translate

        def counting(self, vaddr):
            calls.append(vaddr)
            return translate(self, vaddr)

        monkeypatch.setattr(AddressSpace, "translate", counting)
        space.page_table.map(5, 77)
        assert space.translate_or_none(0x1000) is None
        assert calls == [0x1000]
        assert space.translate_or_none(5 * PAGE_SIZE + 9) == 77 * PAGE_SIZE + 9
        assert calls == [0x1000, 5 * PAGE_SIZE + 9]


class TestAddressSpaceMmap:
    def test_mmap_rounds_to_pages(self, space):
        mapping = space.mmap(100)
        assert mapping.n_pages == 1
        assert mapping.size == PAGE_SIZE

    def test_populated_pages_have_distinct_frames(self, space):
        mapping = space.mmap(4 * PAGE_SIZE)
        frames = mapping.frames()
        assert len(set(frames)) == 4
        assert PhysicalMemory.ZERO_FRAME not in frames

    def test_unpopulated_pages_share_zero_frame(self, space):
        """The 'reclaimable pool' of the paper's Table 1."""
        mapping = space.mmap(4 * PAGE_SIZE, populate=False)
        assert mapping.frames() == [PhysicalMemory.ZERO_FRAME] * 4

    def test_locked_pages_are_backed(self, space):
        mapping = space.mmap(2 * PAGE_SIZE, locked=True, populate=False)
        assert PhysicalMemory.ZERO_FRAME not in mapping.frames()

    def test_write_promotes_zero_page(self, space):
        mapping = space.mmap(2 * PAGE_SIZE, populate=False)
        space.write_touch(mapping.base)
        frames = mapping.frames()
        assert frames[0] != PhysicalMemory.ZERO_FRAME
        assert frames[1] == PhysicalMemory.ZERO_FRAME

    def test_mappings_do_not_overlap(self, space):
        a = space.mmap(3 * PAGE_SIZE)
        b = space.mmap(3 * PAGE_SIZE)
        assert a.end <= b.base or b.end <= a.base

    def test_mapping_addr_bounds(self, space):
        mapping = space.mmap(PAGE_SIZE)
        with pytest.raises(IndexError):
            mapping.addr(PAGE_SIZE)

    def test_munmap_releases(self, space, physical):
        mapping = space.mmap(2 * PAGE_SIZE)
        before = physical.allocated_count
        space.munmap(mapping)
        assert physical.allocated_count == before - 2
        with pytest.raises(KeyError):
            space.translate(mapping.base)

    def test_munmap_foreign_mapping_rejected(self, space, physical):
        other = AddressSpace("other", physical)
        mapping = other.mmap(PAGE_SIZE)
        with pytest.raises(ValueError):
            space.munmap(mapping)


class TestSharedMemory:
    def test_map_shared_same_frames(self, physical):
        a = AddressSpace("a", physical)
        b = AddressSpace("b", physical)
        original = a.mmap(2 * PAGE_SIZE, name="shm")
        view = b.map_shared(original)
        assert view.frames() == original.frames()
        assert view.space is b
        assert original.space is a

    def test_shared_translation_agrees(self, physical):
        a = AddressSpace("a", physical)
        b = AddressSpace("b", physical)
        original = a.mmap(PAGE_SIZE)
        view = b.map_shared(original)
        assert a.translate(original.base + 17) == b.translate(view.base + 17)


class TestAslr:
    def test_disabled_is_identity(self):
        aslr = Aslr(make_rng(0), enabled=False)
        assert aslr.randomize_base(0x400000) == 0x400000

    def test_slide_is_page_aligned(self):
        aslr = Aslr(make_rng(0))
        base = 0x400123
        slid = aslr.randomize_base(base)
        assert (slid - base) % PAGE_SIZE == 0

    def test_low_12_bits_preserved(self):
        """The property AfterImage relies on (paper §5.2 footnote 4)."""
        aslr = Aslr(make_rng(1))
        for base in (0x400000, 0x400ABC, 0x7F00_1234):
            slid = aslr.randomize_base(base)
            assert Aslr.preserves_low_bits(base, slid, 12)
            assert Aslr.preserves_low_bits(base, slid, 8)

    def test_randomization_varies(self):
        aslr = Aslr(make_rng(2))
        slides = {aslr.randomize_base(0x400000) for _ in range(16)}
        assert len(slides) > 1


class TestBuffer:
    def test_line_addresses(self, space):
        buffer = Buffer(space.mmap(2 * PAGE_SIZE))
        assert buffer.n_lines == 128
        assert buffer.line_addr(1) - buffer.line_addr(0) == 64
        assert buffer.page_line_addr(1, 0) == buffer.base + PAGE_SIZE

    def test_bounds(self, space):
        buffer = Buffer(space.mmap(PAGE_SIZE))
        with pytest.raises(IndexError):
            buffer.line_addr(64)
        with pytest.raises(IndexError):
            buffer.page_line_addr(0, 64)
        with pytest.raises(IndexError):
            buffer.page_line_addr(1, 0)

    def test_lines_enumeration(self, space):
        buffer = Buffer(space.mmap(PAGE_SIZE))
        lines = buffer.lines()
        assert len(lines) == 64
        assert lines[0] == buffer.base
        assert lines[-1] == buffer.base + 63 * 64
