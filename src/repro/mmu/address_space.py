"""Address spaces: mmap-style allocation, shared memory, CoW zero pages."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.mmu.aslr import Aslr
from repro.mmu.page_table import PageTable, PhysicalMemory
from repro.params import PAGE_SIZE
from repro.utils.bits import align_up

#: Fallback allocator for spaces built without an owner.  Machines assign
#: their own per-instance sequence instead, so same-seed runs produce the
#: same ASIDs no matter how many machines the process created before them.
_ASID_COUNTER = itertools.count(1)


@dataclass(slots=True)
class Mapping:
    """One contiguous virtual mapping inside an address space."""

    name: str
    base: int
    n_pages: int
    locked: bool
    space: "AddressSpace" = field(repr=False)

    @property
    def size(self) -> int:
        return self.n_pages * PAGE_SIZE

    @property
    def end(self) -> int:
        return self.base + self.size

    def addr(self, offset: int) -> int:
        """Virtual address at byte ``offset`` into the mapping."""
        if not 0 <= offset < self.size:
            raise IndexError(f"offset {offset} outside mapping of {self.size} bytes")
        return self.base + offset

    def vpages(self) -> list[int]:
        """Virtual page numbers covered by the mapping, in order."""
        first = self.base // PAGE_SIZE
        return list(range(first, first + self.n_pages))

    def frames(self) -> list[int]:
        """Physical frames currently backing the mapping, in page order."""
        result = []
        for vpage in self.vpages():
            frame = self.space.page_table.frame_of(vpage)
            if frame is None:
                raise KeyError(f"mapping {self.name!r}: page {vpage:#x} is unmapped")
            result.append(frame)
        return result


class AddressSpace:
    """A process (or kernel) address space.

    ``mmap`` semantics mirror what the paper's microbenchmarks rely on:

    * ``locked=True`` (``MAP_LOCKED``): every page gets its own pinned frame.
    * ``populate=True`` (the default for attack buffers): pages are written
      once at setup, so each is promoted to a private frame — normal
      anonymous memory in steady state.
    * ``populate=False, locked=False``: untouched anonymous memory; every
      page is backed by the shared **zero frame**, so the whole region lives
      in a single physical frame until written.  This is the "reclaimable
      pool" whose pages *share a physical page* in the paper's Table 1.
    """

    #: Default first mmap base (arbitrary; ASLR slides it per-mapping).
    DEFAULT_MMAP_BASE = 0x5000_0000

    def __init__(
        self,
        name: str,
        physical: PhysicalMemory,
        aslr: Aslr | None = None,
        global_pages: bool = False,
        asid: int | None = None,
    ) -> None:
        self.name = name
        self.physical = physical
        self.aslr = aslr
        self.global_pages = global_pages
        self.asid = next(_ASID_COUNTER) if asid is None else asid
        self.page_table = PageTable()
        #: Bases of the live mappings.  The mappings themselves point back
        #: at their space; holding them here too would be a reference cycle
        #: that keeps a dropped machine's page tables alive until a cyclic
        #: GC pass.
        self._mapped_bases: set[int] = set()
        self._next_base = self.DEFAULT_MMAP_BASE

    def mmap(
        self,
        n_bytes: int,
        locked: bool = False,
        populate: bool = True,
        name: str = "anon",
    ) -> Mapping:
        """Create an anonymous mapping of at least ``n_bytes`` bytes."""
        if n_bytes <= 0:
            raise ValueError(f"n_bytes must be positive, got {n_bytes}")
        n_pages = align_up(n_bytes, PAGE_SIZE) // PAGE_SIZE
        base = self._carve_region(n_pages)
        mapping = Mapping(name=name, base=base, n_pages=n_pages, locked=locked, space=self)
        backed = locked or populate
        for vpage in mapping.vpages():
            frame = self.physical.alloc_frame() if backed else PhysicalMemory.ZERO_FRAME
            self.page_table.map(vpage, frame)
        self._mapped_bases.add(mapping.base)
        return mapping

    def map_shared(self, source: Mapping, name: str | None = None) -> Mapping:
        """Map the frames of ``source`` (from any space) into this space.

        Models ``mmap(MAP_SHARED)`` between processes, the syscall
        ``memory_space`` parameter of the paper's Listing 7, and the
        enclave's copied buffer: same physical lines, new virtual base.
        """
        frames = source.frames()
        base = self._carve_region(len(frames))
        mapping = Mapping(
            name=name if name is not None else f"{source.name}@{self.name}",
            base=base,
            n_pages=len(frames),
            locked=source.locked,
            space=self,
        )
        for vpage, frame in zip(mapping.vpages(), frames):
            self.page_table.map(vpage, frame)
        self._mapped_bases.add(mapping.base)
        return mapping

    def write_touch(self, vaddr: int) -> None:
        """Model a store to ``vaddr``: promote a zero-frame page to private.

        This is the copy-on-write promotion that turns a "reclaimable" page
        into a normally-backed one.
        """
        vpage = vaddr // PAGE_SIZE
        frame = self.page_table.frame_of(vpage)
        if frame is None:
            raise KeyError(f"page fault: virtual address {vaddr:#x} is not mapped")
        if frame == PhysicalMemory.ZERO_FRAME:
            self.page_table.map(vpage, self.physical.alloc_frame())

    def translate(self, vaddr: int) -> int:
        """Virtual → physical byte address (raises KeyError when unmapped)."""
        return self.page_table.translate(vaddr)

    def munmap(self, mapping: Mapping) -> None:
        """Tear down ``mapping``, releasing private frames."""
        if mapping.space is not self or mapping.base not in self._mapped_bases:
            raise ValueError(f"mapping {mapping.name!r} does not belong to {self.name!r}")
        for vpage in mapping.vpages():
            frame = self.page_table.unmap(vpage)
            if frame is not None:
                self.physical.free_frame(frame)
        self._mapped_bases.remove(mapping.base)

    def _carve_region(self, n_pages: int) -> int:
        base = self._next_base
        if self.aslr is not None:
            base = self.aslr.randomize_base(base)
        # Keep a guard page between mappings so off-by-one address bugs in
        # experiments fault instead of silently touching a neighbour.
        self._next_base = base + (n_pages + 1) * PAGE_SIZE
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AddressSpace({self.name!r}, asid={self.asid}, mappings={len(self._mapped_bases)})"
