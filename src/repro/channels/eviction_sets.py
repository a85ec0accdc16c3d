"""Minimal eviction set (MES) construction for the sliced LLC.

A minimal eviction set for a cache set is ``associativity`` addresses that
all map to the same (slice, set) pair (paper §3.1).  Because the slice hash
takes high physical-address bits, building an MES needs virtual→physical
translation — the paper's artifact reads ``/proc/pid/pagemap`` (and hence
needs sudo, §A.4); here the equivalent capability is reading the simulated
page table.

The builder reads it once per pool page and files every page under its
frame's *page colour*, ``frame % (llc_sets // 64)``, and slice.  With a
per-slice set count that is a multiple of 64 (2048 on both Table 2
presets), line ``b`` of frame ``f`` lands in set ``(f % colours) * 64 + b``,
so a pool page covers all 64 sets of a victim page or none of them: it
covers them exactly when the colours match.  Every slice bit is the
parity of an address mask, so line ``b``'s slice is the frame's slice XOR
the slice of offset ``b * 64``.  Line ``b`` of a pool page therefore shares
the victim line's (slice, set) exactly when the two frames share colour
and slice, and an eviction set is a prefix of that class's pages, with
no further walk.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.cpu.context import ThreadContext
from repro.cpu.machine import Machine
from repro.mmu.buffer import Buffer
from repro.params import CACHE_LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE


@dataclass
class EvictionSet:
    """Addresses (attacker-virtual) covering one (slice, set) pair."""

    slice_id: int
    set_index: int
    addresses: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.addresses)


class EvictionSetBuilder:
    """Build MESs from a private memory pool using pagemap-style translation.

    Construction maps the pool and walks each of its pages once, in page
    order, into ``_pages``: one list of page vaddrs per (colour, frame
    slice) class.  Raises ValueError when the LLC's per-slice set count is
    not a multiple of 64, where a page's lines would straddle two colours.
    """

    def __init__(self, machine: Machine, ctx: ThreadContext, pool_pages: int = 12288) -> None:
        llc_sets = machine.params.llc.sets
        if llc_sets % LINES_PER_PAGE:
            raise ValueError(
                f"the page-colour index needs an LLC set count that is a multiple "
                f"of {LINES_PER_PAGE}, got {llc_sets}"
            )
        self.machine = machine
        self.ctx = ctx
        self.pool = Buffer(
            ctx.space.mmap(pool_pages * PAGE_SIZE, locked=True, name="es-pool")
        )
        self._associativity = machine.params.llc.ways
        self._slice_of = machine.hierarchy.slice_hash.slice_of
        self._n_colours = llc_sets // LINES_PER_PAGE
        self._n_slices = machine.params.llc_slices
        self._pages = [array("Q") for _ in range(self._n_colours * self._n_slices)]
        translate = ctx.space.translate
        base = self.pool.base
        for page_vaddr in range(base, base + self.pool.n_pages * PAGE_SIZE, PAGE_SIZE):
            self._pages[self._frame_class(translate(page_vaddr))].append(page_vaddr)

    def _frame_class(self, paddr: int) -> int:
        """Index into ``_pages`` of the (colour, slice) class of ``paddr``'s frame."""
        frame_base = paddr & -PAGE_SIZE
        colour = frame_base // PAGE_SIZE % self._n_colours
        return colour * self._n_slices + self._slice_of(frame_base)

    def build_for_address(self, ctx: ThreadContext, vaddr: int, extra_ways: int = 0) -> EvictionSet:
        """MES (plus ``extra_ways`` spares) covering the (slice, set) of a
        victim address: the same line of the first pool pages, in page
        order, whose frames share the victim frame's colour and slice.

        Raises RuntimeError when the pool is too small — the artifact's
        advice for its segfault failure mode is exactly "increase the size
        of the memory pool" (§A.4).
        """
        paddr = ctx.space.translate(vaddr)
        slice_id, set_index = self.machine.hierarchy.llc_set_index(paddr)
        pages = self._pages[self._frame_class(paddr)]
        needed = self._associativity + extra_ways
        if len(pages) < needed:
            raise RuntimeError(
                f"pool of {self.pool.n_pages} pages yielded only {len(pages)} "
                f"of {needed} lines for slice {slice_id} set {set_index}; "
                "increase pool_pages"
            )
        offset = paddr % PAGE_SIZE & -CACHE_LINE_SIZE
        return EvictionSet(slice_id, set_index, [page + offset for page in pages[:needed]])

    def build_for_page(self, ctx: ThreadContext, page_base_vaddr: int) -> list[EvictionSet]:
        """MESs covering each of the 64 lines of a victim page, in line order.

        This is the observation window of the paper's Figures 13a/13b: the
        x-axis "#Cache Set" is the line index within the observed page.
        """
        return [
            self.build_for_address(ctx, page_base_vaddr + line * CACHE_LINE_SIZE)
            for line in range(LINES_PER_PAGE)
        ]
