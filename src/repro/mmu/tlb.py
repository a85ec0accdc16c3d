"""Translation lookaside buffer.

The TLB matters to AfterImage because of the paper's §4.3 finding: a load
whose page *misses* the TLB creates the translation but does **not** update
the IP-stride prefetcher state.  The threat model therefore assumes victim
pages are TLB-resident; victims in this library warm the TLB before their
secret-dependent loads, exactly as streaming applications do naturally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memsys.addr import page_frame
from repro.mmu.address_space import AddressSpace
from repro.obs.events import TlbMiss
from repro.params import PAGE_SIZE

if TYPE_CHECKING:
    from repro.cpu.kernel.core import SimKernel

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_MASK = PAGE_SIZE - 1


class TLB:
    """Fully-associative, LRU, ASID-tagged TLB.

    Entries are tagged ``(asid, vpage)``.  An address-space switch flushes
    non-global entries (x86 CR3 write without PCID); kernel translations are
    installed as global and survive, which is why the Variant-2 victim's
    kernel pages stay TLB-resident across the user/kernel round trip.
    """

    def __init__(
        self, n_entries: int, walk_latency: int, kernel: SimKernel | None = None
    ) -> None:
        if n_entries <= 0:
            raise ValueError(f"n_entries must be positive, got {n_entries}")
        if walk_latency <= 0:
            # ``translate`` reports a hit as a zero walk latency.
            raise ValueError(f"walk_latency must be positive, got {walk_latency}")
        self._n_entries = n_entries
        self._walk_latency = walk_latency
        #: (asid, vpage) -> frame, in LRU order (least recently used first).
        self._entries: dict[tuple[int, int], int] = {}
        self._global_keys: set[tuple[int, int]] = set()
        self.hits = 0
        self.misses = 0
        #: The owning machine's kernel, which publishes ``TlbMiss``; a
        #: standalone TLB (``None``) publishes nothing.
        self.kernel = kernel

    def translate(self, space: AddressSpace, vaddr: int) -> tuple[int, int]:
        """Translate ``vaddr`` in ``space``: ``(paddr, walk_latency)``.

        A hit costs no walk, so its walk latency is 0; a miss walks the
        page table and costs the (positive) walk latency.
        """
        vpage = vaddr >> _PAGE_SHIFT
        key = (space.asid, vpage)
        entries = self._entries
        frame = entries.pop(key, None)
        if frame is not None:
            entries[key] = frame
            self.hits += 1
            return (frame << _PAGE_SHIFT) | (vaddr & _PAGE_MASK), 0
        self.misses += 1
        kernel = self.kernel
        if kernel is not None and kernel.tracer is not None:
            kernel.publish(TlbMiss, kernel.clock.cycles, space.asid, vaddr, vpage)
        frame = space.page_table.frame_of(vpage)
        if frame is None:
            raise KeyError(f"page fault: {vaddr:#x} not mapped in {space.name!r}")
        self._install(key, frame, is_global=space.global_pages)
        return (frame << _PAGE_SHIFT) | (vaddr & _PAGE_MASK), self._walk_latency

    def warm(self, space: AddressSpace, vaddr: int) -> None:
        """Pre-install the translation for ``vaddr`` without timing effects."""
        vpage = page_frame(vaddr)
        frame = space.page_table.frame_of(vpage)
        if frame is None:
            raise KeyError(f"page fault: {vaddr:#x} not mapped in {space.name!r}")
        key = (space.asid, vpage)
        if key in self._entries:
            self._entries[key] = self._entries.pop(key)
        else:
            self._install(key, frame, is_global=space.global_pages)

    def is_resident(self, space: AddressSpace, vaddr: int) -> bool:
        """Non-mutating residency check."""
        return (space.asid, page_frame(vaddr)) in self._entries

    def invalidate_page(self, space: AddressSpace, vaddr: int) -> None:
        """INVLPG: drop one translation."""
        key = (space.asid, page_frame(vaddr))
        self._entries.pop(key, None)
        self._global_keys.discard(key)

    def flush(self, keep_global: bool = True) -> None:
        """Flush the TLB (CR3 write); global entries optionally survive."""
        if not keep_global:
            self._entries.clear()
            self._global_keys.clear()
            return
        for key in [key for key in self._entries if key not in self._global_keys]:
            del self._entries[key]

    def _install(self, key: tuple[int, int], frame: int, is_global: bool) -> None:
        if len(self._entries) >= self._n_entries:
            victim = next(iter(self._entries))
            del self._entries[victim]
            self._global_keys.discard(victim)
        self._entries[key] = frame
        if is_global:
            self._global_keys.add(key)

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (resident entries are untouched)."""
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)
