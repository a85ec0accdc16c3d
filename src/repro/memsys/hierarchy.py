"""Three-level inclusive cache hierarchy with a sliced LLC.

Latency-only model: every access returns the level that served it plus the
level's load-to-use latency.  Data values are never stored — all experiments
in the paper observe residency and timing, not contents.

Inclusivity is load-bearing for the reproduction: Prime+Probe (paper §5.1)
relies on LLC evictions back-invalidating the private caches so that a
later victim access misses all the way to DRAM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.memsys.cache import Cache
from repro.memsys.slice_hash import SliceHash
from repro.obs.events import PrefetchFill
from repro.params import PAGE_SIZE, MachineParams

if TYPE_CHECKING:
    from repro.cpu.kernel.core import SimKernel


class MemoryLevel(enum.IntEnum):
    """Which level of the hierarchy served an access."""

    L1 = 1
    L2 = 2
    LLC = 3
    DRAM = 4


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one demand access; one shared, frozen instance per level."""

    level: MemoryLevel
    latency: int

    @property
    def hit(self) -> bool:
        """True when the access was served by any cache level."""
        return self.level is not MemoryLevel.DRAM


class CacheHierarchy:
    """L1D + L2 + sliced, inclusive LLC, keyed by physical line number.

    Every level shares one line size (``MachineParams`` checks), so one
    line number, ``paddr >> line_shift``, is the key at every level: it
    picks the set in each ``Cache.sets`` and is the entry stored there.
    ``access``, ``insert_prefetch`` and ``clflush`` compute it once and
    read and write the three levels' set dicts directly.

    Slice selection uses the linearity of the slice hash: every slice bit
    is the parity of a mask, so a line's slice is its frame's slice XOR the
    slice of its offset within the page.  The frame part is memoised per
    frame on first use and the in-page part is a table of one entry per
    line of a page; ``SliceHash.slice_of`` stays the reference.
    """

    def __init__(self, params: MachineParams, kernel: SimKernel | None = None) -> None:
        self.params = params
        self.l1 = Cache(params.l1d)
        self.l2 = Cache(params.l2)
        self.slice_hash = SliceHash(params.llc_slices)
        self.llc = [Cache(params.llc) for _ in range(params.llc_slices)]
        # The demand path's per-level results, built once: ``access`` runs
        # on every simulated load.
        self._l1_hit = AccessResult(MemoryLevel.L1, params.l1d.latency)
        self._l2_hit = AccessResult(MemoryLevel.L2, params.l2.latency)
        self._llc_hit = AccessResult(MemoryLevel.LLC, params.llc.latency)
        self._dram_miss = AccessResult(MemoryLevel.DRAM, params.dram_latency)
        self._line_shift = self.l1.line_shift
        lines_per_page = PAGE_SIZE // self.l1.line_size
        self._page_line_bits = lines_per_page.bit_length() - 1
        self._page_line_mask = lines_per_page - 1
        self._in_page_slices = tuple(
            self.slice_hash.slice_of(line << self._line_shift) for line in range(lines_per_page)
        )
        #: frame number -> slice of the frame's first byte, filled lazily.
        self._frame_slices: dict[int, int] = {}
        self.prefetch_fills = 0
        self.demand_accesses = 0
        #: Prefetch accuracy accounting: line numbers brought in by a
        #: prefetch and not yet touched by demand.  A later demand hit on
        #: such a line is a *useful* prefetch; losing the line first
        #: (eviction or flush) makes it *useless*.
        self.prefetch_useful = 0
        self.prefetch_useless = 0
        self._prefetched_lines: set[int] = set()
        #: The owning machine's kernel, which publishes ``PrefetchFill``; a
        #: standalone hierarchy (``None``) publishes nothing.
        self.kernel = kernel

    def latency_of(self, level: MemoryLevel) -> int:
        """Load-to-use latency of ``level`` (before timing noise)."""
        results = (self._l1_hit, self._l2_hit, self._llc_hit, self._dram_miss)
        return results[level - MemoryLevel.L1].latency

    def _slice_of_line(self, line: int) -> int:
        """LLC slice of line number ``line``: frame slice XOR in-page slice."""
        frame = line >> self._page_line_bits
        frame_slice = self._frame_slices.get(frame)
        if frame_slice is None:
            frame_slice = self._frame_slices[frame] = self.slice_hash.slice_of(frame * PAGE_SIZE)
        return frame_slice ^ self._in_page_slices[line & self._page_line_mask]

    def llc_slice(self, paddr: int) -> Cache:
        """The LLC slice responsible for ``paddr``."""
        return self.llc[self._slice_of_line(paddr >> self._line_shift)]

    def llc_set_index(self, paddr: int) -> tuple[int, int]:
        """(slice id, set index) pair for ``paddr`` — the Prime+Probe target."""
        slice_id = self._slice_of_line(paddr >> self._line_shift)
        return slice_id, self.llc[slice_id].set_index(paddr)

    def access(self, paddr: int) -> AccessResult:
        """Perform a demand load of ``paddr``, filling caches on the way.

        One pass down the levels with one line number: a hit refreshes the
        line's LRU position, and every level above the one that served the
        access is filled, evicting its least recently used line if full.
        The LLC slice is ``_slice_of_line`` read inline from the per-frame
        table once the frame has been seen.
        """
        self.demand_accesses += 1
        line = paddr >> self._line_shift
        prefetched = self._prefetched_lines
        if prefetched and line in prefetched:
            prefetched.discard(line)
            self.prefetch_useful += 1
        l1 = self.l1
        l1_set = l1.sets[line & l1.set_mask]
        if line in l1_set:
            del l1_set[line]
            l1_set[line] = None
            l1.hits += 1
            return self._l1_hit
        l1.misses += 1
        l2 = self.l2
        l2_set = l2.sets[line & l2.set_mask]
        if line in l2_set:
            del l2_set[line]
            l2_set[line] = None
            l2.hits += 1
            result = self._l2_hit
        else:
            l2.misses += 1
            frame_slice = self._frame_slices.get(line >> self._page_line_bits)
            if frame_slice is None:
                llc = self.llc[self._slice_of_line(line)]
            else:
                llc = self.llc[frame_slice ^ self._in_page_slices[line & self._page_line_mask]]
            llc_set = llc.sets[line & llc.set_mask]
            if line in llc_set:
                del llc_set[line]
                llc_set[line] = None
                llc.hits += 1
                result = self._llc_hit
            else:
                llc.misses += 1
                if len(llc_set) >= llc.ways:
                    self._evict_llc_lru(llc_set)
                llc_set[line] = None
                result = self._dram_miss
            if len(l2_set) >= l2.ways:
                del l2_set[next(iter(l2_set))]
            l2_set[line] = None
        if len(l1_set) >= l1.ways:
            del l1_set[next(iter(l1_set))]
        l1_set[line] = None
        return result

    def insert_prefetch(self, paddr: int) -> None:
        """Install a prefetched line.

        Intel's IP-stride prefetcher delivers into the L2 (and therefore,
        by inclusion, the LLC) — not the L1.  A subsequent demand access
        consequently sees an L2-hit latency, far below the paper's
        120-cycle threshold.
        """
        self.prefetch_fills += 1
        line = paddr >> self._line_shift
        llc = self.llc[self._slice_of_line(line)]
        llc_set = llc.sets[line & llc.set_mask]
        if line in llc_set:
            del llc_set[line]
        elif len(llc_set) >= llc.ways:
            self._evict_llc_lru(llc_set)
        llc_set[line] = None
        l2 = self.l2
        l2_set = l2.sets[line & l2.set_mask]
        if line in l2_set:
            del l2_set[line]
        elif len(l2_set) >= l2.ways:
            del l2_set[next(iter(l2_set))]
        l2_set[line] = None
        self._prefetched_lines.add(line)
        kernel = self.kernel
        if kernel is not None and kernel.tracer is not None:
            kernel.publish(PrefetchFill, kernel.clock.cycles, paddr)

    def _evict_llc_lru(self, llc_set: dict[int, None]) -> None:
        """Evict the LRU line of a full LLC set, and by inclusion from L1/L2."""
        line = next(iter(llc_set))
        del llc_set[line]
        self._drop_from_core(line)

    def _drop_from_core(self, line: int) -> None:
        """Remove ``line`` from L1 and L2; an untouched prefetch is useless."""
        l1, l2 = self.l1, self.l2
        l1.sets[line & l1.set_mask].pop(line, None)
        l2.sets[line & l2.set_mask].pop(line, None)
        if line in self._prefetched_lines:
            self._prefetched_lines.discard(line)
            self.prefetch_useless += 1

    def clflush(self, paddr: int) -> None:
        """Flush the line containing ``paddr`` from the whole hierarchy."""
        line = paddr >> self._line_shift
        llc = self.llc[self._slice_of_line(line)]
        llc.sets[line & llc.set_mask].pop(line, None)
        self._drop_from_core(line)

    def contains(self, paddr: int) -> MemoryLevel | None:
        """Highest level currently holding ``paddr`` (non-mutating)."""
        if self.l1.contains(paddr):
            return MemoryLevel.L1
        if self.l2.contains(paddr):
            return MemoryLevel.L2
        if self.llc_slice(paddr).contains(paddr):
            return MemoryLevel.LLC
        return None

    def flush_all(self) -> None:
        """Invalidate every line at every level."""
        self.l1.flush_all()
        self.l2.flush_all()
        for llc_slice in self.llc:
            llc_slice.flush_all()
        self.prefetch_useless += len(self._prefetched_lines)
        self._prefetched_lines.clear()

    def reset_stats(self) -> None:
        """Zero every counter, including prefetch-accuracy accounting.

        The set of not-yet-touched prefetched lines is intentionally kept:
        it describes cache *contents*, not statistics, and dropping it
        would misclassify their eventual demand hits.
        """
        self.prefetch_fills = 0
        self.demand_accesses = 0
        self.prefetch_useful = 0
        self.prefetch_useless = 0
        self.l1.reset_stats()
        self.l2.reset_stats()
        for llc_slice in self.llc:
            llc_slice.reset_stats()
