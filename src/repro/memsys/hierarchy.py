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

from repro.memsys.cache import Cache
from repro.memsys.slice_hash import SliceHash
from repro.obs.tracer import NULL_TRACER, zero_clock
from repro.params import MachineParams


class MemoryLevel(enum.IntEnum):
    """Which level of the hierarchy served an access."""

    L1 = 1
    L2 = 2
    LLC = 3
    DRAM = 4


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one demand access."""

    paddr: int
    level: MemoryLevel
    latency: int

    @property
    def hit(self) -> bool:
        """True when the access was served by any cache level."""
        return self.level is not MemoryLevel.DRAM


class CacheHierarchy:
    """L1D + L2 + sliced, inclusive LLC."""

    def __init__(self, params: MachineParams) -> None:
        self.params = params
        self.l1 = Cache(params.l1d)
        self.l2 = Cache(params.l2)
        self.slice_hash = SliceHash(params.llc_slices)
        self.llc = [Cache(params.llc) for _ in range(params.llc_slices)]
        self._latency = {
            MemoryLevel.L1: params.l1d.latency,
            MemoryLevel.L2: params.l2.latency,
            MemoryLevel.LLC: params.llc.latency,
            MemoryLevel.DRAM: params.dram_latency,
        }
        # The demand path's per-level latencies, line mask and slice-hash
        # masks, bound once: ``access`` runs on every simulated load.
        self._l1_latency = params.l1d.latency
        self._l2_latency = params.l2.latency
        self._llc_latency = params.llc.latency
        self._dram_latency = params.dram_latency
        self._line_mask = -self.l1.line_size
        self._slice_masks = tuple(enumerate(self.slice_hash.masks))
        self.prefetch_fills = 0
        self.demand_accesses = 0
        #: Prefetch accuracy accounting: line addresses brought in by a
        #: prefetch and not yet touched by demand.  A later demand hit on
        #: such a line is a *useful* prefetch; losing the line first
        #: (eviction or flush) makes it *useless*.
        self.prefetch_useful = 0
        self.prefetch_useless = 0
        self._prefetched_lines: set[int] = set()
        #: Observability hooks, reassigned by the owning Machine; the
        #: defaults keep a standalone hierarchy silent.
        self.tracer = NULL_TRACER
        self.clock = zero_clock

    def latency_of(self, level: MemoryLevel) -> int:
        """Load-to-use latency of ``level`` (before timing noise)."""
        return self._latency[level]

    def llc_slice(self, paddr: int) -> Cache:
        """The LLC slice responsible for ``paddr``."""
        return self.llc[self.slice_hash.slice_of(paddr)]

    def llc_set_index(self, paddr: int) -> tuple[int, int]:
        """(slice id, set index) pair for ``paddr`` — the Prime+Probe target."""
        slice_id = self.slice_hash.slice_of(paddr)
        return slice_id, self.llc[slice_id].set_index(paddr)

    def access(self, paddr: int) -> AccessResult:
        """Perform a demand load of ``paddr``, filling caches on the way."""
        self.demand_accesses += 1
        prefetched = self._prefetched_lines
        if prefetched:
            line = paddr & self._line_mask
            if line in prefetched:
                prefetched.discard(line)
                self.prefetch_useful += 1
        l1 = self.l1
        if l1.lookup(paddr):
            return AccessResult(paddr, MemoryLevel.L1, self._l1_latency)
        l2 = self.l2
        if l2.lookup(paddr):
            l1.insert(paddr)
            return AccessResult(paddr, MemoryLevel.L2, self._l2_latency)
        # The slice hash (``SliceHash.slice_of``), inline.
        slice_id = 0
        for bit, mask in self._slice_masks:
            slice_id |= ((paddr & mask).bit_count() & 1) << bit
        llc = self.llc[slice_id]
        if llc.lookup(paddr):
            l2.insert(paddr)
            l1.insert(paddr)
            return AccessResult(paddr, MemoryLevel.LLC, self._llc_latency)
        self._fill_from_dram(paddr, llc, into_l1=True)
        return AccessResult(paddr, MemoryLevel.DRAM, self._dram_latency)

    def insert_prefetch(self, paddr: int) -> None:
        """Install a prefetched line.

        Intel's IP-stride prefetcher delivers into the L2 (and therefore,
        by inclusion, the LLC) — not the L1.  A subsequent demand access
        consequently sees an L2-hit latency, far below the paper's
        120-cycle threshold.
        """
        self.prefetch_fills += 1
        self._fill_from_dram(paddr, self.llc_slice(paddr), into_l1=False)
        self._prefetched_lines.add(self.l1.line_address(paddr))
        if self.tracer.enabled:
            from repro.obs.events import PrefetchFill

            self.tracer.emit(PrefetchFill(cycle=self.clock(), paddr=paddr))

    def _fill_from_dram(self, paddr: int, llc: Cache, into_l1: bool) -> None:
        evicted = llc.insert(paddr)
        if evicted is not None:
            # Inclusive LLC: a line leaving the LLC leaves the core caches too.
            self.l1.invalidate(evicted)
            self.l2.invalidate(evicted)
            if evicted in self._prefetched_lines:
                self._prefetched_lines.discard(evicted)
                self.prefetch_useless += 1
        self.l2.insert(paddr)
        if into_l1:
            self.l1.insert(paddr)

    def clflush(self, paddr: int) -> None:
        """Flush the line containing ``paddr`` from the whole hierarchy."""
        self.l1.invalidate(paddr)
        self.l2.invalidate(paddr)
        self.llc_slice(paddr).invalidate(paddr)
        line = self.l1.line_address(paddr)
        if line in self._prefetched_lines:
            self._prefetched_lines.discard(line)
            self.prefetch_useless += 1

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
