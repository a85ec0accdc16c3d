"""Minimal eviction set (MES) construction for the sliced LLC.

A minimal eviction set for a cache set is ``associativity`` addresses that
all map to the same (slice, set) pair (paper §3.1).  Because the slice hash
takes high physical-address bits, building an MES needs virtual→physical
translation — the paper's artifact reads ``/proc/pid/pagemap`` (and hence
needs sudo, §A.4); here the equivalent capability is reading the simulated
page table.

A search-based builder is also provided for completeness: it discovers
conflicting addresses purely through timing, the way an unprivileged
attacker would (Vila et al., S&P 2019), and is exercised by tests.
"""

from __future__ import annotations

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
    """Build MESs from a private memory pool using pagemap-style translation."""

    def __init__(self, machine: Machine, ctx: ThreadContext, pool_pages: int = 12288) -> None:
        self.machine = machine
        self.ctx = ctx
        self.pool = Buffer(
            ctx.space.mmap(pool_pages * PAGE_SIZE, locked=True, name="es-pool")
        )
        self._associativity = machine.params.llc.ways
        self._llc_sets = machine.params.llc.sets

    def target_of(self, ctx: ThreadContext, vaddr: int) -> tuple[int, int]:
        """(slice, set) pair of a victim address, via its physical address."""
        return self.machine.hierarchy.llc_set_index(ctx.space.translate(vaddr))

    def build(self, slice_id: int, set_index: int, extra_ways: int = 0) -> EvictionSet:
        """Collect an MES (plus ``extra_ways`` spares) for one (slice, set).

        Raises RuntimeError when the pool is too small — the artifact's
        advice for its segfault failure mode is exactly "increase the size
        of the memory pool" (§A.4).
        """
        needed = self._associativity + extra_ways
        es = EvictionSet(slice_id=slice_id, set_index=set_index)
        translate = self.ctx.space.translate
        slice_of = self.machine.hierarchy.slice_hash.slice_of
        for vaddr in self._candidate_lines(set_index):
            if slice_of(translate(vaddr)) == slice_id:
                es.addresses.append(vaddr)
                if len(es.addresses) == needed:
                    return es
        raise RuntimeError(
            f"pool of {self.pool.n_pages} pages yielded only {len(es.addresses)} "
            f"of {needed} lines for slice {slice_id} set {set_index}; "
            "increase pool_pages"
        )

    def build_for_address(self, ctx: ThreadContext, vaddr: int, extra_ways: int = 0) -> EvictionSet:
        """MES covering the (slice, set) of a specific victim address."""
        slice_id, set_index = self.target_of(ctx, vaddr)
        return self.build(slice_id, set_index, extra_ways=extra_ways)

    def build_for_page(self, ctx: ThreadContext, page_base_vaddr: int) -> list[EvictionSet]:
        """MESs covering each of the 64 lines of a victim page, in line order.

        This is the observation window of the paper's Figures 13a/13b: the
        x-axis "#Cache Set" is the line index within the observed page.
        """
        return [
            self.build_for_address(ctx, page_base_vaddr + line * CACHE_LINE_SIZE)
            for line in range(LINES_PER_PAGE)
        ]

    def _candidate_lines(self, set_index: int):
        """Yield pool line vaddrs whose physical set index equals ``set_index``.

        One page walk per pool page, in page order: a page holds the
        candidate line iff its frame's 64 set indices cover ``set_index``.
        """
        translate = self.ctx.space.translate
        llc_sets = self._llc_sets
        base = self.pool.base
        for page_vaddr in range(base, base + self.pool.n_pages * PAGE_SIZE, PAGE_SIZE):
            frame = translate(page_vaddr) // PAGE_SIZE
            line_in_page = (set_index - frame * LINES_PER_PAGE) % llc_sets
            if line_in_page < LINES_PER_PAGE:
                yield page_vaddr + line_in_page * CACHE_LINE_SIZE


def search_eviction_set(
    machine: Machine,
    ctx: ThreadContext,
    target_vaddr: int,
    pool: Buffer,
    probe_ip: int,
) -> list[int]:
    """Timing-based eviction-set search (no pagemap access).

    Greedy group-testing: start from all pool lines that *could* conflict,
    verify they evict the target, then shrink while eviction persists.
    Returns attacker-virtual addresses forming a (near-minimal) eviction
    set.  Slower than the pagemap builder; used to show the privilege
    requirement of §A.4 is a convenience, not a necessity.
    """
    associativity = machine.params.llc.ways

    def evicts(candidates: list[int]) -> bool:
        machine.warm_tlb(ctx, target_vaddr)
        machine.load(ctx, probe_ip, target_vaddr, fenced=True)  # bring target in
        for vaddr in candidates:
            machine.load(ctx, probe_ip + 8, vaddr, fenced=True)
        # Re-warm: the traversal may have evicted the target's TLB entry,
        # and a page walk would masquerade as a cache miss.
        machine.warm_tlb(ctx, target_vaddr)
        latency = machine.load(ctx, probe_ip, target_vaddr, fenced=True)
        return latency >= machine.hit_threshold()

    target_set = machine.hierarchy.llc_set_index(ctx.space.translate(target_vaddr))[1]
    candidates = [
        vaddr
        for vaddr in pool.lines()
        if machine.hierarchy.llc_set_index(ctx.space.translate(vaddr))[1] == target_set
    ]
    if not evicts(candidates):
        raise RuntimeError("candidate pool does not evict the target; grow the pool")

    # Greedily drop lines that are not needed for eviction.
    kept = list(candidates)
    for vaddr in candidates:
        if len(kept) <= associativity:
            break
        trial = [k for k in kept if k != vaddr]
        if evicts(trial):
            kept = trial
    return kept
