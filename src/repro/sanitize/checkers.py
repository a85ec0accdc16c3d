"""Invariant checkers for the individual µarch components.

Each checker validates the *documented* invariants of one model class —
the properties the paper's reverse engineering pins down (§4.2, §4.3,
Table 1, Fig. 8) plus the structural bookkeeping those classes rely on.
The checkers deliberately read the components' private state: they are
the sanitizer, auditing representation invariants from outside so the hot
paths stay assertion-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memsys.replacement import BitPLRU
from repro.params import PAGE_SIZE
from repro.sanitize.violations import InvariantViolation

if TYPE_CHECKING:
    from repro.memsys.cache import Cache
    from repro.memsys.hierarchy import CacheHierarchy
    from repro.mmu.address_space import AddressSpace
    from repro.mmu.tlb import TLB
    from repro.prefetch.base import LoadEvent, PrefetchRequest
    from repro.prefetch.ip_stride import IPStridePrefetcher


class PrefetcherChecker:
    """Invariants of the IP-stride history table (§4.2, Fig. 8).

    * the table never exceeds its ``n_entries`` capacity;
    * ``_index_to_slot`` and ``_slots`` form a bijection over live entries;
    * every entry index fits in ``index_bits`` (Fig. 6: low-IP-bits, no tag);
    * confidence stays within the 2-bit counter range;
    * strides stay within the sign + 12-bit field (§4.2);
    * Bit-PLRU MRU bits never saturate (all-set would make ``victim()``
      meaningless — the generation reset must have fired, Fig. 8b).
    """

    def __init__(self, prefetcher: IPStridePrefetcher) -> None:
        self.prefetcher = prefetcher

    def check(self, cycle: int | None = None) -> None:
        pf = self.prefetcher
        params = pf.params
        n = params.n_entries
        if len(pf._slots) != n:
            raise InvariantViolation(
                "ip-stride",
                "table-capacity",
                f"slot array has {len(pf._slots)} slots, expected {n}",
                cycle,
                {"n_slots": len(pf._slots)},
            )
        live = {slot for slot, entry in enumerate(pf._slots) if entry is not None}
        if pf.occupancy > n or len(live) > n:
            raise InvariantViolation(
                "ip-stride",
                "table-capacity",
                f"occupancy {pf.occupancy} exceeds {n} entries (Fig. 8a)",
                cycle,
                {"occupancy": pf.occupancy},
            )
        if set(pf._index_to_slot.values()) != live or len(pf._index_to_slot) != len(live):
            raise InvariantViolation(
                "ip-stride",
                "index-map",
                "_index_to_slot and _slots disagree about which slots are live",
                cycle,
                {"mapped_slots": sorted(pf._index_to_slot.values()), "live_slots": sorted(live)},
            )
        for index, slot in pf._index_to_slot.items():
            entry = pf._slots[slot]
            if entry is None or entry.index != index:
                raise InvariantViolation(
                    "ip-stride",
                    "index-map",
                    f"index {index:#x} maps to slot {slot} holding "
                    f"{'nothing' if entry is None else f'index {entry.index:#x}'}",
                    cycle,
                    {"index": index, "slot": slot},
                )
        stride_min = -(1 << (params.stride_bits - 1))
        stride_max = (1 << (params.stride_bits - 1)) - 1
        for slot in live:
            entry = pf._slots[slot]
            assert entry is not None
            if not 0 <= entry.index < (1 << params.index_bits):
                raise InvariantViolation(
                    "ip-stride",
                    "index-width",
                    f"entry index {entry.index:#x} does not fit in "
                    f"{params.index_bits} bits (Fig. 6)",
                    cycle,
                    {"slot": slot, "index": entry.index},
                )
            if not 0 <= entry.confidence <= params.confidence_max:
                raise InvariantViolation(
                    "ip-stride",
                    "confidence-range",
                    f"confidence {entry.confidence} outside "
                    f"[0, {params.confidence_max}] (§4.2: 2-bit counter)",
                    cycle,
                    {"slot": slot, "index": entry.index, "confidence": entry.confidence},
                )
            if not stride_min <= entry.stride <= stride_max:
                raise InvariantViolation(
                    "ip-stride",
                    "stride-width",
                    f"stride {entry.stride} outside the sign+{params.stride_bits - 1}-bit "
                    f"field [{stride_min}, {stride_max}] (§4.2)",
                    cycle,
                    {"slot": slot, "index": entry.index, "stride": entry.stride},
                )
        policy = pf._policy
        if isinstance(policy, BitPLRU):
            if len(policy._mru) != n:
                raise InvariantViolation(
                    "ip-stride",
                    "bit-plru",
                    f"MRU bitvector has {len(policy._mru)} bits, expected {n}",
                    cycle,
                    {"n_bits": len(policy._mru)},
                )
            if all(policy._mru):
                raise InvariantViolation(
                    "ip-stride",
                    "bit-plru",
                    "all MRU bits set: the generation reset must fire before "
                    "saturation (Fig. 8b would show no eviction runs)",
                    cycle,
                    {"mru": list(policy._mru)},
                )

    def check_request(
        self, event: LoadEvent, request: PrefetchRequest, cycle: int | None = None
    ) -> None:
        """§4.3 / Table 1: an issued prefetch never leaves the triggering
        access's physical frame."""
        if request.paddr // PAGE_SIZE != event.paddr // PAGE_SIZE:
            raise InvariantViolation(
                "ip-stride",
                "page-boundary",
                f"prefetch of {request.paddr:#x} crosses the frame of the "
                f"triggering access {event.paddr:#x} (§4.3, Table 1)",
                cycle,
                {"trigger_paddr": event.paddr, "request_paddr": request.paddr},
            )


class HierarchyChecker:
    """Invariants of the inclusive cache hierarchy.

    Inclusivity (L1 ⊆ LLC and L2 ⊆ LLC) is load-bearing for Prime+Probe
    (§5.1): an LLC eviction must back-invalidate the core caches, or the
    probe would read a stale hit.  ``check_line`` is the cheap per-access
    form; ``check_inclusive`` walks every resident line.
    """

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        self.hierarchy = hierarchy

    def check_line(self, paddr: int, cycle: int | None = None) -> None:
        h = self.hierarchy
        in_core = h.l1.contains(paddr) or h.l2.contains(paddr)
        if in_core and not h.llc_slice(paddr).contains(paddr):
            raise InvariantViolation(
                "hierarchy",
                "inclusivity",
                f"line {paddr:#x} is core-cache resident but absent from its "
                "LLC slice (back-invalidation missed, §5.1)",
                cycle,
                {"paddr": paddr, "in_l1": h.l1.contains(paddr), "in_l2": h.l2.contains(paddr)},
            )

    def check_inclusive(self, cycle: int | None = None) -> None:
        h = self.hierarchy
        for name, cache in (("L1", h.l1), ("L2", h.l2)):
            self._check_set_consistency(name, cache, cycle)
            for line in cache.resident_lines():
                if not h.llc_slice(line).contains(line):
                    raise InvariantViolation(
                        "hierarchy",
                        "inclusivity",
                        f"{name} line {line:#x} is absent from its LLC slice",
                        cycle,
                        {"level": name, "line": line},
                    )
        for slice_id, llc in enumerate(h.llc):
            self._check_set_consistency(f"LLC[{slice_id}]", llc, cycle)

    @staticmethod
    def _check_set_consistency(name: str, cache: Cache, cycle: int | None) -> None:
        """Each set holds at most ``ways`` lines, all of which map to it."""
        set_mask = cache.set_mask
        for index, lines in enumerate(cache.sets):
            if len(lines) > cache.ways:
                raise InvariantViolation(
                    "hierarchy",
                    "set-bookkeeping",
                    f"{name} set {index}: {len(lines)} lines in {cache.ways} ways",
                    cycle,
                    {"cache": name, "set": index},
                )
            for line in lines:
                if line & set_mask != index:
                    raise InvariantViolation(
                        "hierarchy",
                        "set-bookkeeping",
                        f"{name} set {index} holds line {line:#x} of set {line & set_mask}",
                        cycle,
                        {"cache": name, "set": index, "line": line},
                    )


class TLBChecker:
    """Invariants of the ASID-tagged TLB and its page-table agreement.

    The §4.3 rule (TLB-missing loads are invisible to the prefetcher) makes
    TLB residency part of the attack surface, so a TLB whose cached frame
    disagrees with the page table would silently corrupt every experiment.
    """

    def __init__(self, tlb: TLB) -> None:
        self.tlb = tlb

    def check_fast(self, cycle: int | None = None) -> None:
        """O(1) per-load check: the TLB holds at most ``n_entries``."""
        tlb = self.tlb
        if len(tlb._entries) > tlb._n_entries:
            raise InvariantViolation(
                "tlb",
                "capacity",
                f"{len(tlb._entries)} entries exceed capacity {tlb._n_entries}",
                cycle,
                {"occupancy": len(tlb._entries)},
            )

    def check(self, spaces: dict[int, AddressSpace], cycle: int | None = None) -> None:
        tlb = self.tlb
        self.check_fast(cycle)
        if not tlb._global_keys <= tlb._entries.keys():
            raise InvariantViolation(
                "tlb",
                "lru-bookkeeping",
                "global-key set references evicted entries",
                cycle,
                {"orphans": sorted(tlb._global_keys - tlb._entries.keys())},
            )
        for (asid, vpage), frame in tlb._entries.items():
            space = spaces.get(asid)
            if space is None:
                continue
            true_frame = space.page_table.frame_of(vpage)
            if true_frame != frame:
                raise InvariantViolation(
                    "tlb",
                    "page-table-agreement",
                    f"cached frame {frame:#x} for vpage {vpage:#x} (asid {asid}) "
                    f"disagrees with the page table ({true_frame!r:.32})",
                    cycle,
                    {"asid": asid, "vpage": vpage, "cached": frame, "true": true_frame},
                )
