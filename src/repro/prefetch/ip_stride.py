"""The Intel IP-stride prefetcher, transcribed from the paper's §4.

Everything in this module encodes a specific reverse-engineering finding:

* **Indexing (Fig. 6)** — the history table is indexed by the least
  significant 8 bits of the load IP and has *no tag*: any two loads whose
  IPs agree in those bits share an entry, across threads, processes, the
  kernel and SGX enclaves.  This aliasing is AfterImage's root cause.
* **Capacity (Fig. 8a)** — 24 entries.
* **Replacement (Fig. 8b)** — Bit-PLRU (contiguous eviction runs).
* **Update/trigger policy (Algorithm 1, Fig. 7)** — 2-bit confidence with
  prefetch threshold 2; once confidence ≥ 2 a prefetch of
  ``current + stride`` is issued *unconditionally*, even when the observed
  stride just changed (the paper's "key component"); a stride mismatch then
  rewrites the stride and resets confidence to 1.
* **Stride field (§4.2)** — sign + 12 bits; strides are learned at byte
  granularity but requests are only issued for magnitudes up to 2 KiB
  (footnote 5: at most 5 secret bits per round at line granularity).
* **Page-boundary rule (§4.3, Table 1)** — a prefetch request never
  crosses the current access's physical frame; a load whose page misses
  the TLB is invisible to the prefetcher ("will not impact the prefetcher
  status"), except that the Haswell+ *next-page prefetcher* carries a
  confident pattern onto the next virtual page.  TLB-resident loads
  trigger normally from any frame — the enabler of every cross-domain
  variant.
* **Persistence** — nothing is cleared on a context/privilege/enclave
  switch; :meth:`IPStridePrefetcher.clear` exists only as the paper's
  proposed ``clear-ip-prefetcher`` mitigation (§8.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.memsys.addr import page_frame, same_page
from repro.memsys.replacement import make_policy
from repro.obs.events import EntrySnapshot, TableTransition
from repro.params import IPStrideParams
from repro.prefetch.base import (
    LoadEvent,
    Prefetcher,
    PrefetchRequest,
    TranslateFn,
    free_slot,
)
from repro.utils.bits import low_bits, sign_extend

if TYPE_CHECKING:
    from repro.cpu.kernel.core import SimKernel


@dataclass(slots=True)
class IPStrideEntry:
    """One history-table entry (Figure 5: IP | Last Addr | Stride | Conf.)."""

    index: int
    last_vaddr: int
    last_paddr: int
    stride: int = 0
    confidence: int = 0

    @property
    def last_frame(self) -> int:
        return page_frame(self.last_paddr)


class IPStridePrefetcher(Prefetcher):
    """History table + update/trigger state machine of the IP-stride prefetcher."""

    name = "ip-stride"

    def __init__(
        self,
        params: IPStrideParams,
        enable_next_page: bool = True,
        kernel: SimKernel | None = None,
    ) -> None:
        self.params = params
        self.enable_next_page = enable_next_page
        self._slots: list[IPStrideEntry | None] = [None] * params.n_entries
        self._index_to_slot: dict[int, int] = {}
        #: Slots whose entry never confirmed a stride (confidence 0): an
        #: entry gets there on allocation and leaves on its first hit.
        self._unconfirmed: set[int] = set()
        self._policy = make_policy(params.replacement, params.n_entries)
        self.prefetches_issued = 0
        self.prefetches_dropped_page_cross = 0
        self.prefetches_dropped_stride_cap = 0
        self.allocations = 0
        self.evictions = 0
        self.evictions_by_cause: dict[str, int] = {"confidence0": 0, "plru": 0}
        self.stride_rewrites = 0
        self.clears = 0
        #: The owning machine's kernel, which publishes every
        #: ``TableTransition``; a standalone prefetcher (``None``)
        #: publishes nothing.
        self.kernel = kernel

    # ------------------------------------------------------------------ #
    # Observation (Algorithm 1)                                           #
    # ------------------------------------------------------------------ #

    def observe(self, event: LoadEvent, translate: TranslateFn) -> list[PrefetchRequest]:
        """Digest one TLB-resident retired load (the paper's Algorithm 1).

        The "key component" (§4.2): once the confidence has reached the
        threshold, a prefetch of ``current + stride`` is issued
        *unconditionally* — before the stride comparison, and regardless of
        whether the access sits in the training page's physical frame.
        This is what lets a single victim load in a completely different
        frame (another process, the kernel, an enclave) fire the prefetch.
        The distance register only keeps the low 13 bits, so a cross-frame
        "stride" wraps into an effectively arbitrary value, rewriting the
        entry's stride and resetting its confidence to 1 — the state change
        AfterImage-PSC reads back.
        """
        index = low_bits(event.ip, self.params.index_bits)
        slot = self._index_to_slot.get(index)
        if slot is None:
            self._allocate(index, event)
            return []

        entry = self._slots[slot]
        assert entry is not None
        self._policy.touch(slot)
        # Every branch below leaves the confidence at 1 or more.
        self._unconfirmed.discard(slot)
        kernel = self.kernel
        traced = kernel is not None and kernel.tracer is not None
        before = EntrySnapshot.of(entry) if traced else None

        requests: list[PrefetchRequest] = []
        distance = sign_extend(event.paddr - entry.last_paddr, self.params.stride_bits)
        if entry.confidence >= self.params.prefetch_threshold:
            # The "key component": trigger unconditionally before updating.
            self._issue(event.paddr, entry.stride, requests)
            if distance != entry.stride:
                entry.stride = distance
                entry.confidence = 1
                self.stride_rewrites += 1
            elif entry.confidence != self.params.confidence_max:
                entry.confidence += 1
        else:
            if distance != entry.stride:
                entry.stride = distance
                entry.confidence = 1
                self.stride_rewrites += 1
            else:
                entry.confidence += 1
                if entry.confidence == self.params.prefetch_threshold:
                    self._issue(event.paddr, entry.stride, requests)
        entry.last_vaddr = event.vaddr
        entry.last_paddr = event.paddr
        if traced:
            kernel.publish(
                TableTransition, kernel.clock.cycles, "update", index, slot,
                before, EntrySnapshot.of(entry), None, bool(requests),
            )
        return requests

    def observe_tlb_miss(self, event: LoadEvent) -> list[PrefetchRequest]:
        """A load whose page missed the TLB (the §4.3 page-boundary rule).

        Such an access "creates the page table entry and will not impact
        the prefetcher status": the entry is neither updated nor triggered.
        The single exception is the Haswell+ *next-page prefetcher*: when a
        confident entry's pattern continues onto the next *virtual* page,
        the prefetch is carried across (Table 1, locked row, offset 1 —
        offsets 2+ stay unprefetchable).
        """
        index = low_bits(event.ip, self.params.index_bits)
        slot = self._index_to_slot.get(index)
        if slot is None:
            return []
        entry = self._slots[slot]
        assert entry is not None
        requests: list[PrefetchRequest] = []
        on_next_virtual_page = page_frame(event.vaddr) == page_frame(entry.last_vaddr) + 1
        if (
            self.enable_next_page
            and on_next_virtual_page
            and entry.confidence >= self.params.prefetch_threshold
        ):
            self._issue(event.paddr, entry.stride, requests)
        return requests

    def _issue(self, paddr: int, stride: int, out: list[PrefetchRequest]) -> None:
        """Issue ``paddr + stride`` unless capped or frame-crossing."""
        if stride == 0:
            return
        if abs(stride) > self.params.max_stride_bytes:
            self.prefetches_dropped_stride_cap += 1
            return
        target = paddr + stride
        if not same_page(target, paddr):
            self.prefetches_dropped_page_cross += 1
            return
        self.prefetches_issued += 1
        out.append(PrefetchRequest(paddr=target, source=self.name))

    def _allocate(self, index: int, event: LoadEvent) -> None:
        """Create_New_Entry(IP, confidence = 0, stride = 0) with replacement.

        Victim preference: a free slot, then a confidence-0 entry (an entry
        that never confirmed a stride is worthless to keep), then the
        Bit-PLRU victim.  The confidence-0 preference is required to make
        the paper's own Figure 8a/8b methodology self-consistent: those
        experiments re-execute evicted IPs while probing, and with a pure
        bit-scan victim each re-allocation would cascade through the live
        entries, destroying the contiguous-eviction signal the paper
        measured on hardware.
        """
        self.allocations += 1
        kernel = self.kernel
        traced = kernel is not None and kernel.tracer is not None
        if len(self._index_to_slot) < self.params.n_entries:
            slot = free_slot(self._slots)
        else:
            slot, cause = self._victim_slot()
            victim = self._slots[slot]
            assert victim is not None
            del self._index_to_slot[victim.index]
            self.evictions += 1
            self.evictions_by_cause[cause] += 1
            if traced:
                kernel.publish(
                    TableTransition, kernel.clock.cycles, "evict", victim.index, slot,
                    EntrySnapshot.of(victim), None, cause,
                )
        entry = IPStrideEntry(index=index, last_vaddr=event.vaddr, last_paddr=event.paddr)
        self._slots[slot] = entry
        self._index_to_slot[index] = slot
        self._unconfirmed.add(slot)
        self._policy.fill(slot)
        if traced:
            kernel.publish(
                TableTransition, kernel.clock.cycles, "allocate", index, slot,
                None, EntrySnapshot.of(entry),
            )

    def _victim_slot(self) -> tuple[int, str]:
        """Victim slot and the cause label for eviction statistics.

        The lowest-numbered confidence-0 slot, else the Bit-PLRU victim.
        """
        if self._unconfirmed:
            return min(self._unconfirmed), "confidence0"
        return self._policy.victim(), "plru"

    # ------------------------------------------------------------------ #
    # Introspection and mitigation                                        #
    # ------------------------------------------------------------------ #

    def entry_for_ip(self, ip: int) -> IPStrideEntry | None:
        """The entry a load at ``ip`` would hit (low-8-bit aliasing included)."""
        slot = self._index_to_slot.get(low_bits(ip, self.params.index_bits))
        if slot is None:
            return None
        return self._slots[slot]

    def entries(self) -> list[IPStrideEntry]:
        """All live entries (unordered)."""
        return [entry for entry in self._slots if entry is not None]

    @property
    def occupancy(self) -> int:
        return len(self._index_to_slot)

    def clear(self) -> None:
        """The proposed privileged ``clear-ip-prefetcher`` instruction (§8.3)."""
        self.clears += 1
        evicted = len(self._index_to_slot)
        self._slots = [None] * self.params.n_entries
        self._index_to_slot.clear()
        self._unconfirmed.clear()
        self._policy.reset()
        kernel = self.kernel
        if kernel is not None and kernel.tracer is not None:
            kernel.publish(
                TableTransition, kernel.clock.cycles, "clear", -1, -1,
                None, None, None, False, evicted,
            )

    def reset_stats(self) -> None:
        """Zero every counter (table contents are untouched)."""
        self.prefetches_issued = 0
        self.prefetches_dropped_page_cross = 0
        self.prefetches_dropped_stride_cap = 0
        self.allocations = 0
        self.evictions = 0
        self.evictions_by_cause = {"confidence0": 0, "plru": 0}
        self.stride_rewrites = 0
        self.clears = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IPStridePrefetcher(entries={self.occupancy}/{self.params.n_entries}, "
            f"issued={self.prefetches_issued})"
        )
