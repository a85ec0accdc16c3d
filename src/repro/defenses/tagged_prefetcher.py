"""The tagged-history-table hardware fix (paper §8.2).

"Augmenting the history table with extra tags that include execution
context-specific information such as the process ID prevents hardware
sharing."  This prefetcher keys each entry on ``(asid, full IP)``:

* a gadget load can no longer alias a victim load — the full-IP tag kills
  Variant 1's masquerading;
* entries are private to an address space — nothing leaks across process,
  kernel or enclave boundaries, and nothing needs flushing on a switch.

The cost the paper notes ("hardware modification and an increased hardware
budget") is the wider tag storage; the *performance* behaviour for the
legitimate owner is unchanged, which `tests/test_defenses.py` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.machine import Machine
from repro.memsys.replacement import make_policy
from repro.params import PAGE_SIZE, IPStrideParams
from repro.prefetch.base import (
    LoadEvent,
    Prefetcher,
    PrefetchRequest,
    TranslateFn,
    free_slot,
)
from repro.utils.bits import sign_extend


@dataclass
class TaggedEntry:
    """History entry with a full (asid, IP) tag."""

    asid: int
    ip: int
    last_vaddr: int
    last_paddr: int
    stride: int = 0
    confidence: int = 0


class TaggedIPStridePrefetcher(Prefetcher):
    """IP-stride prefetcher whose entries are (asid, full-IP)-tagged.

    Same capacity, confidence/stride policy, page rules and replacement as
    the stock :class:`~repro.prefetch.ip_stride.IPStridePrefetcher`; only
    the lookup key differs — which is the entire defense.
    """

    name = "ip-stride-tagged"

    def __init__(self, params: IPStrideParams | None = None) -> None:
        self.params = params if params is not None else IPStrideParams()
        self._slots: list[TaggedEntry | None] = [None] * self.params.n_entries
        self._key_to_slot: dict[tuple[int, int], int] = {}
        #: Slots holding a confidence-0 entry (see ``IPStridePrefetcher``).
        self._unconfirmed: set[int] = set()
        self._policy = make_policy(self.params.replacement, self.params.n_entries)
        self.prefetches_issued = 0
        self.evictions = 0

    def reset_stats(self) -> None:
        """Zero statistics counters; the tagged table is untouched."""
        self.prefetches_issued = 0
        self.evictions = 0

    def observe(self, event: LoadEvent, translate: TranslateFn) -> list[PrefetchRequest]:
        key = (event.asid, event.ip)
        slot = self._key_to_slot.get(key)
        if slot is None:
            self._allocate(key, event)
            return []
        entry = self._slots[slot]
        assert entry is not None
        self._policy.touch(slot)
        self._unconfirmed.discard(slot)

        requests: list[PrefetchRequest] = []
        distance = sign_extend(event.paddr - entry.last_paddr, self.params.stride_bits)
        if entry.confidence >= self.params.prefetch_threshold:
            self._issue(event.paddr, entry.stride, requests)
            if distance != entry.stride:
                entry.stride = distance
                entry.confidence = 1
            elif entry.confidence != self.params.confidence_max:
                entry.confidence += 1
        else:
            if distance != entry.stride:
                entry.stride = distance
                entry.confidence = 1
            else:
                entry.confidence += 1
                if entry.confidence == self.params.prefetch_threshold:
                    self._issue(event.paddr, entry.stride, requests)
        entry.last_vaddr = event.vaddr
        entry.last_paddr = event.paddr
        return requests

    def observe_tlb_miss(self, event: LoadEvent) -> list[PrefetchRequest]:
        """Next-page carry-over still works — but only for the owner."""
        slot = self._key_to_slot.get((event.asid, event.ip))
        if slot is None:
            return []
        entry = self._slots[slot]
        assert entry is not None
        requests: list[PrefetchRequest] = []
        if (
            event.vaddr // PAGE_SIZE == entry.last_vaddr // PAGE_SIZE + 1
            and entry.confidence >= self.params.prefetch_threshold
        ):
            self._issue(event.paddr, entry.stride, requests)
        return requests

    def entry_for(self, asid: int, ip: int) -> TaggedEntry | None:
        slot = self._key_to_slot.get((asid, ip))
        return self._slots[slot] if slot is not None else None

    def entry_for_ip(self, ip: int) -> TaggedEntry | None:
        """Duck-type compatibility: full-IP match in *any* space.

        Unlike the stock prefetcher this never aliases on low bits, so an
        attacker-controlled IP can only resolve its own entries.
        """
        for entry in self._slots:
            if entry is not None and entry.ip == ip:
                return entry
        return None

    @property
    def occupancy(self) -> int:
        return len(self._key_to_slot)

    def clear(self) -> None:
        self._slots = [None] * self.params.n_entries
        self._key_to_slot.clear()
        self._unconfirmed.clear()
        self._policy.reset()

    def _issue(self, paddr: int, stride: int, out: list[PrefetchRequest]) -> None:
        if stride == 0 or abs(stride) > self.params.max_stride_bytes:
            return
        target = paddr + stride
        if target // PAGE_SIZE != paddr // PAGE_SIZE:
            return
        self.prefetches_issued += 1
        out.append(PrefetchRequest(paddr=target, source=self.name))

    def _allocate(self, key: tuple[int, int], event: LoadEvent) -> None:
        if len(self._key_to_slot) < self.params.n_entries:
            slot = free_slot(self._slots)
        else:
            slot = self._victim_slot()
            victim = self._slots[slot]
            assert victim is not None
            del self._key_to_slot[(victim.asid, victim.ip)]
            self.evictions += 1
        self._slots[slot] = TaggedEntry(
            asid=event.asid, ip=event.ip, last_vaddr=event.vaddr, last_paddr=event.paddr
        )
        self._key_to_slot[key] = slot
        self._unconfirmed.add(slot)
        self._policy.fill(slot)

    def _victim_slot(self) -> int:
        """The lowest-numbered confidence-0 slot, else the Bit-PLRU victim."""
        if self._unconfirmed:
            return min(self._unconfirmed)
        return self._policy.victim()


def harden_machine(machine: Machine) -> TaggedIPStridePrefetcher:
    """Swap the machine's IP-stride prefetcher for the tagged variant.

    Returns the new prefetcher.  Existing attack objects keep working but
    stop leaking — the point of the exercise.
    """
    tagged = TaggedIPStridePrefetcher(machine.params.prefetcher)
    machine.ip_stride = tagged  # type: ignore[assignment]
    return tagged
