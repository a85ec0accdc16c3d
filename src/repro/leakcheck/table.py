"""The abstract IP-stride history table: Algorithm 1 with taint tracking.

:class:`AbstractTable` *is* the stock
:class:`repro.prefetch.ip_stride.IPStridePrefetcher` — indexing, the
threshold-2 unconditional trigger, stride rewrites, the 2 KiB issue cap,
the frame-boundary drop and the victim choice all come from the base
class — run over a simpler event alphabet, ``(ip, paddr, taint)`` with
virtual = physical.  It adds only what the dynamic model has no use for:

* every live index carries a **taint set**, the union of the taints of
  all loads that have touched it since allocation (surviving stride
  rewrites and confidence resets, because the *fact* that a tainted load
  disturbed the entry is itself secret-dependent information);
* every issued prefetch is **logged** with its index and that taint set,
  so two runs can be diffed on their prefetch footprints as well as their
  final table states.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memsys.hierarchy import MemoryLevel
from repro.params import IPStrideParams
from repro.prefetch.base import LoadEvent
from repro.prefetch.ip_stride import IPStrideEntry, IPStridePrefetcher
from repro.utils.bits import low_bits


@dataclass(frozen=True, slots=True)
class AbstractPrefetch:
    """One issued prefetch, with the taint of the entry that fired it."""

    index: int
    target: int
    taint: frozenset[str]


def _identity(vaddr: int) -> int:
    return vaddr


class AbstractTable(IPStridePrefetcher):
    """The stock history table plus a taint set per index and a prefetch log."""

    def __init__(self, params: IPStrideParams) -> None:
        super().__init__(params)
        self._taint: dict[int, frozenset[str]] = {}
        self.prefetches: list[AbstractPrefetch] = []

    def load(self, ip: int, paddr: int, taint: frozenset[str] = frozenset()) -> None:
        """Digest one TLB-resident load (virtual = physical in this domain)."""
        index = low_bits(ip, self.params.index_bits)
        if index in self._index_to_slot:
            taint = self._taint[index] | taint
        event = LoadEvent(ip=ip, vaddr=paddr, paddr=paddr, hit_level=MemoryLevel.DRAM)
        requests = self.observe(event, _identity)
        self._taint[index] = taint
        self.prefetches.extend(AbstractPrefetch(index, r.paddr, taint) for r in requests)

    def pretrain(self, ip: int, paddr: int, stride: int) -> None:
        """Install an attacker-trained entry: saturated confidence, known
        stride, untainted.

        This models the PSC preparation phase (paper §6.1): the attacker's
        own strided loads are secret-independent, so the canary entry starts
        with an empty taint set, and anything that later disturbs it shows
        up both in its state and in its taint.
        """
        if stride == 0:
            raise ValueError("a pretrained entry needs a non-zero stride")
        index = low_bits(ip, self.params.index_bits)
        if index not in self._index_to_slot:
            event = LoadEvent(ip=ip, vaddr=paddr, paddr=paddr, hit_level=MemoryLevel.DRAM)
            self._allocate(index, event)
        slot = self._index_to_slot[index]
        entry = self._slots[slot]
        assert entry is not None
        entry.last_vaddr = entry.last_paddr = paddr
        entry.stride = stride
        entry.confidence = self.params.confidence_max
        self._unconfirmed.discard(slot)
        self._policy.touch(slot)
        self._taint[index] = frozenset()

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def live_entries(self) -> dict[int, IPStrideEntry]:
        """Live entries, keyed by table index."""
        return {entry.index: entry for entry in self.entries()}

    def taint_of(self, index: int) -> frozenset[str]:
        """The taint of the live entry at ``index`` (empty if none is live)."""
        return self._taint[index] if index in self._index_to_slot else frozenset()

    def prefetch_targets(self, index: int) -> frozenset[int]:
        """All prefetch targets the entry at ``index`` has issued."""
        return frozenset(p.target for p in self.prefetches if p.index == index)
