"""Common prefetcher interfaces."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass

from repro.memsys.hierarchy import MemoryLevel

#: Translate a *virtual* address to a physical one for prefetching purposes.
#: Returns ``None`` when no translation is available — hardware prefetchers
#: never take page faults, they simply drop the request.
TranslateFn = Callable[[int], int | None]


@dataclass(slots=True)
class LoadEvent:
    """One retired demand load, as seen by the prefetchers.

    ``asid`` identifies the issuing address space.  The *stock* IP-stride
    prefetcher ignores it — that is AfterImage's root cause — but the
    tagged-prefetcher defense (:mod:`repro.defenses.tagged_prefetcher`)
    keys its table on it.  Built per load, so not frozen (DESIGN.md §6).
    """

    ip: int
    vaddr: int
    paddr: int
    hit_level: MemoryLevel
    asid: int = 0


@dataclass(frozen=True, slots=True)
class PrefetchRequest:
    """A line the prefetcher wants brought into the cache."""

    paddr: int
    source: str

    def __post_init__(self) -> None:
        if self.paddr < 0:
            raise ValueError(f"negative physical address {self.paddr:#x}")


def free_slot(slots: list) -> int | None:
    """Index of the first empty (``None``) slot of a history table, or None.

    Compares by identity: ``slots.index(None)`` would run the dataclass
    ``__eq__`` of every occupied entry ahead of the free slot.
    """
    for slot, entry in enumerate(slots):
        if entry is None:
            return slot
    return None


class Prefetcher(ABC):
    """A hardware prefetcher observing the retired-load stream."""

    #: Short identifier used in PrefetchRequest.source and statistics.
    name: str = "prefetcher"

    @abstractmethod
    def observe(self, event: LoadEvent, translate: TranslateFn) -> list[PrefetchRequest]:
        """Digest one load; return any prefetch requests it provokes."""

    @abstractmethod
    def clear(self) -> None:
        """Drop all learned state (the proposed mitigation instruction)."""

    def reset_stats(self) -> None:
        """Zero statistics counters; learned state is untouched.

        Every concrete prefetcher counts at least ``prefetches_issued``;
        subclasses with richer statistics override this.
        """
        self.prefetches_issued = 0
