"""Virtual-memory substrate: physical frames, page tables, TLB, ASLR.

Physical-frame behaviour matters for the reproduction in two places:

* The prefetcher's page-boundary rule (paper §4.3 / Table 1) is checked on
  *physical* frames, so reclaimable (zero-page-backed) vs ``MAP_LOCKED``
  mappings behave differently.
* The paper's threat model requires victim pages to be TLB-resident: a
  TLB-missing access does not update the prefetcher state.
"""

from repro.mmu.address_space import AddressSpace, Mapping
from repro.mmu.aslr import Aslr
from repro.mmu.buffer import Buffer
from repro.mmu.page_table import PageTable, PhysicalMemory
from repro.mmu.tlb import TLB

__all__ = [
    "AddressSpace",
    "Mapping",
    "Aslr",
    "Buffer",
    "PageTable",
    "PhysicalMemory",
    "TLB",
]
