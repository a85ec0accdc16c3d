"""Cache substrate: set-associative caches, replacement policies, sliced LLC.

The hierarchy is inclusive (Haswell / Coffee Lake client parts have inclusive
LLCs), which is what makes the Prime+Probe channel of the paper's Variant 1
work: evicting a line from the LLC back-invalidates the private levels.
"""

from repro.memsys.cache import Cache
from repro.memsys.hierarchy import AccessResult, CacheHierarchy, MemoryLevel
from repro.memsys.replacement import (
    BitPLRU,
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    TreePLRU,
    make_policy,
)
from repro.memsys.slice_hash import SliceHash

__all__ = [
    "Cache",
    "CacheHierarchy",
    "AccessResult",
    "MemoryLevel",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "BitPLRU",
    "TreePLRU",
    "RandomPolicy",
    "make_policy",
    "SliceHash",
]
