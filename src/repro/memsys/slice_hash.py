"""LLC slice-selection hash.

Modern Intel client parts split the LLC into per-core slices selected by an
undocumented XOR hash of physical address bits (the paper's §3.1 discusses
why this makes eviction-set construction hard).  We implement the functions
recovered by Maurice et al. (RAID 2015) / Irazoqui et al. (DSD 2015) for 2-,
4- and 8-slice parts: slice bit *i* is the XOR (parity) of a fixed subset of
physical address bits.

The exact bit subsets only matter in that they are (a) deterministic, (b)
balanced, and (c) unknown to a naive attacker — which is what forces the
slice-aware eviction-set construction in :mod:`repro.channels.eviction_sets`.
"""

from __future__ import annotations

import numpy as np

# Published parity masks (bit positions of the physical address) for the
# slice-hash bits o0, o1, o2 on Haswell-generation parts.
_O0_BITS = (6, 10, 12, 14, 16, 17, 18, 20, 22, 24, 25, 26, 27, 28, 30, 32, 33)
_O1_BITS = (7, 11, 13, 15, 17, 19, 20, 21, 22, 23, 24, 26, 28, 29, 31, 33, 34)
_O2_BITS = (8, 12, 28, 29, 31, 33, 34, 35)


def _mask_from_bits(bits: tuple[int, ...]) -> int:
    mask = 0
    for bit in bits:
        mask |= 1 << bit
    return mask

_O_MASKS = tuple(_mask_from_bits(bits) for bits in (_O0_BITS, _O1_BITS, _O2_BITS))


class SliceHash:
    """Map a physical address to an LLC slice id in ``[0, n_slices)``."""

    def __init__(self, n_slices: int) -> None:
        if n_slices <= 0 or n_slices & (n_slices - 1):
            raise ValueError(f"n_slices must be a positive power of two, got {n_slices}")
        self.n_slices = n_slices
        self.n_bits = n_slices.bit_length() - 1
        if self.n_bits > len(_O_MASKS):
            raise ValueError(f"no published hash for {n_slices} slices")
        #: Address mask of each slice-id bit (bit *i* is its parity).
        self.masks = _O_MASKS[: self.n_bits]

    def slice_of(self, paddr: int) -> int:
        """Slice id of the line containing physical address ``paddr``."""
        slice_id = 0
        for bit, mask in enumerate(self.masks):
            slice_id |= ((paddr & mask).bit_count() & 1) << bit
        return slice_id

    def slices_of(self, paddrs: np.ndarray) -> np.ndarray:
        """``slice_of`` of every address in an integer array, elementwise.

        Each mask's parity is XOR-folded down to bit 0 (``np.bitwise_count``
        needs NumPy 2.0); the masks stay below bit 63, so six folds cover
        them.
        """
        paddrs = np.asarray(paddrs, dtype=np.int64)
        slice_ids = np.zeros(paddrs.shape, dtype=np.int64)
        for bit, mask in enumerate(self.masks):
            parity = paddrs & mask
            for shift in (32, 16, 8, 4, 2, 1):
                parity ^= parity >> shift
            slice_ids |= (parity & 1) << bit
        return slice_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SliceHash(n_slices={self.n_slices})"
