"""Physical frame allocation and per-address-space page tables."""

from __future__ import annotations

import numpy as np

from repro.params import PAGE_SIZE


class PhysicalMemory:
    """Allocator of physical page frames.

    Frames are handed out in a pseudo-random order (seeded) so that physical
    addresses spread over LLC sets and slices the way a fragmented real
    system's do.  Frame 0 is reserved as the shared **zero frame** backing
    untouched anonymous mappings — the mechanism behind the paper's
    "reclaimable" pool in Table 1, where several virtual pages share one
    physical page.
    """

    ZERO_FRAME = 0

    def __init__(self, rng: np.random.Generator, n_frames: int = 1 << 21) -> None:
        if n_frames <= 1:
            raise ValueError(f"need at least two frames, got {n_frames}")
        self._rng = rng
        self._n_frames = n_frames
        self._allocated: set[int] = {self.ZERO_FRAME}

    @property
    def n_frames(self) -> int:
        return self._n_frames

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)

    def alloc_frame(self) -> int:
        """Allocate a fresh, unique frame number."""
        if len(self._allocated) >= self._n_frames:
            raise MemoryError("physical memory exhausted")
        while True:
            frame = int(self._rng.integers(1, self._n_frames))
            if frame not in self._allocated:
                self._allocated.add(frame)
                return frame

    def alloc_frames(self, k: int) -> list[int]:
        """Allocate ``k`` fresh, unique frames, in allocation order.

        Returns the frames, and consumes exactly the draws, of ``k``
        :meth:`alloc_frame` calls: bounded integer draws are unbuffered, so
        a batch of ``m`` values is the next ``m`` scalar draws; a value
        already allocated is skipped like a scalar redraw; and a batch
        draws one value per frame still needed, so it never overdraws.
        Raises MemoryError, before drawing, when ``k`` frames do not fit.
        """
        allocated = self._allocated
        if len(allocated) + k > self._n_frames:
            raise MemoryError("physical memory exhausted")
        frames: list[int] = []
        while len(frames) < k:
            for frame in self._rng.integers(1, self._n_frames, size=k - len(frames)).tolist():
                if frame not in allocated:
                    allocated.add(frame)
                    frames.append(frame)
        return frames

    def free_frame(self, frame: int) -> None:
        """Return ``frame`` to the allocator (the zero frame is never freed)."""
        if frame == self.ZERO_FRAME:
            return
        self._allocated.discard(frame)

    @staticmethod
    def frame_to_paddr(frame: int, offset: int = 0) -> int:
        """Physical byte address of ``offset`` within ``frame``."""
        if not 0 <= offset < PAGE_SIZE:
            raise ValueError(f"offset {offset} outside page")
        return frame * PAGE_SIZE + offset


class PageTable:
    """Virtual-page → physical-frame map for one address space.

    ``entries`` is the map itself, a plain dict: the page walk
    (:meth:`AddressSpace.translate <repro.mmu.address_space.AddressSpace.translate>`)
    looks a page up in it directly, and ``mmap`` fills it with one
    ``dict.update``.
    """

    def __init__(self) -> None:
        self.entries: dict[int, int] = {}

    def map(self, vpage: int, frame: int) -> None:
        """Install ``vpage -> frame`` (remapping an existing page is allowed:
        that is exactly what copy-on-write promotion does)."""
        self.entries[vpage] = frame

    def unmap(self, vpage: int) -> int | None:
        """Remove the mapping; return the frame it pointed to, if any."""
        return self.entries.pop(vpage, None)

    def frame_of(self, vpage: int) -> int | None:
        """Frame backing ``vpage``, or None when unmapped."""
        return self.entries.get(vpage)

    def is_mapped(self, vpage: int) -> bool:
        return vpage in self.entries

    def mapped_pages(self) -> list[int]:
        """All mapped virtual page numbers (unordered)."""
        return list(self.entries)

    def __len__(self) -> int:
        return len(self.entries)
