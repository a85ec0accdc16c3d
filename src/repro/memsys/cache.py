"""A single set-associative, true-LRU cache level."""

from __future__ import annotations

from collections.abc import Iterator

from repro.params import CacheGeometry


class Cache:
    """A set-associative cache indexed by physical line address.

    The cache stores line *addresses* (byte address of the line start); the
    tag within a set is the line number divided by the set count.  Both
    ``line_size`` and ``sets`` are powers of two (``CacheGeometry`` checks),
    so set index and tag are a shift and a mask of the address.  Data
    payloads are not modeled — every experiment in the paper observes only
    residency and latency.

    Each set is one insertion-ordered dict of resident tags (values unused),
    least recently used first: a hit moves its tag to the end, and a fill
    into a full set evicts the first tag.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.line_size = geometry.line_size
        self.n_sets = geometry.sets
        self.ways = geometry.ways
        self._line_shift = geometry.line_size.bit_length() - 1
        self._set_mask = geometry.sets - 1
        self._tag_shift = self._line_shift + geometry.sets.bit_length() - 1
        self._sets: list[dict[int, None]] = [{} for _ in range(geometry.sets)]
        self.hits = 0
        self.misses = 0

    def set_index(self, paddr: int) -> int:
        """Set index of the line containing physical address ``paddr``."""
        return (paddr >> self._line_shift) & self._set_mask

    def line_address(self, paddr: int) -> int:
        """Byte address of the start of the line containing ``paddr``."""
        return paddr & -self.line_size

    def lookup(self, paddr: int) -> bool:
        """Access the line holding ``paddr``; True on hit (updates LRU/stats)."""
        lines = self._sets[(paddr >> self._line_shift) & self._set_mask]
        tag = paddr >> self._tag_shift
        if tag not in lines:
            self.misses += 1
            return False
        del lines[tag]
        lines[tag] = None
        self.hits += 1
        return True

    def contains(self, paddr: int) -> bool:
        """Non-mutating residency check (no LRU/statistics update)."""
        return (paddr >> self._tag_shift) in self._sets[self.set_index(paddr)]

    def insert(self, paddr: int) -> int | None:
        """Fill the line holding ``paddr``; return evicted line address or None.

        An already-resident line is just refreshed (no eviction); a fill into
        a full set evicts its least recently used line.
        """
        index = (paddr >> self._line_shift) & self._set_mask
        lines = self._sets[index]
        tag = paddr >> self._tag_shift
        evicted = None
        if tag in lines:
            del lines[tag]
        elif len(lines) >= self.ways:
            evicted_tag = next(iter(lines))
            del lines[evicted_tag]
            evicted = (evicted_tag << self._tag_shift) | (index << self._line_shift)
        lines[tag] = None
        return evicted

    def invalidate(self, paddr: int) -> bool:
        """Remove the line holding ``paddr``; True if it was resident."""
        lines = self._sets[(paddr >> self._line_shift) & self._set_mask]
        tag = paddr >> self._tag_shift
        if tag not in lines:
            return False
        del lines[tag]
        return True

    def flush_all(self) -> None:
        """Invalidate every line (e.g. a WBINVD-style flush)."""
        for lines in self._sets:
            lines.clear()

    def set_occupancy(self, index: int) -> int:
        """Valid-line count of set ``index`` (inspection helper)."""
        return len(self._sets[index])

    def resident_lines(self) -> Iterator[int]:
        """Iterate over the byte addresses of all resident lines."""
        for index, lines in enumerate(self._sets):
            for tag in lines:
                yield (tag << self._tag_shift) | (index << self._line_shift)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.geometry.name}, {self.n_sets} sets x {self.geometry.ways} ways, LRU)"
        )
