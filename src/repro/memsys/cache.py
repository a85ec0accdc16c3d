"""A single set-associative, true-LRU cache level."""

from __future__ import annotations

from collections.abc import Iterator

from repro.params import CacheGeometry


class Cache:
    """A set-associative cache indexed by physical line number.

    A line is keyed by its *line number*, ``paddr >> line_shift``.  Line
    number ``n`` lives in set ``n & set_mask``, and ``sets[i]`` is set
    ``i``: an insertion-ordered ``dict[line, None]`` of its resident line
    numbers, least recently used first.  A hit moves its line to the end,
    and a fill into a full set evicts the first line.  Both ``line_size``
    and ``sets`` are powers of two (``CacheGeometry`` checks), so the line
    number and set index are a shift and a mask of the address.
    ``CacheHierarchy.access`` reads and writes ``sets`` directly, with the
    same line number at every level.  Data payloads are not modeled — every
    experiment in the paper observes only residency and latency.

    The methods take and return byte addresses: ``insert`` returns the
    evicted line's start address, and ``resident_lines`` yields them.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.line_size = geometry.line_size
        self.n_sets = geometry.sets
        self.ways = geometry.ways
        self.line_shift = geometry.line_size.bit_length() - 1
        self.set_mask = geometry.sets - 1
        self.sets: list[dict[int, None]] = [{} for _ in range(geometry.sets)]
        self.hits = 0
        self.misses = 0

    def set_index(self, paddr: int) -> int:
        """Set index of the line containing physical address ``paddr``."""
        return (paddr >> self.line_shift) & self.set_mask

    def line_address(self, paddr: int) -> int:
        """Byte address of the start of the line containing ``paddr``."""
        return paddr & -self.line_size

    def lookup(self, paddr: int) -> bool:
        """Access the line holding ``paddr``; True on hit (updates LRU/stats)."""
        line = paddr >> self.line_shift
        lines = self.sets[line & self.set_mask]
        if line not in lines:
            self.misses += 1
            return False
        del lines[line]
        lines[line] = None
        self.hits += 1
        return True

    def contains(self, paddr: int) -> bool:
        """Non-mutating residency check (no LRU/statistics update)."""
        line = paddr >> self.line_shift
        return line in self.sets[line & self.set_mask]

    def insert(self, paddr: int) -> int | None:
        """Fill the line holding ``paddr``; return evicted line address or None.

        An already-resident line is just refreshed (no eviction); a fill into
        a full set evicts its least recently used line.
        """
        line = paddr >> self.line_shift
        lines = self.sets[line & self.set_mask]
        evicted = None
        if line in lines:
            del lines[line]
        elif len(lines) >= self.ways:
            evicted = next(iter(lines))
            del lines[evicted]
            evicted <<= self.line_shift
        lines[line] = None
        return evicted

    def invalidate(self, paddr: int) -> bool:
        """Remove the line holding ``paddr``; True if it was resident."""
        line = paddr >> self.line_shift
        lines = self.sets[line & self.set_mask]
        if line not in lines:
            return False
        del lines[line]
        return True

    def flush_all(self) -> None:
        """Invalidate every line (e.g. a WBINVD-style flush)."""
        for lines in self.sets:
            lines.clear()

    def set_occupancy(self, index: int) -> int:
        """Valid-line count of set ``index`` (inspection helper)."""
        return len(self.sets[index])

    def resident_lines(self) -> Iterator[int]:
        """Iterate over the byte addresses of all resident lines."""
        shift = self.line_shift
        for lines in self.sets:
            for line in lines:
                yield line << shift

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.geometry.name}, {self.n_sets} sets x {self.geometry.ways} ways, LRU)"
        )
