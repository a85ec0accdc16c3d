"""A single set-associative, true-LRU cache level."""

from __future__ import annotations

from collections.abc import Iterator

from repro.params import CacheGeometry


class CacheSet:
    """One associative set: up to ``ways`` resident tags in LRU order.

    ``lines`` is an insertion-ordered dict used as an ordered set, least
    recently used first: a hit moves its tag to the end, and a fill into a
    full set evicts the first tag.
    """

    __slots__ = ("ways", "lines")

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self.lines: dict[int, None] = {}

    def lookup(self, tag: int) -> bool:
        """Return True on hit, making ``tag`` the most recently used."""
        lines = self.lines
        if tag not in lines:
            return False
        del lines[tag]
        lines[tag] = None
        return True

    def contains(self, tag: int) -> bool:
        """Non-mutating presence check (for inspection/debugging only)."""
        return tag in self.lines

    def insert(self, tag: int) -> int | None:
        """Install ``tag``; return the evicted tag, if any.

        An already-present tag is just refreshed (no eviction); a fill into
        a full set evicts the least recently used tag.
        """
        lines = self.lines
        evicted: int | None = None
        if tag in lines:
            del lines[tag]
        elif len(lines) >= self.ways:
            evicted = next(iter(lines))
            del lines[evicted]
        lines[tag] = None
        return evicted

    def invalidate(self, tag: int) -> bool:
        """Drop ``tag`` if present; return whether it was present."""
        if tag not in self.lines:
            return False
        del self.lines[tag]
        return True

    def occupancy(self) -> int:
        """Number of valid lines in the set."""
        return len(self.lines)

    def resident_tags(self) -> list[int]:
        """Tags currently resident, least recently used first."""
        return list(self.lines)

    def clear(self) -> None:
        self.lines.clear()


class Cache:
    """A set-associative cache indexed by physical line address.

    The cache stores line *addresses* (byte address of the line start); the
    tag within a set is the line number divided by the set count.  Both
    ``line_size`` and ``sets`` are powers of two (``CacheGeometry`` checks),
    so set index and tag are a shift and a mask of the address.  Data
    payloads are not modeled — every experiment in the paper observes only
    residency and latency.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.line_size = geometry.line_size
        self.n_sets = geometry.sets
        self._line_shift = geometry.line_size.bit_length() - 1
        self._set_mask = geometry.sets - 1
        self._tag_shift = self._line_shift + geometry.sets.bit_length() - 1
        self._sets = [CacheSet(geometry.ways) for _ in range(geometry.sets)]
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
        hit = self._sets[(paddr >> self._line_shift) & self._set_mask].lookup(
            paddr >> self._tag_shift
        )
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def contains(self, paddr: int) -> bool:
        """Non-mutating residency check (no LRU/statistics update)."""
        return self._sets[self.set_index(paddr)].contains(paddr >> self._tag_shift)

    def insert(self, paddr: int) -> int | None:
        """Fill the line holding ``paddr``; return evicted line address or None."""
        index = (paddr >> self._line_shift) & self._set_mask
        evicted_tag = self._sets[index].insert(paddr >> self._tag_shift)
        if evicted_tag is None:
            return None
        return (evicted_tag << self._tag_shift) | (index << self._line_shift)

    def invalidate(self, paddr: int) -> bool:
        """Remove the line holding ``paddr``; True if it was resident."""
        return self._sets[self.set_index(paddr)].invalidate(paddr >> self._tag_shift)

    def flush_all(self) -> None:
        """Invalidate every line (e.g. a WBINVD-style flush)."""
        for cache_set in self._sets:
            cache_set.clear()

    def set_occupancy(self, index: int) -> int:
        """Valid-line count of set ``index`` (inspection helper)."""
        return self._sets[index].occupancy()

    def resident_lines(self) -> Iterator[int]:
        """Iterate over the byte addresses of all resident lines."""
        for index, cache_set in enumerate(self._sets):
            for tag in cache_set.resident_tags():
                yield (tag << self._tag_shift) | (index << self._line_shift)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.geometry.name}, {self.n_sets} sets x {self.geometry.ways} ways, LRU)"
        )
