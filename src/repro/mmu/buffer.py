"""Cache-line-indexed view over a mapping — the `array` of the paper's listings."""

from __future__ import annotations

from repro.mmu.address_space import Mapping
from repro.params import CACHE_LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE


class Buffer:
    """Convenience wrapper addressing a mapping by cache line and page.

    All the paper's microbenchmarks and attacks index their arrays in units
    of cache lines (``array[i * stride]`` with line-sized elements) or pages;
    this wrapper keeps that arithmetic in one audited place.
    """

    def __init__(self, mapping: Mapping) -> None:
        self.mapping = mapping

    @property
    def base(self) -> int:
        return self.mapping.base

    @property
    def size(self) -> int:
        return self.mapping.size

    @property
    def n_lines(self) -> int:
        return self.mapping.size // CACHE_LINE_SIZE

    @property
    def n_pages(self) -> int:
        return self.mapping.n_pages

    @property
    def space(self):
        return self.mapping.space

    def addr(self, byte_offset: int) -> int:
        """Virtual address ``byte_offset`` bytes into the buffer."""
        return self.mapping.addr(byte_offset)

    def line_addr(self, line: int) -> int:
        """Virtual address of cache line ``line`` (line 0 = buffer start)."""
        mapping = self.mapping
        if not 0 <= line < mapping.n_pages * LINES_PER_PAGE:
            raise IndexError(f"line {line} outside buffer of {self.n_lines} lines")
        return mapping.base + line * CACHE_LINE_SIZE

    def page_line_addr(self, page: int, line_in_page: int) -> int:
        """Virtual address of line ``line_in_page`` within page ``page``."""
        if not 0 <= page < self.n_pages:
            raise IndexError(f"page {page} outside buffer of {self.n_pages} pages")
        if not 0 <= line_in_page < LINES_PER_PAGE:
            raise IndexError(f"line {line_in_page} outside page of {LINES_PER_PAGE} lines")
        return self.mapping.base + page * PAGE_SIZE + line_in_page * CACHE_LINE_SIZE

    def lines(self) -> list[int]:
        """Virtual addresses of every cache line, in order."""
        return [self.mapping.base + i * CACHE_LINE_SIZE for i in range(self.n_lines)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Buffer({self.mapping.name!r}, {self.n_pages} pages)"
