"""Shared address arithmetic: lines, pages and sets — one audited place.

Before this module, ``vaddr // CACHE_LINE_SIZE``, ``paddr // PAGE_SIZE``
and the line/set decomposition were re-derived independently in
``cpu/machine.py``, all four prefetchers, the TLB and ``memsys/cache.py``.
Every helper here is pure integer arithmetic; the regression tests
(``tests/test_memsys_addr.py``) pin each one against the original inline
formula so the dedup cannot drift.

Line/page helpers default to the architectural ``CACHE_LINE_SIZE`` /
``PAGE_SIZE``; :func:`set_index` takes the cache geometry explicitly
because cache levels differ in set count.
"""

from __future__ import annotations

from repro.params import CACHE_LINE_SIZE, PAGE_SIZE


def line_index(addr: int, line_size: int = CACHE_LINE_SIZE) -> int:
    """Cache-line number of ``addr`` (virtual or physical)."""
    return addr // line_size


def line_base(addr: int, line_size: int = CACHE_LINE_SIZE) -> int:
    """Byte address of the start of the line containing ``addr``."""
    return (addr // line_size) * line_size


def line_addr(index: int, line_size: int = CACHE_LINE_SIZE) -> int:
    """Byte address of line number ``index`` (inverse of :func:`line_index`)."""
    return index * line_size


def page_frame(addr: int) -> int:
    """Page/frame number of ``addr``."""
    return addr // PAGE_SIZE


def page_split(addr: int) -> tuple[int, int]:
    """``(page number, byte offset within the page)`` of ``addr``."""
    return divmod(addr, PAGE_SIZE)


def same_page(a: int, b: int) -> bool:
    """Do two addresses fall in the same page/frame?"""
    return a // PAGE_SIZE == b // PAGE_SIZE

def same_block(a: int, b: int, block_size: int) -> bool:
    """Do two addresses fall in the same aligned ``block_size`` block?"""
    return a // block_size == b // block_size


def set_index(addr: int, line_size: int, n_sets: int) -> int:
    """Set index of the line containing ``addr`` in a set-associative cache.

    ``Cache`` keys each set by line number and computes the index by shift
    and mask; ``tests/test_memsys_addr.py`` pins it to this helper and
    :func:`line_index`.
    """
    return (addr // line_size) % n_sets
