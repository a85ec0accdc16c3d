"""The sanitizer: runtime invariant auditing for a whole `Machine`.

Modeled on compiler sanitizers: completely absent from the hot path when
disabled (the machine holds ``sanitizer = None`` and pays one ``is None``
test per load), and exhaustive when enabled.  Enable it per machine with
``Machine(..., sanitize=True)`` or globally with ``REPRO_SANITIZE=1``.

Cost model: every load runs the cheap checks (the 24-entry prefetcher
table, the TLB bookkeeping, single-line inclusivity of the touched line);
a full inclusivity walk over every resident cache line runs once per
``full_scan_interval`` loads and on every context switch, where the
interesting cross-domain corruption would land.  The walk touches every
set of every cache level, so the interval trades detection latency for
throughput; ``check_all()`` runs it on demand.
"""

from __future__ import annotations

import os
import weakref
from typing import TYPE_CHECKING

from repro.obs.events import SanitizerViolation
from repro.sanitize.checkers import HierarchyChecker, PrefetcherChecker, TLBChecker
from repro.sanitize.violations import InvariantViolation

if TYPE_CHECKING:
    from repro.cpu.machine import Machine
    from repro.mmu.address_space import AddressSpace
    from repro.mmu.tlb import TranslationResult
    from repro.prefetch.base import LoadEvent, PrefetchRequest

#: Environment variable that switches the sanitizer on for every Machine.
ENV_VAR = "REPRO_SANITIZE"

_TRUTHY = {"1", "true", "yes", "on"}


def sanitize_enabled(explicit: bool | None = None) -> bool:
    """Resolve the effective sanitize setting.

    An explicit ``Machine(sanitize=...)`` argument wins; ``None`` defers to
    the ``REPRO_SANITIZE`` environment variable.
    """
    if explicit is not None:
        return explicit
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


class Sanitizer:
    """Composes the per-component checkers over one machine."""

    def __init__(self, machine: Machine, full_scan_interval: int = 4096) -> None:
        if full_scan_interval <= 0:
            raise ValueError(f"full_scan_interval must be positive, got {full_scan_interval}")
        # Weak: the machine holds this sanitizer through its kernel's tap.
        self.machine = weakref.proxy(machine)
        self.full_scan_interval = full_scan_interval
        self.prefetcher = PrefetcherChecker(machine.ip_stride)
        self.hierarchy = HierarchyChecker(machine.hierarchy)
        self.tlb = TLBChecker(machine.tlb)
        self._spaces: dict[int, AddressSpace] = {}
        self._loads_checked = 0
        self._switches_checked = 0
        self.checks_run = 0

    def register_space(self, space: AddressSpace) -> None:
        """Make ``space``'s page table available for TLB cross-checking."""
        self._spaces[space.asid] = space

    def after_load(
        self,
        event: LoadEvent | None,
        translation: TranslationResult,
        issued: list[PrefetchRequest],
    ) -> None:
        """Audit state after one load retires (the machine's main hook).

        ``event`` is ``None`` for fenced loads, which by definition did not
        touch the prefetchers; the cache and TLB checks still apply.
        """
        self._loads_checked += 1
        self.checks_run += 1
        cycle = self.machine.cycles
        try:
            self.prefetcher.check(cycle)
            self.tlb.check_fast(cycle)
            self.hierarchy.check_line(translation.paddr, cycle)
            if event is not None:
                for request in issued:
                    if request.source == "ip-stride":
                        self.prefetcher.check_request(event, request, cycle)
            if self._loads_checked % self.full_scan_interval == 0:
                self.tlb.check(self._spaces, cycle)
                self.hierarchy.check_inclusive(cycle)
        except InvariantViolation as violation:
            self._trace_violation(violation)
            raise

    def after_switch(self) -> None:
        """Audit state after a context switch injected its noise.

        The TLB flush and the switch path's prefetcher pollution make this
        the natural boundary for the full TLB/page-table cross-check; the
        costly whole-hierarchy walk runs on every 64th switch (attack loops
        switch thousands of times per round).
        """
        self.checks_run += 1
        self._switches_checked += 1
        cycle = self.machine.cycles
        try:
            self.prefetcher.check(cycle)
            self.tlb.check(self._spaces, cycle)
            if self._switches_checked % 64 == 0:
                self.hierarchy.check_inclusive(cycle)
        except InvariantViolation as violation:
            self._trace_violation(violation)
            raise

    def check_all(self) -> None:
        """Run every checker, including the full inclusivity walk."""
        self.checks_run += 1
        cycle = self.machine.cycles
        try:
            self.prefetcher.check(cycle)
            self.tlb.check(self._spaces, cycle)
            self.hierarchy.check_inclusive(cycle)
        except InvariantViolation as violation:
            self._trace_violation(violation)
            raise

    def _trace_violation(self, violation: InvariantViolation) -> None:
        """Publish a violation through the machine's kernel before it propagates."""
        machine = self.machine
        machine.kernel.publish(
            SanitizerViolation,
            machine.cycles,
            violation.component,
            violation.invariant,
            violation.message,
        )
