"""The simulation kernel: one machine's clock and its tracer.

A :class:`SimKernel` belongs to exactly one ``Machine``.  It holds the
machine's :class:`~repro.cpu.kernel.clock.KernelClock` and the machine's
:class:`~repro.obs.tracer.Tracer` (``None`` when tracing is off), both set
once at construction.  The pipeline itself is one function:
``Machine.load`` runs the OS tick when it is due, then the TLB, the cache
hierarchy, the prefetchers and the timing model in that order, so dispatch
has no wall clock, no host-order iteration and no randomness of its own.
All randomness stays in the machine's seeded RNG streams; this is what
keeps same-seed runs byte-identical to the committed golden traces
(``tests/golden/``).

Every trace event leaves the model through ``kernel.publish(kind,
*fields)``, stamped from ``kernel.clock``: the machine's load, prefetch,
clflush and switch paths publish theirs, and so do the model objects the
machine builds — ``TLB``, ``CacheHierarchy`` and ``IPStridePrefetcher``,
which take the kernel as an optional constructor argument (``TlbMiss``,
``PrefetchFill``, ``TableTransition``).  Every publish site checks
``kernel.tracer is not None`` first, so an untraced machine builds no
trace event; built standalone (``kernel=None``) the model objects publish
nothing.  The kernel holds no reference back to the machine, so a dropped
machine is freed by reference counting alone
(``tests/test_cpu_machine.py::TestLifetime``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cpu.kernel.clock import KernelClock

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer


class SimKernel:
    """A machine's clock plus the tracer its trace events go to."""

    __slots__ = ("clock", "tracer")

    def __init__(self, tracer: Tracer | None = None) -> None:
        #: The machine's clock (the single source of simulated time).
        self.clock = KernelClock()
        #: Where published trace events go; ``None`` means nothing is traced.
        self.tracer = tracer

    def publish(self, kind: type, *fields: object) -> None:
        """Build ``kind(*fields)`` and emit it; callers check ``tracer`` first."""
        self.tracer.emit(kind(*fields))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimKernel(cycles={self.clock.cycles}, traced={self.tracer is not None})"
