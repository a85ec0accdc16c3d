"""The simulation kernel: one machine's clock and its observation taps.

A :class:`SimKernel` belongs to exactly one ``Machine``.  It holds the
machine's :class:`~repro.cpu.kernel.clock.KernelClock` and the ordered list
of taps (tracer, sanitizer) that observe published events.  The pipeline
itself is one function: ``Machine.load`` runs the OS tick when it is due,
then the TLB, the cache hierarchy, the prefetchers and the timing model in
that order, so dispatch has no wall clock, no host-order iteration and no
randomness of its own.  All randomness stays in the machine's seeded RNG
streams; this is what keeps same-seed runs byte-identical to the committed
golden traces (``tests/golden/``).

The kernel is reached only through:

* ``kernel.publish(kind, *fields)`` — notify the taps (tracer, sanitizer)
  in registration order; the event is built only when a tap is
  registered;
* ``kernel.clock_of()`` — the machine's clock.

The model objects the machine builds — ``TLB``, ``CacheHierarchy`` and
``IPStridePrefetcher`` — take the kernel as an optional constructor
argument and publish their trace events (``TlbMiss``, ``PrefetchFill``,
``TableTransition``) through it, stamped from ``clock_of()``; built
standalone (``kernel=None``) they publish nothing.  Neither the kernel
nor its taps hold a strong reference back to the machine (the sanitizer
tap holds its sanitizer weakly), so a dropped machine is freed by
reference counting alone (``tests/test_cpu_machine.py::TestLifetime``).

Two kinds of taps observe the stream.  The sanitizer's audit tap reads
only ``LoadRetired`` and ``SwitchCompleted``; every other tap (the tracer,
a test's recorder) reads every event and is also listed in
``kernel.trace_taps``.  A site publishing any other kind checks
``kernel.trace_taps`` first, so a sanitized but untraced machine builds
no event that nothing reads.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.cpu.kernel.clock import KernelClock

#: A tap: called synchronously with every published event.
Tap = Callable[[object], None]


class SimKernel:
    """A machine's clock plus the taps that observe its published events."""

    __slots__ = ("_clock", "taps", "trace_taps")

    def __init__(self) -> None:
        self._clock = KernelClock()
        #: The taps in registration order, fixed once the machine is built;
        #: empty means nothing observes the machine.
        self.taps: list[Tap] = []
        #: The taps that read trace events (all but the audit tap); empty
        #: means a trace-only event would reach no reader.
        self.trace_taps: list[Tap] = []

    def clock_of(self) -> KernelClock:
        """The machine's clock (the single source of simulated time)."""
        return self._clock

    def add_tap(self, tap: Tap, reads_trace: bool = True) -> None:
        """Append a tap; taps run synchronously in registration order.

        ``reads_trace=False`` declares a tap that reads only the events it
        audits (``LoadRetired``, ``SwitchCompleted``), so trace-only
        events are not built for it alone.
        """
        self.taps.append(tap)
        if reads_trace:
            self.trace_taps.append(tap)

    def publish(self, kind: type, *fields: object) -> None:
        """Build ``kind(*fields)`` and hand it to every tap, if any."""
        taps = self.taps
        if taps:
            event = kind(*fields)
            for tap in taps:
                tap(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimKernel(cycles={self._clock.cycles}, taps={len(self.taps)})"

