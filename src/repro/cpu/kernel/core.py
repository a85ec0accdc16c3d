"""The simulation kernel: one machine's clock and its observation taps.

A :class:`SimKernel` belongs to exactly one ``Machine``.  It holds the
machine's :class:`~repro.cpu.kernel.clock.KernelClock` and the ordered list
of taps (tracer, sanitizer) that observe published events.  The pipeline
itself is one function: ``Machine.load`` runs the OS tick when it is due,
then the TLB, the cache hierarchy, the prefetchers and the timing model in
that order, so dispatch has no wall clock, no host-order iteration and no
randomness of its own.  All randomness stays in the components' seeded RNG
streams; this is what keeps same-seed runs byte-identical to the committed
golden traces (``tests/golden/``).

Component contract
------------------
Components receive the kernel at construction and reach it only through:

* ``self.kernel.publish(kind, *fields)`` — notify the taps (tracer,
  sanitizer) in registration order; the event is built only when a tap
  is registered;
* ``self.kernel.clock_of()`` — the machine's clock;
* explicitly wired ``*_port`` callables (narrow, method-shaped buses).

The model objects under the components — ``TLB``, ``CacheHierarchy`` and
``IPStridePrefetcher`` — take the same kernel as an optional constructor
argument and publish their trace events (``TlbMiss``, ``PrefetchFill``,
``TableTransition``) through it, stamped from ``clock_of()``; built
standalone (``kernel=None``) they publish nothing.

Two kinds of taps observe the stream.  The sanitizer's audit tap reads
only ``LoadRetired`` and ``SwitchCompleted``; every other tap (the tracer,
a test's recorder) reads every event and is also listed in
``kernel.trace_taps``.  A site publishing any other kind checks
``kernel.trace_taps`` first, so a sanitized but untraced machine builds
no event that nothing reads.

Reaching into the ``Machine`` facade or into a sibling component's
attributes from component code is a layering violation — flow lint rule
RL019 enforces this mechanically.
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


class Component:
    """Base class for the kernel components behind the ``Machine`` facade.

    A component owns one subsystem and is handed its kernel at
    construction; ports (``*_port`` attributes) are wired afterwards by
    the machine that assembles it.
    """

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel
