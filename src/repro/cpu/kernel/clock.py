"""The kernel clock: one source of truth for a machine's simulated time.

Before the kernel existed, cycle bookkeeping was split three ways: the
``Machine`` owned a ``cycles`` counter plus the ``_next_timer`` deadline,
``cpu/scheduler.py`` duplicated the ~100 µs tick period as its scheduling
quantum, and ``seconds()``/span timestamps re-derived wall time from the
raw counter.  :class:`KernelClock` folds all of that into one object per
machine: the load, switch and timer paths charge cycles here, the
timer-interrupt deadline lives here, and ``Machine.seconds()``/
``machine.span(...)`` read back through the same counter.
"""

from __future__ import annotations

from repro.cpu.context import ThreadContext

#: The canonical ~100 µs OS tick (at the modeled ~3 GHz): both the
#: timer-interrupt period and the scheduler's default quantum.  The paper's
#: §8.3 cost model assumes this syscall/scheduling period for a modern OS.
DEFAULT_TICK_CYCLES = 300_000


class KernelClock:
    """Cycle counter + timer-tick deadline for one simulated machine."""

    __slots__ = ("cycles", "tick_period", "next_tick")

    def __init__(self, tick_period: int = DEFAULT_TICK_CYCLES) -> None:
        self.cycles = 0
        self.tick_period = tick_period
        self.next_tick = tick_period

    def advance(self, cycles: int) -> None:
        """Burn cycles without attributing them to a context."""
        self.cycles += cycles

    def charge(self, ctx: ThreadContext, cycles: int) -> None:
        """Burn cycles and attribute them to ``ctx``'s CPU time."""
        self.cycles += cycles
        ctx.cpu_cycles += cycles

    def tick_due(self) -> bool:
        """Has the timer-interrupt deadline elapsed?"""
        return self.cycles >= self.next_tick

    def rearm_tick(self) -> None:
        """Schedule the next timer interrupt one period from *now*.

        A backlog of elapsed ticks collapses into a single rearm — the
        modeled IRQ disturbance saturates (see ``Machine.maybe_tick``).
        """
        self.next_tick = self.cycles + self.tick_period

    def seconds(self, frequency_hz: float) -> float:
        """Wall-clock equivalent of the elapsed cycle count."""
        return self.cycles / frequency_hz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelClock(cycles={self.cycles}, next_tick={self.next_tick})"
