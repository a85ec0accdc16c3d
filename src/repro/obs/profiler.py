"""Cycle-attribution profiler: scoped spans over the simulated clock.

``with machine.span("train"): ...`` attributes both simulated cycles and
wall-clock seconds to the named phase.  The aggregate lives on the machine
(``machine.profile``) and is *always* collected — spans are rare (a few
per attack round) so the cost is negligible — while the ``SpanBegin`` /
``SpanEnd`` trace events are published through the machine's kernel, so
they are built only when the machine has a tracer (``kernel.tracer``).

Wall-clock time never enters the event stream (it would break the
byte-identical-trace guarantee); it is reported only through
:meth:`SpanProfile.as_dict`.
"""

from __future__ import annotations

from time import perf_counter  # repro: noqa[RL003] — profiler measures host time
from typing import TYPE_CHECKING, Any

from repro.obs.events import SpanBegin, SpanEnd

if TYPE_CHECKING:
    from repro.cpu.machine import Machine


class SpanStats:
    """Accumulated totals for one span name."""

    def __init__(self) -> None:
        self.count = 0
        self.cycles = 0
        self.wall_seconds = 0.0

    def add(self, cycles: int, wall_seconds: float) -> None:
        self.count += 1
        self.cycles += cycles
        self.wall_seconds += wall_seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "cycles": self.cycles,
            "wall_seconds": self.wall_seconds,
        }


class SpanProfile:
    """Per-name span aggregates for one machine (insertion-ordered)."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}

    def add(self, name: str, cycles: int, wall_seconds: float) -> None:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.add(cycles, wall_seconds)

    def __contains__(self, name: str) -> bool:
        return name in self.spans

    def __getitem__(self, name: str) -> SpanStats:
        return self.spans[name]

    def as_dict(self) -> dict[str, Any]:
        return {name: stats.as_dict() for name, stats in self.spans.items()}

    def render_text(self) -> str:
        """Aligned per-span breakdown (cycles, share, wall time, count)."""
        if not self.spans:
            return "(no spans recorded)"
        total_cycles = sum(s.cycles for s in self.spans.values())
        width = max(len(name) for name in self.spans)
        lines = [
            f"{'span':<{width}}  {'cycles':>14}  {'share':>6}  {'wall (s)':>9}  {'count':>7}"
        ]
        for name, stats in self.spans.items():
            share = stats.cycles / total_cycles if total_cycles else 0.0
            lines.append(
                f"{name:<{width}}  {stats.cycles:>14,}  {share:>6.1%}  "
                f"{stats.wall_seconds:>9.3f}  {stats.count:>7}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self.spans.clear()


class Span:
    """Context manager attributing one scope to ``profile[name]``.

    Reads the machine's simulated clock at entry and exit and publishes
    ``SpanBegin``/``SpanEnd`` through the machine's kernel.  The tracer is
    fixed when the machine is built, so a span whose begin was traced
    always has its end traced too.  Reentrant use of the same name
    simply accumulates.
    """

    def __init__(self, profile: SpanProfile, name: str, machine: "Machine | None" = None) -> None:
        self.profile = profile
        self.name = name
        self.machine = machine
        self._start_cycles = 0
        self._start_wall = 0.0

    def __enter__(self) -> "Span":
        self._start_wall = perf_counter()
        machine = self.machine
        if machine is not None:
            self._start_cycles = machine.cycles
            if machine.kernel.tracer is not None:
                machine.kernel.publish(SpanBegin, self._start_cycles, self.name)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        wall = perf_counter() - self._start_wall
        cycles = 0
        machine = self.machine
        if machine is not None:
            now = machine.cycles
            cycles = now - self._start_cycles
            if machine.kernel.tracer is not None:
                machine.kernel.publish(SpanEnd, now, self.name, cycles)
        self.profile.add(self.name, cycles, wall)
