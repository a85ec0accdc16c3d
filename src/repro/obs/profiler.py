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

#: The span ``run_on_machine`` wraps a whole attack run in; every other
#: span an attack opens is a disjoint phase inside it.
OUTER_SPAN = "total"


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

    def render_text(self, cycles: int) -> str:
        """Aligned per-span breakdown (cycles, share, wall time, count).

        ``cycles`` is the machine's simulated clock, the 100% line.  The
        phase spans inside the :data:`OUTER_SPAN` are disjoint, so their
        rows plus an explicit ``unattributed`` row (cycles in no phase
        span) sum to 100%; the outer span's own row follows them.
        """
        if not self.spans:
            return "(no spans recorded)"
        phases = {name: s for name, s in self.spans.items() if name != OUTER_SPAN}
        unattributed = cycles - sum(stats.cycles for stats in phases.values())
        rows: list[tuple[str, int, SpanStats | None]] = [
            (name, stats.cycles, stats) for name, stats in phases.items()
        ]
        rows.append(("unattributed", unattributed, None))
        if OUTER_SPAN in self.spans:
            outer = self.spans[OUTER_SPAN]
            rows.append((OUTER_SPAN, outer.cycles, outer))
        width = max(len(name) for name, _cycles, _stats in rows)
        lines = [
            f"{'span':<{width}}  {'cycles':>14}  {'share':>6}  {'wall (s)':>9}  {'count':>7}"
        ]
        for name, span_cycles, stats in rows:
            share = span_cycles / cycles if cycles else 0.0
            line = f"{name:<{width}}  {span_cycles:>14,}  {share:>6.1%}"
            if stats is not None:
                line += f"  {stats.wall_seconds:>9.3f}  {stats.count:>7}"
            lines.append(line)
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
