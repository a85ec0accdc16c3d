"""Event sinks: where a :class:`~repro.obs.tracer.Tracer` delivers events.

Three sinks cover the common workflows:

* :class:`RingBufferSink` — in-memory, bounded, for tests and programmatic
  consumers (repro.leakcheck reads ``TableTransition`` events from one).
* :class:`JsonlSink` — one compact JSON object per line; same-seed runs
  produce byte-identical files (events carry no wall-clock or floats).
* :class:`ChromeTraceSink` — Chrome ``trace_event`` / Perfetto JSON so a
  whole attack run can be opened in ``chrome://tracing`` or ui.perfetto.dev.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Iterator

from repro.obs.events import SpanBegin, SpanEnd, TraceEvent

DEFAULT_RING_CAPACITY = 65536


def event_json(event: TraceEvent) -> str:
    """Canonical compact JSON for one event (stable key order)."""
    return json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))


class Sink:
    """Base sink: receives events one at a time; ``close()`` finalizes."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/finalize; safe to call more than once."""


class RingBufferSink(Sink):
    """Keep the most recent events in memory.

    ``capacity=None`` makes the buffer unbounded (used when a consumer
    needs every event, e.g. the dynamic leak checker).
    """

    def __init__(self, capacity: int | None = DEFAULT_RING_CAPACITY) -> None:
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """All buffered events, optionally filtered by ``kind``."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(list(self._events))

    def clear(self) -> None:
        self._events.clear()


class JsonlSink(Sink):
    """Stream events to a file as JSON Lines (one object per line)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: IO[str] | None = open(path, "w", encoding="utf-8")
        self.events_written = 0

    def emit(self, event: TraceEvent) -> None:
        if self._fh is None:
            raise ValueError(f"JsonlSink({self.path!r}) is closed")
        self._fh.write(event_json(event))
        self._fh.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class ChromeTraceSink(Sink):
    """Export a Chrome ``trace_event`` JSON file (Perfetto-compatible).

    Span begin/end events map to duration slices (``ph`` = ``B``/``E``)
    and everything else becomes an instant event (``ph`` = ``i``) whose
    ``args`` carry the full event payload.  Timestamps are simulated
    cycles converted to microseconds via ``cycles_per_us`` so the viewer
    timeline reads in simulated time, not wall-clock.

    Each machine built against the owning tracer registers itself via
    :meth:`register_machine`, which allocates a fresh labeled lane
    (stable pid in registration order) and routes subsequent events
    there — so a multi-machine trace shows one named lane per machine
    instead of collapsing into a single unlabeled one.  Events emitted
    before any registration land on a default "machine" lane.  Lane pids
    are allocated in order, and each lane carries the
    ``process_name``/``thread_name`` metadata events viewers label it by.
    """

    def __init__(self, path: str, cycles_per_us: float = 1.0) -> None:
        if cycles_per_us <= 0:
            raise ValueError("cycles_per_us must be positive")
        self.path = path
        self.cycles_per_us = cycles_per_us
        self._records: list[dict] = []
        self._lanes = 0
        self._machines = 0
        self._pid: int | None = None
        self._closed = False

    def _lane(self, process_name: str) -> int:
        """Allocate the next labeled lane; returns its stable pid."""
        self._lanes += 1
        pid = self._lanes
        for meta, label in (("process_name", process_name), ("thread_name", "simulated core")):
            self._records.append(
                {"name": meta, "ph": "M", "pid": pid, "tid": 1, "args": {"name": label}}
            )
        return pid

    def register_machine(self, machine: object) -> int:
        """Open a new labeled lane for ``machine``; returns its pid.

        Machines in this codebase run to completion sequentially within a
        process, so routing by "most recently registered" is exact; the
        label carries the machine preset name and a registration ordinal.
        """
        self._machines += 1
        params = getattr(machine, "params", None)
        preset = getattr(params, "name", None) or "machine"
        self._pid = self._lane(f"{preset} #{self._machines}")
        return self._pid

    def _current_pid(self) -> int:
        if self._pid is None:
            self._pid = self._lane("afterimage simulated machine")
        return self._pid

    def _ts(self, cycle: int) -> float:
        return cycle / self.cycles_per_us

    def emit(self, event: TraceEvent) -> None:
        if self._closed:
            raise ValueError(f"ChromeTraceSink({self.path!r}) is closed")
        base = {"pid": self._current_pid(), "tid": 1, "ts": self._ts(event.cycle)}
        if isinstance(event, SpanBegin):
            self._records.append({**base, "name": event.name, "ph": "B", "cat": "span"})
        elif isinstance(event, SpanEnd):
            self._records.append(
                {
                    **base,
                    "name": event.name,
                    "ph": "E",
                    "cat": "span",
                    "args": {"cycles": event.cycles},
                }
            )
        else:
            self._records.append(
                {
                    **base,
                    "name": event.kind,
                    "ph": "i",
                    "s": "t",
                    "cat": event.kind,
                    "args": event.to_dict(),
                }
            )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self._records}, fh, sort_keys=True)
            fh.write("\n")
