"""Tracer: fans the machine's trace events out to sinks.

A traced machine's kernel holds one tracer.  The machine's load,
prefetch-dispatch, clflush and switch paths, the TLB, the cache hierarchy,
the IP-stride prefetcher, spans and sanitizer violations all publish with
``kernel.publish(kind, *fields)``, which builds the event and hands it to
:meth:`Tracer.emit`.  An untraced machine has no tracer
(``Machine.tracer is None``), and every publish site checks for that
first, so it builds no trace event at all.

``Machine(trace=...)`` and the ``REPRO_TRACE`` environment variable mirror
the ``sanitize=`` / ``REPRO_SANITIZE`` convention from ``repro.sanitize``.
"""

from __future__ import annotations

import os

from repro.obs.events import TraceEvent
from repro.obs.sinks import RingBufferSink, Sink

ENV_VAR = "REPRO_TRACE"

_TRUTHY = {"1", "true", "yes", "on"}


def trace_enabled(explicit: bool | None = None) -> bool:
    """Resolve the tracing default: explicit flag wins, else ``REPRO_TRACE``."""
    if explicit is not None:
        return explicit
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


class Tracer:
    """Fan events out to one or more sinks."""

    def __init__(self, sinks: list[Sink] | None = None) -> None:
        self.sinks: list[Sink] = list(sinks) if sinks is not None else [RingBufferSink()]

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def add_sink(self, sink: Sink) -> None:
        self.sinks.append(sink)

    def register_machine(self, machine: object) -> None:
        """Tell lane-aware sinks a new machine will emit through us.

        Sinks that label per-machine lanes (:class:`ChromeTraceSink`)
        expose ``register_machine``; everything else ignores the call.
        """
        for sink in self.sinks:
            register = getattr(sink, "register_machine", None)
            if register is not None:
                register(machine)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """Events from the first ring-buffer sink (convenience for tests)."""
        for sink in self.sinks:
            if isinstance(sink, RingBufferSink):
                return sink.events(kind)
        return []

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def resolve_tracer(trace: "Tracer | bool | None") -> Tracer | None:
    """Map the ``Machine(trace=...)`` argument to a tracer, or ``None``.

    ``None`` consults ``REPRO_TRACE``; ``True`` builds a fresh ring-buffer
    tracer; ``False`` means no tracer; a :class:`Tracer` instance is used
    as-is.
    """
    if isinstance(trace, Tracer):
        return trace
    return Tracer() if trace_enabled(trace) else None
