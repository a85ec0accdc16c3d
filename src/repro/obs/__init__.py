"""repro.obs: structured tracing, metrics, and cycle-attribution profiling.

Three layers over the simulated machine:

* **Tracing** (`events`, `tracer`, `sinks`) — typed events published by
  the CPU, memory hierarchy, prefetcher, TLB, spans and sanitizer through
  the machine's kernel to its one :class:`Tracer`, which fans them out to
  ring-buffer / JSONL / Chrome-trace sinks.  Off by default: an untraced
  machine has no tracer, and each publish site costs one ``is None``
  check.
* **Metrics** (`metrics`) — a snapshot of every component counter plus the
  measured-latency histogram straddling the LLC-hit threshold.
* **Profiling** (`profiler`) — ``with machine.span("train"): ...`` scopes
  attributing simulated cycles and wall-clock to attack phases; always on.
* **Campaign telemetry** (`telemetry`) — a :class:`Timeline` of each
  executed cell's host seconds that partitions a campaign run's
  wall-clock into cells/store/backoff/unattributed buckets
  (``afterimage perf``).

Enable tracing per machine with ``Machine(trace=True)`` (or a configured
:class:`Tracer`), or globally with ``REPRO_TRACE=1`` — the same convention
as ``repro.sanitize``.  See docs/OBSERVABILITY.md.
"""

from repro.obs.events import (
    EVENT_TYPES,
    Clflush,
    ContextSwitch,
    EntrySnapshot,
    LoadTraced,
    PrefetchFill,
    PrefetchIssued,
    SanitizerViolation,
    SpanBegin,
    SpanEnd,
    TableTransition,
    TlbMiss,
    TraceEvent,
)
from repro.obs.metrics import Histogram, MetricsRegistry, latency_bounds, snapshot
from repro.obs.profiler import Span, SpanProfile, SpanStats
from repro.obs.sinks import (
    ChromeTraceSink,
    JsonlSink,
    RingBufferSink,
    Sink,
    event_json,
)
from repro.obs.telemetry import BUCKETS, CellRecord, Timeline
from repro.obs.tracer import (
    ENV_VAR,
    Tracer,
    resolve_tracer,
    trace_enabled,
)

__all__ = [
    "BUCKETS",
    "CellRecord",
    "ChromeTraceSink",
    "Clflush",
    "ContextSwitch",
    "ENV_VAR",
    "EVENT_TYPES",
    "EntrySnapshot",
    "Histogram",
    "JsonlSink",
    "LoadTraced",
    "MetricsRegistry",
    "PrefetchFill",
    "PrefetchIssued",
    "RingBufferSink",
    "SanitizerViolation",
    "Sink",
    "Span",
    "SpanBegin",
    "SpanEnd",
    "SpanProfile",
    "SpanStats",
    "TableTransition",
    "Timeline",
    "TlbMiss",
    "TraceEvent",
    "Tracer",
    "event_json",
    "latency_bounds",
    "resolve_tracer",
    "snapshot",
    "trace_enabled",
]
