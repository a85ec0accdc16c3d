"""Cross-process performance telemetry: worker timelines and attribution.

The single-process :mod:`repro.obs` layers (tracer, metrics, spans) die
with the pool worker that collected them, which made the
:class:`~repro.campaign.runner.CampaignRunner`'s pool an observability
black hole: a measured 0.911 "speedup" at ``--jobs 2`` (EXPERIMENTS.md,
"Where the parallel time goes") and nothing in the repo could say where
the time went.  This module closes that hole:

* :class:`WorkerTelemetry` is captured *inside* each worker (wall window,
  per-span host seconds from the machine profile, simulated cycles) and
  piggy-backed on the result via :class:`TelemetryEnvelope` — the batch
  or error itself is untouched, so same-seed aggregates stay
  byte-identical with telemetry on.
* :class:`TelemetryCollector` does the parent-side bookkeeping: pickled
  payload sizes both directions (measured with ``pickle.dumps``),
  dispatch timestamps, per-result receive latency and pool-window edges.
* :class:`Timeline` merges everything into per-worker lanes plus an
  overhead attribution that partitions the run's wall-clock into four
  named buckets — ``serialize`` / ``queue`` / ``compute`` / ``serial`` —
  **by construction** (the buckets are a partition of the
  wall interval, so coverage is 100% up to clamping), rendered as text,
  JSON, or a Chrome ``trace_event`` file with labeled process lanes.

All timestamps are ``time.perf_counter()``: on Linux that is
``CLOCK_MONOTONIC``, which is system-wide, so timestamps taken inside a
forked worker are directly comparable to the parent's.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from time import perf_counter  # repro: noqa[RL003] — telemetry measures host wall-clock
from typing import Any

#: The attribution bucket names, in rendering order.
BUCKETS = ("serialize", "queue", "compute", "serial")


@dataclass(frozen=True)
class WorkerTelemetry:
    """What one worker measured about itself, shipped back with the result.

    ``start``/``end`` bracket the worker's whole task (including machine
    construction); ``span_wall`` is the per-phase host-seconds view of the
    machine's span profile, and ``simulated_cycles``/``n_trials`` tie the
    wall window back to simulated work.  ``ok`` is False when the cell
    raised and produced no batch.
    """

    pid: int
    start: float
    end: float
    ok: bool
    simulated_cycles: int = 0
    n_trials: int = 0
    span_wall: dict[str, float] = field(default_factory=dict)

    @property
    def compute_seconds(self) -> float:
        return max(0.0, self.end - self.start)

    def as_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "start": self.start,
            "end": self.end,
            "ok": self.ok,
            "compute_seconds": self.compute_seconds,
            "simulated_cycles": self.simulated_cycles,
            "n_trials": self.n_trials,
            "span_wall": dict(self.span_wall),
        }


@dataclass(frozen=True)
class TelemetryEnvelope:
    """A worker result plus its telemetry, crossing the pool as one pickle.

    ``outcome`` is whatever the uninstrumented worker returns — the
    campaign runner's ``(key, batch, error)`` triple — so callers unwrap
    it and the downstream result shape is identical to the telemetry-off
    path.
    """

    outcome: Any
    telemetry: WorkerTelemetry


def capture_worker(fn: Any, arg: Any) -> TelemetryEnvelope:
    """Run ``fn(arg)`` inside a worker, timing it into an envelope.

    ``fn`` returns a ``(key, batch, error)`` triple.  The batch's span
    profile supplies the per-phase wall breakdown; an error outcome (no
    batch) yields ``ok=False`` with an empty breakdown.
    """
    start = perf_counter()
    outcome = fn(arg)
    end = perf_counter()
    batch = outcome[1]
    spans = getattr(batch, "spans", None) or {}
    return TelemetryEnvelope(
        outcome=outcome,
        telemetry=WorkerTelemetry(
            pid=os.getpid(),
            start=start,
            end=end,
            ok=batch is not None,
            simulated_cycles=int(getattr(batch, "simulated_cycles", 0) or 0),
            n_trials=int(getattr(batch, "n_trials", 0) or 0),
            span_wall={
                str(name): float(stats.get("wall_seconds", 0.0))
                for name, stats in spans.items()
                if isinstance(stats, dict)
            },
        ),
    )


@dataclass
class TaskRecord:
    """Parent+worker bookkeeping for one dispatched task."""

    index: int
    label: str
    request_bytes: int = 0
    #: When the task started waiting for its worker: the pool dispatch, or
    #: the end of the same worker's previous task if that came later.
    dispatch_ts: float = 0.0
    receive_ts: float = 0.0
    result_bytes: int = 0
    worker: WorkerTelemetry | None = None

    @property
    def queue_seconds(self) -> float:
        """Host seconds the task waited for its (free) worker to pick it up."""
        if self.worker is None:
            return 0.0
        return max(0.0, self.worker.start - self.dispatch_ts)

    @property
    def result_latency(self) -> float:
        """Host seconds between the worker finishing and the parent seeing it."""
        if self.worker is None:
            return 0.0
        return max(0.0, self.receive_ts - self.worker.end)

    @property
    def compute_seconds(self) -> float:
        return self.worker.compute_seconds if self.worker is not None else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "request_bytes": self.request_bytes,
            "result_bytes": self.result_bytes,
            "dispatch_ts": self.dispatch_ts,
            "receive_ts": self.receive_ts,
            "queue_seconds": self.queue_seconds,
            "result_latency": self.result_latency,
            "compute_seconds": self.compute_seconds,
            "worker": self.worker.as_dict() if self.worker else None,
        }


def _interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total measure of the union of ``[begin, end]`` intervals."""
    covered = 0.0
    cursor: float | None = None
    for begin, end in sorted(i for i in intervals if i[1] > i[0]):
        if cursor is None or begin > cursor:
            covered += end - begin
            cursor = end
        elif end > cursor:
            covered += end - cursor
            cursor = end
    return covered


class TelemetryCollector:
    """Parent-side accumulator for the campaign runner.

    Usage shape::

        collector = TelemetryCollector(jobs=jobs)
        for i, task in enumerate(tasks):
            collector.add_request(i, label, task)   # pickles for size
        collector.window_begin()                    # dispatch timestamp
        for i, envelope in enumerate(pool.imap(worker, tasks)):
            outcome = collector.receive(i, envelope)
        collector.window_end()
        collector.measure_results(outcomes)         # pickles for size
        timeline = collector.finish()
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.records: list[TaskRecord] = []
        self._by_index: dict[int, TaskRecord] = {}
        self.windows: list[tuple[float, float]] = []
        self.serialize_seconds = 0.0
        self.origin = perf_counter()
        self._window_start: float | None = None

    # -- request side -------------------------------------------------- #

    def add_request(self, index: int, label: str, payload: Any) -> None:
        """Register one task, measuring its pickled request size."""
        start = perf_counter()
        nbytes = len(pickle.dumps(payload))
        self.serialize_seconds += perf_counter() - start
        record = TaskRecord(index=index, label=label, request_bytes=nbytes)
        self.records.append(record)
        self._by_index[index] = record

    def window_begin(self) -> None:
        """Mark pool dispatch: every registered task is queued from here."""
        now = perf_counter()
        self._window_start = now
        for record in self.records:
            if record.worker is None:
                record.dispatch_ts = now

    def receive(self, index: int, envelope: TelemetryEnvelope) -> Any:
        """Record one arriving envelope; returns the unwrapped outcome."""
        record = self._by_index[index]
        record.receive_ts = perf_counter()
        record.worker = envelope.telemetry
        return envelope.outcome

    def window_end(self) -> None:
        if self._window_start is not None:
            self.windows.append((self._window_start, perf_counter()))
            self._window_start = None

    def measure_results(self, outcomes: list[Any], start: int = 0) -> None:
        """Measure result pickle sizes (parent-side, outside the window).

        ``start`` offsets into the record list for callers that dispatch
        in several rounds (the campaign runner's retry loop).
        """
        for record, outcome in zip(self.records[start:], outcomes):
            start = perf_counter()
            try:
                record.result_bytes = len(pickle.dumps(outcome))
            except Exception:
                record.result_bytes = 0
            self.serialize_seconds += perf_counter() - start

    def _queue_from_free_lanes(self) -> None:
        """Start each task's queue wait when its worker's lane became free.

        ``window_begin`` stamps every task with the pool dispatch time, but
        a worker computing earlier cells is not queueing the later ones:
        a task waits from its dispatch or its lane's previous task's end,
        whichever is later.
        """
        lane_free: dict[int, float] = {}
        ran = [record for record in self.records if record.worker is not None]
        for record in sorted(ran, key=lambda record: record.worker.start):
            pid = record.worker.pid
            record.dispatch_ts = max(record.dispatch_ts, lane_free.get(pid, record.dispatch_ts))
            lane_free[pid] = record.worker.end

    def finish(self, wall_seconds: float | None = None) -> "Timeline":
        if self._window_start is not None:  # tolerate a missing window_end
            self.window_end()
        self._queue_from_free_lanes()
        wall = (
            wall_seconds
            if wall_seconds is not None
            else perf_counter() - self.origin
        )
        return Timeline(
            jobs=self.jobs,
            origin=self.origin,
            wall_seconds=wall,
            records=list(self.records),
            windows=list(self.windows),
            serialize_seconds=self.serialize_seconds,
        )


@dataclass
class Timeline:
    """Merged per-worker records plus the wall-clock attribution."""

    jobs: int
    origin: float
    wall_seconds: float
    records: list[TaskRecord]
    windows: list[tuple[float, float]]
    serialize_seconds: float

    # -- attribution ---------------------------------------------------- #

    def _clipped_busy(self) -> list[tuple[float, float]]:
        """Worker busy intervals clipped to the pool windows."""
        clipped: list[tuple[float, float]] = []
        for record in self.records:
            if record.worker is None:
                continue
            for w_begin, w_end in self.windows or [(self.origin, self.origin + self.wall_seconds)]:
                begin = max(record.worker.start, w_begin)
                end = min(record.worker.end, w_end)
                if end > begin:
                    clipped.append((begin, end))
        return clipped

    def buckets(self) -> dict[str, float]:
        """Partition the wall interval into the four named buckets.

        ``compute`` is the union of worker-busy time inside the pool
        windows; ``queue`` is the remaining window time (dispatch latency,
        IPC, result unpickling); ``serialize`` is the measured parent
        pickling outside the windows; ``serial`` is everything else
        (setup, store reads and writes, bookkeeping).  The four sum to
        ``wall_seconds`` exactly unless clock skew forces the ``serial``
        remainder to clamp at zero.
        """
        window_len = sum(max(0.0, end - begin) for begin, end in self.windows)
        compute = min(_interval_union(self._clipped_busy()), window_len) if window_len else 0.0
        if not self.windows:  # serial path: busy intervals are the window
            compute = _interval_union(
                [
                    (r.worker.start, r.worker.end)
                    for r in self.records
                    if r.worker is not None
                ]
            )
        queue = max(0.0, window_len - compute)
        serialize = self.serialize_seconds
        serial = max(0.0, self.wall_seconds - (serialize + queue + compute))
        return {
            "serialize": serialize,
            "queue": queue,
            "compute": compute,
            "serial": serial,
        }

    def attribution(self) -> dict[str, Any]:
        """Buckets with shares, plus coverage (attributed / wall)."""
        buckets = self.buckets()
        wall = self.wall_seconds
        attributed = sum(buckets.values())
        return {
            "wall_seconds": wall,
            "coverage": (min(attributed, wall) / wall) if wall > 0 else 1.0,
            "buckets": {
                name: {
                    "seconds": buckets[name],
                    "share": (buckets[name] / wall) if wall > 0 else 0.0,
                }
                for name in BUCKETS
            },
        }

    def dominant_overhead(self) -> str:
        """The non-compute bucket with the largest share."""
        buckets = self.buckets()
        overheads = {k: v for k, v in buckets.items() if k != "compute"}
        return max(overheads, key=lambda name: overheads[name])

    # -- lanes ----------------------------------------------------------- #

    def lanes(self) -> dict[int, list[TaskRecord]]:
        """Records grouped per worker pid, in dispatch order."""
        grouped: dict[int, list[TaskRecord]] = {}
        for record in self.records:
            pid = record.worker.pid if record.worker is not None else 0
            grouped.setdefault(pid, []).append(record)
        return grouped

    def utilization(self) -> float:
        """Worker-busy seconds over available worker-seconds in the windows."""
        window_len = sum(max(0.0, end - begin) for begin, end in self.windows)
        if window_len <= 0:
            return 1.0 if self.records else 0.0
        busy = sum(
            record.compute_seconds for record in self.records if record.worker
        )
        return min(1.0, busy / (window_len * self.jobs))

    # -- totals ----------------------------------------------------------- #

    def totals(self) -> dict[str, Any]:
        return {
            "tasks": len(self.records),
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "utilization": self.utilization(),
            "request_bytes": sum(r.request_bytes for r in self.records),
            "result_bytes": sum(r.result_bytes for r in self.records),
            "queue_seconds": sum(r.queue_seconds for r in self.records),
            "compute_seconds": sum(r.compute_seconds for r in self.records),
            "simulated_cycles": sum(
                r.worker.simulated_cycles for r in self.records if r.worker
            ),
        }

    # -- rendering -------------------------------------------------------- #

    def as_dict(self) -> dict[str, Any]:
        return {
            "attribution": self.attribution(),
            "totals": self.totals(),
            "lanes": {
                str(pid): [record.as_dict() for record in records]
                for pid, records in self.lanes().items()
            },
        }

    def render_text(self) -> str:
        attribution = self.attribution()
        lines = [
            f"timeline: {len(self.records)} tasks, jobs={self.jobs}, "
            f"wall {self.wall_seconds:.3f}s, "
            f"utilization {self.utilization() * 100:.0f}%, "
            f"coverage {attribution['coverage'] * 100:.1f}%"
        ]
        lines.append(f"{'bucket':<10}  {'seconds':>9}  {'share':>6}")
        for name in BUCKETS:
            entry = attribution["buckets"][name]
            lines.append(
                f"{name:<10}  {entry['seconds']:>9.3f}  {entry['share']:>6.1%}"
            )
        lines.append("")
        lines.append(
            f"{'worker':<10}  {'tasks':>5}  {'busy (s)':>9}  "
            f"{'queue (s)':>9}  {'in KiB':>8}  {'out KiB':>8}"
        )
        for pid, records in sorted(self.lanes().items()):
            busy = sum(record.compute_seconds for record in records)
            queue = sum(record.queue_seconds for record in records)
            nbytes_in = sum(record.request_bytes for record in records)
            nbytes_out = sum(record.result_bytes for record in records)
            lines.append(
                f"pid {pid:<6}  {len(records):>5}  {busy:>9.3f}  "
                f"{queue:>9.3f}  {nbytes_in / 1024:>8.1f}  {nbytes_out / 1024:>8.1f}"
            )
        return "\n".join(lines)

    def write_chrome(self, path: str) -> None:
        """Export the timeline as a Chrome ``trace_event`` file.

        One labeled process lane per worker pid (plus a parent lane for
        the serialize phase and the pool windows), timestamps in microseconds relative
        to the collector's origin.
        """
        from repro.obs.sinks import ChromeTraceWriter

        writer = ChromeTraceWriter()
        parent_pid = writer.lane("runner (parent)", "dispatch")

        def us(ts: float) -> float:
            return max(0.0, ts - self.origin) * 1e6

        serialize = self.serialize_seconds
        if serialize > 0:
            writer.slice(
                parent_pid, "serialize", us(self.origin), serialize * 1e6,
                cat="serialize", args={"seconds": serialize},
            )
        for w_begin, w_end in self.windows:
            writer.slice(
                parent_pid, "pool window", us(w_begin), (w_end - w_begin) * 1e6,
                cat="queue",
            )
        for pid, records in sorted(self.lanes().items()):
            lane_pid = writer.lane(f"worker pid {pid}", "trial compute")
            for record in records:
                if record.worker is None:
                    continue
                if record.queue_seconds > 0:
                    writer.slice(
                        lane_pid, f"queue:{record.label}",
                        us(record.dispatch_ts), record.queue_seconds * 1e6,
                        cat="queue",
                    )
                writer.slice(
                    lane_pid, record.label, us(record.worker.start),
                    record.compute_seconds * 1e6, cat="compute",
                    args={
                        "simulated_cycles": record.worker.simulated_cycles,
                        "n_trials": record.worker.n_trials,
                        "request_bytes": record.request_bytes,
                        "result_bytes": record.result_bytes,
                        "span_wall": record.worker.span_wall,
                    },
                )
                if record.result_latency > 0:
                    writer.slice(
                        lane_pid, f"result:{record.label}",
                        us(record.worker.end), record.result_latency * 1e6,
                        cat="serialize",
                    )
        writer.write(path)
