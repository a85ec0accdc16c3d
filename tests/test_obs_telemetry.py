"""Tests for cross-process telemetry: envelopes, timelines, attribution.

The contract under test:

* the attribution buckets partition the wall interval — coverage is
  100% by construction on synthetic timelines and ≥95% on real runs;
* same-seed aggregates are **byte-identical** with telemetry on vs off
  (the envelope carries the batch, it never touches it);
* the Chrome-trace export labels one process lane per worker pid plus a
  parent lane, via the shared :class:`ChromeTraceWriter` metadata shape.
"""

import dataclasses
import json
from functools import partial

import pytest

from repro.attacks.trial import TrialBatch
from repro.campaign import CampaignRunner, CampaignSpec, TrialStore, run_cell
from repro.campaign.render import render_markdown, render_result
from repro.campaign.runner import _call_safely
from repro.obs.telemetry import (
    BUCKETS,
    TaskRecord,
    TelemetryCollector,
    TelemetryEnvelope,
    Timeline,
    WorkerTelemetry,
    _interval_union,
    capture_worker,
)


def canonical(merged: dict[str, TrialBatch]) -> bytes:
    return json.dumps(
        {name: batch.wall_clock_free_dict() for name, batch in merged.items()},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()


def tiny_spec(**overrides) -> CampaignSpec:
    base = dict(
        name="telemetry-t",
        attacks=("variant1",),
        repeats=1,
        rounds=2,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def tiny_cell():
    return tiny_spec(rounds=1).cells()[0]


#: The runner's worker: a cell in, a ``(key, batch, error)`` triple out.
safe_run_cell = partial(_call_safely, run_cell)


class CrashAlways:
    """Fault injector: the cell with this repeat index always raises."""

    def __init__(self, repeat: int) -> None:
        self.repeat = repeat

    def __call__(self, cell):
        if cell.repeat == self.repeat:
            raise RuntimeError("persistent injected crash")
        return run_cell(cell)


# --------------------------------------------------------------------------- #
# interval union
# --------------------------------------------------------------------------- #


class TestIntervalUnion:
    def test_disjoint(self):
        assert _interval_union([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)

    def test_overlapping_merge(self):
        assert _interval_union([(0.0, 2.0), (1.0, 3.0)]) == pytest.approx(3.0)

    def test_contained_interval_ignored(self):
        assert _interval_union([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)

    def test_empty_and_degenerate(self):
        assert _interval_union([]) == 0.0
        assert _interval_union([(1.0, 1.0), (2.0, 1.0)]) == 0.0

    def test_unsorted_input(self):
        assert _interval_union([(5.0, 6.0), (0.0, 1.0)]) == pytest.approx(2.0)


# --------------------------------------------------------------------------- #
# worker-side capture
# --------------------------------------------------------------------------- #


class TestCaptureWorker:
    def test_batch_envelope(self):
        cell = tiny_cell()
        envelope = capture_worker(safe_run_cell, cell)
        assert isinstance(envelope, TelemetryEnvelope)
        key, batch, error = envelope.outcome
        assert key == cell.key and error is None
        assert isinstance(batch, TrialBatch)
        worker = envelope.telemetry
        assert worker.ok
        assert worker.end >= worker.start
        assert worker.n_trials == batch.n_trials
        assert worker.simulated_cycles > 0

    def test_error_envelope_not_ok(self):
        cell = dataclasses.replace(tiny_cell(), experiment="no-such-attack")
        envelope = capture_worker(safe_run_cell, cell)
        _key, batch, error = envelope.outcome
        assert batch is None and "unknown attack" in error
        assert not envelope.telemetry.ok
        assert envelope.telemetry.span_wall == {}

    def test_envelope_outcome_untouched(self):
        """Same seed, wrapped vs bare: the batch payloads are identical."""
        cell = tiny_cell()
        bare = safe_run_cell(cell)[1]
        wrapped = capture_worker(safe_run_cell, cell).outcome[1]
        assert canonical({"cell": bare}) == canonical({"cell": wrapped})


# --------------------------------------------------------------------------- #
# synthetic timeline: the partition is exact
# --------------------------------------------------------------------------- #


def synthetic_timeline() -> Timeline:
    """Hand-built two-worker timeline with known bucket values.

    wall=10, window=[1,8]; worker 101 busy [1,4], worker 102 busy [4,8]
    → compute 7, queue 0; serialize 1.0 measured outside the window;
    serial = 10 − 8 = 2.  Exact partition, coverage 1.0.
    """
    w1 = WorkerTelemetry(pid=101, start=1.0, end=4.0, ok=True, n_trials=3)
    w2 = WorkerTelemetry(pid=102, start=4.0, end=8.0, ok=True, n_trials=4)
    return Timeline(
        jobs=2,
        origin=0.0,
        wall_seconds=10.0,
        records=[
            TaskRecord(
                index=0, label="a", request_bytes=1024, dispatch_ts=1.0,
                receive_ts=4.5, result_bytes=2048, worker=w1,
            ),
            TaskRecord(
                index=1, label="b", request_bytes=512, dispatch_ts=1.0,
                receive_ts=8.0, result_bytes=4096, worker=w2,
            ),
        ],
        windows=[(1.0, 8.0)],
        serialize_seconds=1.0,
    )


class TestTimelineAttribution:
    def test_buckets_partition_wall(self):
        timeline = synthetic_timeline()
        buckets = timeline.buckets()
        assert set(buckets) == set(BUCKETS)
        assert buckets["serialize"] == pytest.approx(1.0)
        assert buckets["queue"] == pytest.approx(0.0)
        assert buckets["compute"] == pytest.approx(7.0)
        assert buckets["serial"] == pytest.approx(2.0)
        assert sum(buckets.values()) == pytest.approx(timeline.wall_seconds)

    def test_coverage_is_exact(self):
        attribution = synthetic_timeline().attribution()
        assert attribution["coverage"] == pytest.approx(1.0)
        shares = [entry["share"] for entry in attribution["buckets"].values()]
        assert sum(shares) == pytest.approx(1.0)

    def test_dominant_overhead_excludes_compute(self):
        # compute (7s) dominates everything, but it is work, not overhead:
        # the largest *overhead* bucket is the 2s serial remainder.
        assert synthetic_timeline().dominant_overhead() == "serial"

    def test_queue_bucket_from_idle_window(self):
        """A worker busy for only part of the window leaves queue time."""
        w = WorkerTelemetry(pid=7, start=2.0, end=5.0, ok=True)
        timeline = Timeline(
            jobs=1, origin=0.0, wall_seconds=10.0,
            records=[TaskRecord(index=0, label="x", dispatch_ts=1.0, worker=w)],
            windows=[(1.0, 8.0)],
            serialize_seconds=0.0,
        )
        buckets = timeline.buckets()
        assert buckets["compute"] == pytest.approx(3.0)
        assert buckets["queue"] == pytest.approx(4.0)
        assert timeline.dominant_overhead() == "queue"

    def test_serial_path_without_windows(self):
        w = WorkerTelemetry(pid=1, start=1.0, end=4.0, ok=True)
        timeline = Timeline(
            jobs=1, origin=0.0, wall_seconds=5.0,
            records=[TaskRecord(index=0, label="x", worker=w)],
            windows=[], serialize_seconds=0.0,
        )
        buckets = timeline.buckets()
        assert buckets["compute"] == pytest.approx(3.0)
        assert buckets["queue"] == 0.0
        assert buckets["serial"] == pytest.approx(2.0)

    def test_utilization(self):
        # busy 3+4 = 7 worker-seconds over 7s window × 2 jobs = 0.5.
        assert synthetic_timeline().utilization() == pytest.approx(0.5)

    def test_lanes_grouped_by_pid(self):
        lanes = synthetic_timeline().lanes()
        assert sorted(lanes) == [101, 102]
        assert [record.label for record in lanes[101]] == ["a"]

    def test_totals(self):
        totals = synthetic_timeline().totals()
        assert totals["tasks"] == 2
        assert totals["request_bytes"] == 1536
        assert totals["result_bytes"] == 6144
        assert totals["compute_seconds"] == pytest.approx(7.0)


class TestTimelineRendering:
    def test_as_dict_shape(self):
        data = synthetic_timeline().as_dict()
        assert set(data) == {"attribution", "totals", "lanes"}
        assert set(data["lanes"]) == {"101", "102"}
        json.dumps(data)  # must be JSON-serializable as-is

    def test_render_text_mentions_buckets_and_workers(self):
        text = synthetic_timeline().render_text()
        for name in BUCKETS:
            assert name in text
        assert "pid 101" in text
        assert "pid 102" in text
        assert "utilization" in text

    def test_write_chrome_labeled_lanes(self, tmp_path):
        path = tmp_path / "timeline.trace.json"
        synthetic_timeline().write_chrome(str(path))
        events = json.loads(path.read_text())["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        }
        assert names == {"runner (parent)", "worker pid 101", "worker pid 102"}
        # one distinct stable pid per lane, starting at 1
        pids = sorted({e["pid"] for e in meta})
        assert pids == [1, 2, 3]
        slices = [e for e in events if e["ph"] == "X"]
        labels = {e["name"] for e in slices}
        assert {"serialize", "pool window", "a", "b"} <= labels
        # timestamps are µs relative to the origin, inside the wall window
        assert all(0.0 <= e["ts"] <= 10.0 * 1e6 for e in slices)


# --------------------------------------------------------------------------- #
# collector bookkeeping
# --------------------------------------------------------------------------- #


class TestTelemetryCollector:
    def test_serialize_phase_accumulates(self):
        collector = TelemetryCollector(jobs=1)
        collector.add_request(0, "cell", {"payload": list(range(100))})
        assert collector.records[0].request_bytes > 0
        assert collector.serialize_seconds > 0
        timeline = collector.finish()
        assert isinstance(timeline, Timeline)
        assert timeline.wall_seconds > 0

    def test_finish_tolerates_open_window(self):
        collector = TelemetryCollector(jobs=2)
        collector.add_request(0, "cell", "x")
        collector.window_begin()
        timeline = collector.finish()
        assert len(timeline.windows) == 1


# --------------------------------------------------------------------------- #
# campaign integration
# --------------------------------------------------------------------------- #


class TestCampaignTelemetry:
    def test_single_lane_queue_is_within_the_queue_bucket(self, tmp_path):
        # jobs=1 runs every cell in one lane: a cell waiting behind the
        # cells before it is not queue time, so the lane's queue seconds
        # can only be the gaps the queue bucket already counts.
        runner = CampaignRunner(TrialStore(tmp_path / "store"), jobs=1, telemetry=True)
        timeline = runner.run(tiny_spec(attacks=("variant1", "sgx", "covert"))).telemetry
        lanes = timeline.lanes()
        assert len(lanes) == 1 and len(timeline.records) == 3
        lane_queue = sum(record.queue_seconds for record in timeline.records)
        assert lane_queue <= timeline.buckets()["queue"] + 1e-9

    def test_runner_attaches_timeline(self, tmp_path):
        runner = CampaignRunner(TrialStore(tmp_path / "store"), telemetry=True)
        result = runner.run(tiny_spec())
        assert isinstance(result.telemetry, Timeline)
        assert len(result.telemetry.records) == len(result.outcomes)
        assert result.telemetry.attribution()["coverage"] >= 0.95

    def test_aggregates_match_telemetry_off(self, tmp_path):
        on = CampaignRunner(TrialStore(tmp_path / "on"), telemetry=True).run(
            tiny_spec()
        )
        off = CampaignRunner(TrialStore(tmp_path / "off")).run(tiny_spec())
        assert off.telemetry is None
        assert json.dumps(on.aggregates(), sort_keys=True) == json.dumps(
            off.aggregates(), sort_keys=True
        )

    def test_render_result_includes_time_went(self, tmp_path):
        runner = CampaignRunner(TrialStore(tmp_path / "store"), telemetry=True)
        result = runner.run(tiny_spec())
        text = render_result(result)
        assert "where the time went:" in text
        markdown = render_markdown(result)
        assert "### Where the time went" in markdown
        assert "dominant overhead" in markdown

    def test_render_omits_section_without_telemetry(self, tmp_path):
        result = CampaignRunner(TrialStore(tmp_path / "store")).run(tiny_spec())
        assert "where the time went:" not in render_result(result)
        assert "Where the time went" not in render_markdown(result)

    def test_cached_rerun_keeps_timeline_empty(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        CampaignRunner(store, telemetry=True).run(tiny_spec())
        rerun = CampaignRunner(store, telemetry=True).run(tiny_spec())
        assert rerun.executed_count == 0
        # every cell came from the cache: nothing was dispatched
        assert len(rerun.telemetry.records) == 0

    def test_error_task_recorded_not_ok(self, tmp_path):
        result = CampaignRunner(
            TrialStore(tmp_path / "store"),
            telemetry=True,
            max_attempts=1,
            run_cell_fn=CrashAlways(repeat=0),
        ).run(tiny_spec())
        assert len(result.failed) == 1
        (record,) = result.telemetry.records
        assert record.worker is not None
        assert not record.worker.ok

    @pytest.mark.slow
    def test_pool_timeline_matches_serial_aggregates(self, tmp_path):
        spec = tiny_spec(attacks=("variant1", "sgx"), rounds=1)
        serial = CampaignRunner(TrialStore(tmp_path / "serial")).run(spec)
        pooled = CampaignRunner(
            TrialStore(tmp_path / "pooled"), jobs=2, telemetry=True
        ).run(spec)
        assert json.dumps(serial.aggregates(), sort_keys=True) == json.dumps(
            pooled.aggregates(), sort_keys=True
        )
        timeline = pooled.telemetry
        assert timeline.jobs == 2
        assert len(timeline.windows) == 1
        assert timeline.attribution()["coverage"] >= 0.95
