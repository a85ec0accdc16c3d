"""Tests for the campaign runner's telemetry: timelines and attribution.

The contract under test:

* the buckets (cells, store, backoff, unattributed) partition the wall
  interval exactly on synthetic timelines, and the measured buckets cover
  ≥95% of it on real runs;
* every executed cell attempt is one record, retried attempts included;
* same-seed aggregates are **byte-identical** with telemetry on vs off.
"""

import json
import time

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, TrialStore, run_cell
from repro.campaign.render import render_markdown, render_result
from repro.obs.telemetry import BUCKETS, Timeline


def tiny_spec(**overrides) -> CampaignSpec:
    base = dict(
        name="telemetry-t",
        attacks=("variant1",),
        repeats=1,
        rounds=2,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class CrashAlways:
    """Fault injector: the cell with this repeat index always raises."""

    def __init__(self, repeat: int) -> None:
        self.repeat = repeat

    def __call__(self, cell):
        if cell.repeat == self.repeat:
            raise RuntimeError("persistent injected crash")
        return run_cell(cell)


# --------------------------------------------------------------------------- #
# synthetic timeline: the partition is exact
# --------------------------------------------------------------------------- #


def synthetic_timeline() -> Timeline:
    """Hand-built timeline with known bucket values.

    wall=10; cells a (3s) and b (4s) → cells 7; store 1.5, backoff 0.5
    measured; unattributed = 10 − 9 = 1.  Coverage 0.9.
    """
    timeline = Timeline(wall_seconds=10.0)
    timeline.add_cell("a", 3.0, ok=True)
    timeline.add_cell("b", 4.0, ok=False)
    timeline.measured["store"] = 1.5
    timeline.measured["backoff"] = 0.5
    return timeline


class TestTimelineAttribution:
    def test_buckets_partition_wall(self):
        timeline = synthetic_timeline()
        buckets = timeline.buckets()
        assert tuple(buckets) == BUCKETS
        assert buckets["cells"] == pytest.approx(7.0)
        assert buckets["store"] == pytest.approx(1.5)
        assert buckets["backoff"] == pytest.approx(0.5)
        assert buckets["unattributed"] == pytest.approx(1.0)
        assert sum(buckets.values()) == pytest.approx(timeline.wall_seconds)

    def test_coverage_is_exact(self):
        attribution = synthetic_timeline().attribution()
        assert attribution["coverage"] == pytest.approx(0.9)
        shares = [entry["share"] for entry in attribution["buckets"].values()]
        assert sum(shares) == pytest.approx(1.0)

    def test_dominant_overhead_excludes_compute(self):
        # the cells (7s) dominate everything, but they are work, not
        # overhead: the largest *overhead* bucket is the 1.5s store.
        assert synthetic_timeline().dominant_overhead() == "store"

    def test_unattributed_clamps_at_zero(self):
        timeline = Timeline(wall_seconds=1.0)
        timeline.add_cell("a", 1.25, ok=True)
        assert timeline.buckets()["unattributed"] == 0.0
        assert timeline.attribution()["coverage"] == 1.0

    def test_timing_adds_the_body_to_its_bucket(self):
        timeline = Timeline()
        with timeline.timing("backoff"):
            time.sleep(0.01)
        with timeline.timing("backoff"):
            pass
        assert timeline.measured["backoff"] >= 0.01
        assert timeline.measured["store"] == 0.0


class TestTimelineRendering:
    def test_as_dict_shape(self):
        data = synthetic_timeline().as_dict()
        assert set(data) == {"attribution", "cells"}
        assert data["cells"] == [
            {"label": "a", "seconds": 3.0, "ok": True},
            {"label": "b", "seconds": 4.0, "ok": False},
        ]
        json.dumps(data)  # must be JSON-serializable as-is

    def test_render_text_mentions_buckets_and_slowest_cell(self):
        text = synthetic_timeline().render_text()
        for name in BUCKETS:
            assert name in text
        assert "coverage 90.0%" in text
        assert "slowest cell: b (4.000s)" in text


# --------------------------------------------------------------------------- #
# campaign integration
# --------------------------------------------------------------------------- #


class TestCampaignTelemetry:
    def test_runner_attaches_timeline(self, tmp_path):
        runner = CampaignRunner(TrialStore(tmp_path / "store"), telemetry=True)
        result = runner.run(tiny_spec())
        assert isinstance(result.telemetry, Timeline)
        assert len(result.telemetry.records) == len(result.outcomes)
        assert result.telemetry.wall_seconds == result.wall_seconds
        assert result.telemetry.measured["store"] > 0
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
        assert "Dominant overhead" in markdown
        assert "| unattributed |" in markdown

    def test_render_omits_section_without_telemetry(self, tmp_path):
        result = CampaignRunner(TrialStore(tmp_path / "store")).run(tiny_spec())
        assert "where the time went:" not in render_result(result)
        assert "Where the time went" not in render_markdown(result)

    def test_cached_rerun_keeps_timeline_empty(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        CampaignRunner(store, telemetry=True).run(tiny_spec())
        rerun = CampaignRunner(store, telemetry=True).run(tiny_spec())
        assert rerun.executed_count == 0
        # every cell came from the cache: nothing was executed
        assert len(rerun.telemetry.records) == 0
        assert rerun.telemetry.measured["cells"] == 0.0

    def test_error_task_recorded_not_ok(self, tmp_path):
        result = CampaignRunner(
            TrialStore(tmp_path / "store"),
            telemetry=True,
            max_attempts=1,
            run_cell_fn=CrashAlways(repeat=0),
        ).run(tiny_spec())
        assert len(result.failed) == 1
        (record,) = result.telemetry.records
        assert not record.ok

    def test_every_retry_attempt_and_its_backoff_are_recorded(self, tmp_path):
        result = CampaignRunner(
            TrialStore(tmp_path / "store"),
            telemetry=True,
            max_attempts=3,
            run_cell_fn=CrashAlways(repeat=0),
        ).run(tiny_spec())
        assert [record.ok for record in result.telemetry.records] == [False] * 3
        # two backoffs between three rounds: 0.1 s, then 0.2 s
        assert result.telemetry.measured["backoff"] >= 0.3
