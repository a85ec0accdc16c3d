"""Tests for the CampaignRunner: caching, resume, retry-with-backoff.

The acceptance contract from the campaign design: re-running a completed
campaign executes zero new cells, and a crashing worker is retried until
the campaign completes with aggregates *byte-identical* to an uninjected
run — the derived per-cell seed makes a healed cell indistinguishable
from an undisturbed one.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.campaign import (
    AxisPoint,
    CampaignRunner,
    CampaignSpec,
    TrialStore,
    campaign_status,
    run_cell,
)


def small_spec(**overrides) -> CampaignSpec:
    base = dict(
        name="runner-t",
        attacks=("variant1",),
        machines=("i7-9700",),
        axes=(AxisPoint(name="baseline"),),
        repeats=2,
        rounds=3,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def canonical(aggregates: dict) -> bytes:
    return json.dumps(aggregates, sort_keys=True, separators=(",", ":")).encode()


class CrashOnce:
    """Fault injector: the repeat-1 cell crashes on its first attempt.

    A marker file records the crash, so a second runner over the same
    directory sees it too.
    """

    def __init__(self, marker_dir: Path) -> None:
        self.marker = Path(marker_dir) / "crashed-once"

    def __call__(self, cell):
        if cell.repeat == 1 and not self.marker.exists():
            self.marker.write_text("injected")
            raise RuntimeError("injected worker crash")
        return run_cell(cell)


class CrashAlways:
    def __init__(self, repeat: int = 1) -> None:
        self.repeat = repeat

    def __call__(self, cell):
        if cell.repeat == self.repeat:
            raise RuntimeError("persistent injected crash")
        return run_cell(cell)


class CrashExperiment:
    """Fault injector: every cell of one experiment crashes."""

    def __init__(self, experiment: str) -> None:
        self.experiment = experiment

    def __call__(self, cell):
        if cell.experiment == self.experiment:
            raise RuntimeError(f"injected {self.experiment} crash")
        return run_cell(cell)


class TestCaching:
    def test_second_run_is_all_cached_and_byte_identical(self, tmp_path):
        spec = small_spec()
        runner = CampaignRunner(TrialStore(tmp_path / "store"))
        first = runner.run(spec)
        assert first.complete
        assert first.executed_count == spec.n_cells
        assert first.cached_count == 0
        second = runner.run(spec)
        assert second.all_cached
        assert second.executed_count == 0
        assert canonical(first.aggregates()) == canonical(second.aggregates())

    def test_cache_shared_across_campaign_names(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        CampaignRunner(store).run(small_spec(name="alpha"))
        result = CampaignRunner(store).run(small_spec(name="beta"))
        assert result.all_cached

    def test_status_tracks_store_contents(self, tmp_path):
        spec = small_spec()
        store = TrialStore(tmp_path / "store")
        before = campaign_status(spec, store)
        assert not before.all_cached
        assert len(before.pending) == spec.n_cells
        CampaignRunner(store).run(spec)
        after = campaign_status(spec, store)
        assert after.all_cached
        assert after.as_dict()["pending"] == 0


class TestImportFootprint:
    def test_campaign_run_does_not_load_a_serving_stack(self, tmp_path):
        """A campaign process needs no event loop and no HTTP client."""
        script = textwrap.dedent(
            f"""
            import sys
            from repro.campaign import AxisPoint, CampaignRunner, CampaignSpec, TrialStore

            spec = CampaignSpec(
                name="footprint", attacks=("variant1",), machines=("i7-9700",),
                axes=(AxisPoint(name="baseline"),), repeats=3, rounds=3,
            )
            result = CampaignRunner(TrialStore({str(tmp_path / "store")!r})).run(spec)
            assert result.complete and result.executed_count == 3, result.as_dict()
            print(sorted({{"asyncio", "http.client"}} & set(sys.modules)))
            """
        )
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert out.stdout.strip() == "[]"


class TestFaultIsolationAndRetry:
    def test_injected_crash_is_retried_to_identical_aggregates(self, tmp_path):
        spec = small_spec()
        clean = CampaignRunner(TrialStore(tmp_path / "clean")).run(spec)
        injected = CampaignRunner(
            TrialStore(tmp_path / "injected"),
            run_cell_fn=CrashOnce(tmp_path),
        ).run(spec)
        assert injected.complete
        crashed = [o for o in injected.outcomes if o.attempts == 2]
        assert len(crashed) == 1
        assert crashed[0].cell.repeat == 1
        assert canonical(clean.aggregates()) == canonical(injected.aggregates())

    def test_sibling_cells_survive_a_crashing_cell(self, tmp_path):
        spec = small_spec()
        result = CampaignRunner(
            TrialStore(tmp_path / "store"),
            run_cell_fn=CrashAlways(),
            max_attempts=2,
        ).run(spec)
        assert not result.complete
        assert result.executed_count == spec.n_cells - 1
        (failed,) = result.failed
        assert failed.attempts == 2
        assert "persistent injected crash" in failed.error
        assert "persistent injected crash" in failed.error_summary

    def test_failing_cell_does_not_change_sibling_aggregates(self, tmp_path):
        spec = small_spec(attacks=("variant1", "sgx"), repeats=2)
        clean = CampaignRunner(TrialStore(tmp_path / "clean")).run(spec)
        dirty = CampaignRunner(
            TrialStore(tmp_path / "dirty"),
            run_cell_fn=CrashExperiment("sgx"),
            max_attempts=1,
        ).run(spec)
        label = "variant1/i7-9700/baseline"
        assert set(dirty.aggregates()) == {label}
        assert canonical(clean.aggregates()[label]) == canonical(dirty.aggregates()[label])

    def test_failed_cell_resumes_on_next_invocation(self, tmp_path):
        spec = small_spec()
        store = TrialStore(tmp_path / "store")
        broken = CampaignRunner(
            store, run_cell_fn=CrashAlways(), max_attempts=1
        ).run(spec)
        assert len(broken.failed) == 1
        healed = CampaignRunner(store).run(spec)
        assert healed.complete
        assert healed.cached_count == spec.n_cells - 1
        assert healed.executed_count == 1

    def test_resumed_campaign_matches_uninterrupted_run(self, tmp_path):
        spec = small_spec()
        clean = CampaignRunner(TrialStore(tmp_path / "clean")).run(spec)
        store = TrialStore(tmp_path / "resumed")
        CampaignRunner(
            store, run_cell_fn=CrashAlways(), max_attempts=1
        ).run(spec)
        resumed = CampaignRunner(store).run(spec)
        assert canonical(clean.aggregates()) == canonical(resumed.aggregates())

    def test_corrupted_store_record_is_re_executed(self, tmp_path):
        spec = small_spec(repeats=1)
        store = TrialStore(tmp_path / "store")
        CampaignRunner(store).run(spec)
        (shard,) = list((tmp_path / "store" / "shards").iterdir())
        shard.write_text(shard.read_text()[:40])  # truncate the record
        rerun = CampaignRunner(TrialStore(tmp_path / "store")).run(spec)
        assert rerun.complete
        assert rerun.executed_count == 1


class TestResultViews:
    def test_repeats_merge_into_one_group(self, tmp_path):
        spec = small_spec(repeats=2, rounds=3)
        result = CampaignRunner(TrialStore(tmp_path / "store")).run(spec)
        merged = result.merged()
        assert set(merged) == {"variant1/i7-9700/baseline"}
        batch = merged["variant1/i7-9700/baseline"]
        assert batch.n_trials == sum(
            o.batch.n_trials for o in result.outcomes if o.batch
        )
        assert batch.notes["merged_batches"] == 2

    def test_as_dict_is_json_serializable(self, tmp_path):
        result = CampaignRunner(TrialStore(tmp_path / "store")).run(small_spec())
        json.dumps(result.as_dict())


class TestValidation:
    def test_unknown_experiment_rejected(self, tmp_path):
        runner = CampaignRunner(TrialStore(tmp_path / "store"))
        with pytest.raises(ValueError, match="unknown experiment"):
            runner.run(small_spec(attacks=("rowhammer",)))

    def test_unknown_option_rejected_before_any_cell(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        runner = CampaignRunner(store)
        for options in ({"variant1": {"rounds": 3}}, {"table1": {"max_ofset": 2}}):
            attacks = tuple(options)
            with pytest.raises(ValueError, match="takes no option"):
                runner.run(small_spec(attacks=attacks, options=options))
        assert list(store.keys()) == []
        # An option table for an experiment the spec does not list is kept:
        # `--attacks` shrinks builtin specs without editing their options.
        result = runner.run(small_spec(repeats=1, options={"covert": {"nope": 1}}))
        assert result.complete

    def test_option_of_wrong_type_rejected_before_any_cell(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        runner = CampaignRunner(store)
        for options in ({"covert": {"entries": "4"}}, {"table1": {"max_offset": 2.0}},
                        {"rsa": {"all_bits": 1}}):
            with pytest.raises(ValueError, match="must be"):
                runner.run(small_spec(attacks=tuple(options), options=options))
        assert list(store.keys()) == []

    def test_bad_runner_parameters_rejected(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        for jobs in (0, 2):
            with pytest.raises(ValueError, match="--shard"):
                CampaignRunner(store, jobs=jobs)
        with pytest.raises(ValueError, match="max_attempts"):
            CampaignRunner(store, max_attempts=0)
