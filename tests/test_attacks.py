"""Tests for the repro.attacks registry and trial schema.

The completeness contract: every registered attack runs end-to-end —
traced AND sanitized — and every consumer surface (CLI subcommands,
report rows, lint rule RL012's covers) stays in sync with the registry.
"""

import argparse
import json

import pytest

from repro.attacks import (
    TrialBatch,
    attack_names,
    get_attack,
    registered_covers,
    run_trials,
)
from repro.campaign import AxisPoint, CampaignRunner, CampaignSpec, TrialStore, run_cell
from repro.params import preset

PARAMS = preset("i7-9700")
SEED = 2023


class TestRegistry:
    def test_all_eight_attacks_registered(self):
        assert set(attack_names()) == {
            "variant1",
            "variant1-thread",
            "variant2",
            "covert",
            "sgx",
            "switch-leak",
            "rsa",
            "tracker",
        }

    def test_get_attack_unknown_name(self):
        with pytest.raises(ValueError, match="unknown attack"):
            get_attack("rowhammer")

    def test_specs_have_descriptions_and_rounds(self):
        for name in attack_names():
            spec = get_attack(name)
            assert spec.name == name
            assert spec.description
            assert spec.default_rounds > 0

    def test_covers_includes_every_core_attack_class(self):
        # Mirrors lint rule RL012: the classes defining attack entry-point
        # methods in repro/core must all be claimed by some spec.
        assert registered_covers() >= {
            "Variant1CrossThread",
            "Variant1CrossProcess",
            "Variant2UserKernel",
            "CovertChannel",
            "SGXControlFlowAttack",
            "SGXCovertChannel",
            "SwitchCaseLeak",
            "TimingConstantRSAAttack",
            "LoadTimingTracker",
        }

    def test_leakcheck_victim_links_resolve(self):
        from repro.leakcheck import get_victim

        for name in attack_names():
            victim = get_attack(name).leakcheck_victim
            if victim is not None:
                assert get_victim(victim) is not None


class TestCompleteness:
    """Every registered attack runs end-to-end, traced and sanitized."""

    @pytest.mark.parametrize("name", attack_names())
    def test_runs_traced_and_sanitized(self, name):
        batch = run_trials(
            name, PARAMS, seed=SEED, rounds=2, trace=True, sanitize=True
        )
        assert isinstance(batch, TrialBatch)
        assert batch.attack == name
        assert batch.n_trials >= 2
        assert 0.0 <= batch.quality <= 1.0
        assert batch.detail
        assert batch.simulated_cycles > 0
        assert "total" in batch.spans
        assert batch.metrics["machine.cycles"] > 0
        for trial in batch.trials:
            assert trial.success == (trial.true_outcome == trial.inferred_outcome)
        # The serializable view must actually serialize (payloads excluded).
        json.dumps(batch.as_dict())

    @pytest.mark.parametrize("name", attack_names())
    def test_same_seed_same_batch(self, name):
        a = run_trials(name, PARAMS, seed=SEED, rounds=2)
        b = run_trials(name, PARAMS, seed=SEED, rounds=2)
        assert [t.as_dict() for t in a.trials] == [t.as_dict() for t in b.trials]
        assert a.simulated_cycles == b.simulated_cycles
        assert a.quality == b.quality


class TestConsumerSync:
    def test_report_rows_match_registry(self):
        from repro.analysis.report import ATTACK_ROWS

        assert set(ATTACK_ROWS) == set(attack_names())

    def test_cli_trace_metrics_choices_match_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command in ("trace", "metrics", "run"):
            attack_action = next(
                a for a in sub.choices[command]._actions if a.dest == "attack"
            )
            assert set(attack_action.choices) == set(attack_names())


class CrashExperiment:
    """Picklable fault injector: every cell of one experiment raises."""

    def __init__(self, experiment: str) -> None:
        self.experiment = experiment

    def __call__(self, cell):
        if cell.experiment == self.experiment:
            raise RuntimeError(f"injected {self.experiment} crash")
        return run_cell(cell)


class TestExecutorFaultIsolation:
    """One raising cell does not abort the run or discard its siblings'
    batches — it comes back as a failed outcome, in-process and in a pool."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_good_cells_survive_a_failing_cell(self, tmp_path, jobs):
        spec = CampaignSpec(
            name="fault-isolation",
            attacks=("variant1", "sgx"),
            machines=("i7-9700",),
            axes=(AxisPoint(name="baseline"),),
            repeats=2,
            rounds=2,
        )
        result = CampaignRunner(
            TrialStore(tmp_path / "store"),
            jobs=jobs,
            run_cell_fn=CrashExperiment("sgx"),
            max_attempts=1,
        ).run(spec)
        assert not result.complete
        assert [o.cell.experiment for o in result.failed] == ["sgx", "sgx"]
        assert result.executed_count == 2
        assert set(result.merged()) == {"variant1/i7-9700/baseline"}
        errors = [o["error"] for o in result.as_dict()["outcomes"] if o["error"]]
        assert errors == ["RuntimeError: injected sgx crash"] * 2


class TestTrialBatchMerge:
    def test_merge_recomputes_success_rate(self):
        a = run_trials("variant1", PARAMS, seed=1, rounds=3)
        b = run_trials("variant1", PARAMS, seed=2, rounds=3)
        merged = TrialBatch.merge([a, b])
        assert merged.n_trials == a.n_trials + b.n_trials
        assert merged.quality == merged.success_rate
        assert merged.simulated_cycles == a.simulated_cycles + b.simulated_cycles
        assert merged.spans["total"]["cycles"] == (
            a.spans["total"]["cycles"] + b.spans["total"]["cycles"]
        )
        assert merged.notes == {
            "merged_batches": 2,
            "merged_seeds": [1, 2],
            "merged_machines": ["i7-9700"],
        }

    def test_merge_refuses_mixed_attacks(self):
        a = run_trials("variant1", PARAMS, seed=1, rounds=2)
        b = run_trials("sgx", PARAMS, seed=1, rounds=2)
        with pytest.raises(ValueError, match="different attacks"):
            TrialBatch.merge([a, b])

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            TrialBatch.merge([])

    def test_merge_single_batch_passthrough(self):
        a = run_trials("sgx", PARAMS, seed=1, rounds=2)
        assert TrialBatch.merge([a]) is a


class TestTrialBatchRoundTrip:
    """Satellite contract: ``from_dict(as_dict())`` preserves every
    aggregate for all eight attacks; payloads are documented as lost."""

    @pytest.mark.parametrize("name", attack_names())
    def test_round_trip_preserves_aggregates(self, name):
        batch = run_trials(name, PARAMS, seed=SEED, rounds=2)
        # The store's actual path: dict → JSON → dict → batch → dict.
        over_the_wire = json.loads(json.dumps(batch.as_dict()))
        restored = TrialBatch.from_dict(over_the_wire)
        assert restored.attack == batch.attack
        assert restored.seed == batch.seed
        assert restored.machine == batch.machine
        assert restored.n_trials == batch.n_trials
        assert restored.successes == batch.successes
        assert restored.success_rate == batch.success_rate
        assert restored.quality == batch.quality
        assert restored.detail == batch.detail
        assert restored.simulated_cycles == batch.simulated_cycles
        assert json.loads(json.dumps(restored.as_dict())) == over_the_wire
        # The one deliberate loss: per-trial rich result objects.
        assert all(trial.payload is None for trial in restored.trials)

    def test_merged_batch_round_trips(self):
        merged = TrialBatch.merge(
            [
                run_trials("variant1", PARAMS, seed=1, rounds=2),
                run_trials("variant1", PARAMS, seed=2, rounds=2),
            ]
        )
        restored = TrialBatch.from_dict(json.loads(json.dumps(merged.as_dict())))
        assert restored.notes["merged_seeds"] == [1, 2]
        assert restored.quality == merged.quality
