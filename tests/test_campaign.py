"""Tests for repro.campaign specs: cell expansion, content keys, seeds.

The cache-key contract under test: a cell key covers *everything that
determines the result* (experiment, rounds, options, defense, machine
fingerprint, derived seed) and *nothing presentational* (campaign name,
axis display name) — so renaming never invalidates a cache, and no
model-parameter change can ever be served a stale batch.
"""

import dataclasses
import json

import pytest

from repro.campaign import (
    BUILTIN_CAMPAIGNS,
    AxisPoint,
    CampaignSpec,
    builtin_campaign,
    cell_seed,
    experiment_names,
    load_spec,
    params_fingerprint,
    run_cell,
)
from repro.params import preset

PARAMS = preset("i7-9700")


def small_spec(**overrides) -> CampaignSpec:
    base = dict(
        name="t",
        attacks=("variant1", "covert"),
        machines=("i7-9700",),
        axes=(AxisPoint(name="baseline"), AxisPoint(name="noisy", noise=(("timing_sigma", 5.0),))),
        repeats=2,
        rounds=3,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestSpecExpansion:
    def test_n_cells_is_full_cross_product(self):
        spec = small_spec()
        cells = spec.cells()
        assert spec.n_cells == 2 * 1 * 2 * 2 == len(cells)

    def test_cells_are_deterministic(self):
        a = [(c.key, c.seed, c.label) for c in small_spec().cells()]
        b = [(c.key, c.seed, c.label) for c in small_spec().cells()]
        assert a == b

    def test_keys_are_unique(self):
        keys = [c.key for c in small_spec().cells()]
        assert len(set(keys)) == len(keys)

    def test_seeds_are_unique_across_coordinates(self):
        seeds = [c.seed for c in small_spec().cells()]
        assert len(set(seeds)) == len(seeds)

    def test_axis_noise_applied_to_params(self):
        cells = small_spec().cells()
        noisy = [c for c in cells if c.axis.name == "noisy"]
        base = [c for c in cells if c.axis.name == "baseline"]
        assert all(c.params.noise.timing_sigma == 5.0 for c in noisy)
        assert all(c.params.noise.timing_sigma == PARAMS.noise.timing_sigma for c in base)


class TestCellKey:
    def test_key_ignores_campaign_name(self):
        a = {c.key for c in small_spec(name="alpha").cells()}
        b = {c.key for c in small_spec(name="beta").cells()}
        assert a == b

    def test_key_ignores_axis_display_name(self):
        renamed = (
            AxisPoint(name="quiet-base"),
            AxisPoint(name="sigma5", noise=(("timing_sigma", 5.0),)),
        )
        a = {c.key for c in small_spec().cells()}
        b = {c.key for c in small_spec(axes=renamed).cells()}
        assert a == b

    def test_key_changes_with_rounds(self):
        a = {c.key for c in small_spec(rounds=3).cells()}
        b = {c.key for c in small_spec(rounds=4).cells()}
        assert a.isdisjoint(b)

    def test_key_changes_with_base_seed(self):
        a = {c.key for c in small_spec(base_seed=1).cells()}
        b = {c.key for c in small_spec(base_seed=2).cells()}
        assert a.isdisjoint(b)

    def test_key_changes_with_options(self):
        a = {c.key for c in small_spec().cells()}
        b = {c.key for c in small_spec(options={"covert": {"entries": 4}}).cells()}
        assert a != b

    def test_key_changes_with_defense(self):
        base = (AxisPoint(name="x"),)
        defended = (AxisPoint(name="x", defense="tagged"),)
        a = {c.key for c in small_spec(axes=base).cells()}
        b = {c.key for c in small_spec(axes=defended).cells()}
        assert a.isdisjoint(b)

    def test_fingerprint_tracks_any_machine_field(self):
        assert params_fingerprint(PARAMS) != params_fingerprint(
            dataclasses.replace(PARAMS, dram_latency=PARAMS.dram_latency + 1)
        )
        assert params_fingerprint(PARAMS) != params_fingerprint(
            PARAMS.with_noise(timing_sigma=9.9)
        )
        assert params_fingerprint(PARAMS) == params_fingerprint(preset("i7-9700"))

    def test_seed_mixes_axis_content_not_label(self):
        a = AxisPoint(name="label-a", defense="tagged")
        b = AxisPoint(name="label-b", defense="tagged")
        c = AxisPoint(name="label-a", defense="disabled")
        assert cell_seed(1, "variant1", "i7-9700", a, 0) == cell_seed(
            1, "variant1", "i7-9700", b, 0
        )
        assert cell_seed(1, "variant1", "i7-9700", a, 0) != cell_seed(
            1, "variant1", "i7-9700", c, 0
        )


class TestValidation:
    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError, match="unknown defense"):
            AxisPoint(name="x", defense="prayer")

    def test_unknown_noise_field_rejected(self):
        with pytest.raises(ValueError, match="unknown noise field"):
            AxisPoint(name="x", noise=(("jitterbug", 1),))

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis"):
            small_spec(axes=(AxisPoint(name="a"), AxisPoint(name="a", defense="tagged")))

    def test_duplicate_attacks_rejected(self):
        # Two cells with one key and seed would double-count their trials.
        with pytest.raises(ValueError, match="duplicate attack"):
            small_spec(attacks=("variant1", "variant1"))

    def test_duplicate_machines_rejected(self):
        with pytest.raises(ValueError, match="duplicate machine"):
            small_spec(machines=("i7-9700", "i7-9700"))

    def test_empty_attacks_rejected(self):
        with pytest.raises(ValueError, match="no attacks"):
            small_spec(attacks=())

    def test_nonpositive_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            small_spec(repeats=0)

    def test_unknown_machine_rejected(self):
        with pytest.raises(KeyError, match="unknown machine preset"):
            small_spec(machines=("pentium-3",))


class TestSerialization:
    def test_spec_round_trips_through_dict(self):
        spec = small_spec(options={"covert": {"entries": 2}}, description="d")
        assert CampaignSpec.from_dict(spec.as_dict()) == spec

    def test_load_json_spec(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(spec.as_dict()))
        assert load_spec(path) == spec

    def test_load_toml_spec(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "c.toml"
        path.write_text(
            'name = "toml-sweep"\n'
            'attacks = ["variant1"]\n'
            "repeats = 2\n"
            "rounds = 4\n"
            "[[axes]]\n"
            'name = "baseline"\n'
            "[[axes]]\n"
            'name = "flushed"\n'
            'defense = "flush-on-switch"\n'
        )
        spec = load_spec(path)
        assert spec.name == "toml-sweep"
        assert spec.axes[1].defense == "flush-on-switch"
        assert spec.n_cells == 4

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("name: nope")
        with pytest.raises(ValueError, match="unknown campaign spec format"):
            load_spec(path)


class TestBuiltins:
    def test_three_builtins_registered(self):
        assert set(BUILTIN_CAMPAIGNS) == {
            "revng-table1",
            "attacks-vs-noise",
            "defense-matrix",
        }

    def test_builtin_experiments_all_known(self):
        known = set(experiment_names())
        for spec in BUILTIN_CAMPAIGNS.values():
            assert set(spec.attacks) <= known

    def test_unknown_builtin_raises(self):
        with pytest.raises(KeyError, match="unknown builtin campaign"):
            builtin_campaign("moonshot")


class TestTable1Experiment:
    def test_run_cell_scores_against_paper_table(self):
        spec = CampaignSpec(name="t1", attacks=("table1",), repeats=1)
        (cell,) = spec.cells()
        batch = run_cell(cell)
        assert batch.attack == "table1"
        assert batch.n_trials > 0
        assert batch.quality == batch.success_rate
        assert batch.notes["campaign_cell"]["key"] == cell.key
        assert len(batch.notes["rows"]) == batch.n_trials

    def test_table1_rejects_defenses(self):
        spec = CampaignSpec(
            name="t1",
            attacks=("table1",),
            axes=(AxisPoint(name="d", defense="tagged"),),
        )
        (cell,) = spec.cells()
        with pytest.raises(ValueError, match="cannot apply defense"):
            run_cell(cell)
