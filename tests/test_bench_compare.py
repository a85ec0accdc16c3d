"""Tests for the bench regression gate (`afterimage bench compare`).

The gate's contract: self-compare of a valid artifact exits 0, an
injected regression exits 1, incomparable pairs (kind/schema/machine
mismatch, missing provenance, unreadable files) are *refused* with exit
2 rather than silently diffed, and the CLI wires those exit codes
through unchanged.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.bench import (
    EXIT_OK,
    EXIT_REGRESSION,
    EXIT_USAGE,
    compare_documents,
    compare_files,
)
from repro.bench.compare import artifact_kind
from repro.bench.provenance import identity, provenance

SRC = str(Path(__file__).resolve().parent.parent / "src")


def stamped(doc: dict) -> dict:
    return {**doc, "provenance": provenance()}


def telemetry_doc(**overrides) -> dict:
    doc = stamped(
        {
            "schema": 1,
            "kind": "telemetry",
            "speedup": 1.6,
            "serial_wall_seconds": 10.0,
            "parallel_wall_seconds": 6.25,
            "telemetry_overhead_ratio": 0.01,
            "telemetry_overhead_bound": 0.05,
            "aggregates_identical": True,
            "attribution": {"coverage": 1.0},
        }
    )
    doc.update(overrides)
    return doc


def attacks_doc(**overrides) -> dict:
    doc = stamped(
        {
            "schema": 3,
            "kind": "attacks",
            "speedup": 1.5,
            "serial_wall_seconds": 8.0,
            "parallel_wall_seconds": 5.3,
            "aggregates_identical": True,
            "per_attack": {
                "variant1": {"quality": 0.97, "n_trials": 40, "simulated_cycles": 1000},
            },
        }
    )
    doc.update(overrides)
    return doc


def obs_doc(**overrides) -> dict:
    doc = stamped(
        {
            "schema": 3,
            "kind": "obs",
            "results": [
                {
                    "attack": "variant1",
                    "simulated_cycles": 1000,
                    "quality": 0.97,
                    "rounds": 50,
                    "wall_seconds": 1.0,
                }
            ],
        }
    )
    doc.update(overrides)
    return doc


def serve_doc(**overrides) -> dict:
    doc = stamped(
        {
            "schema": 2,
            "kind": "serve",
            "campaign": "attacks-vs-noise",
            "cold_aggregate_seconds": 0.006,
            "warm_aggregate_p50_seconds": 0.002,
            "warm_aggregate_p99_seconds": 0.004,
            "revalidate_p50_seconds": 0.001,
            "warm_budget_seconds": 0.010,
            "concurrent": {"p50_seconds": 0.02, "p99_seconds": 0.05},
            "cache": {"hit_ratio": 0.95},
            "verification": {
                "aggregate_complete": True,
                "warm_under_budget": True,
                "etag_revalidates": True,
            },
        }
    )
    doc.update(overrides)
    return doc


class TestArtifactKind:
    def test_kind_field_wins(self):
        assert artifact_kind({"kind": "telemetry"}) == "telemetry"
        assert artifact_kind({"kind": "retired", "results": []}) is None
        assert artifact_kind({"kind": "serve"}) == "serve"

    def test_load_bearing_keys(self):
        assert artifact_kind({"telemetry_overhead_ratio": 0.0}) == "telemetry"
        assert artifact_kind({"serial_wall_seconds": 1.0}) == "attacks"
        assert artifact_kind({"cold_wall_seconds": 1.0}) == "campaign"
        assert artifact_kind({"results": []}) == "obs"
        assert artifact_kind({"warm_aggregate_p50_seconds": 0.002}) == "serve"

    def test_unrecognized(self):
        assert artifact_kind({"foo": 1}) is None
        assert artifact_kind([]) is None


class TestSelfCompare:
    def test_telemetry_self_compare_ok(self):
        doc = telemetry_doc()
        report = compare_documents(doc, doc)
        assert report.refusal is None
        assert report.exit_code == EXIT_OK
        assert report.regressions == []

    def test_attacks_self_compare_ok(self):
        doc = attacks_doc()
        assert compare_documents(doc, doc).exit_code == EXIT_OK

    def test_obs_self_compare_ok(self):
        doc = obs_doc()
        assert compare_documents(doc, doc).exit_code == EXIT_OK

    def test_serve_self_compare_ok(self):
        doc = serve_doc()
        report = compare_documents(doc, doc)
        assert report.refusal is None
        assert report.exit_code == EXIT_OK
        assert report.regressions == []

    def test_committed_serve_artifact_self_compares(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
        if not path.exists():
            return
        doc = json.loads(path.read_text())
        assert compare_documents(doc, doc).exit_code == EXIT_OK


class TestRegressions:
    def test_speedup_regression(self):
        report = compare_documents(telemetry_doc(), telemetry_doc(speedup=1.0))
        assert report.exit_code == EXIT_REGRESSION
        assert any(f.field == "speedup" for f in report.regressions)

    def test_speedup_within_tolerance_passes(self):
        # default tolerance 25%: 1.6 → 1.3 is an allowed wobble
        report = compare_documents(telemetry_doc(), telemetry_doc(speedup=1.3))
        assert report.exit_code == EXIT_OK

    def test_overhead_over_bound_regression(self):
        report = compare_documents(
            telemetry_doc(), telemetry_doc(telemetry_overhead_ratio=0.12)
        )
        assert report.exit_code == EXIT_REGRESSION
        assert any(
            f.field == "telemetry_overhead_ratio" for f in report.regressions
        )

    def test_aggregates_flag_must_hold(self):
        report = compare_documents(
            telemetry_doc(), telemetry_doc(aggregates_identical=False)
        )
        assert report.exit_code == EXIT_REGRESSION

    def test_coverage_drop_regression(self):
        report = compare_documents(
            telemetry_doc(), telemetry_doc(attribution={"coverage": 0.7})
        )
        assert report.exit_code == EXIT_REGRESSION

    def test_obs_cycle_drift_is_exact(self):
        current = obs_doc()
        current["results"][0]["simulated_cycles"] = 1001
        report = compare_documents(obs_doc(), current)
        assert report.exit_code == EXIT_REGRESSION

    def test_per_attack_missing_in_current(self):
        current = attacks_doc(per_attack={})
        report = compare_documents(attacks_doc(), current)
        assert report.exit_code == EXIT_REGRESSION
        assert any(f.current == "missing" for f in report.regressions)

    def test_serve_latency_blowup_regression(self):
        report = compare_documents(
            serve_doc(), serve_doc(warm_aggregate_p50_seconds=0.004)
        )
        assert report.exit_code == EXIT_REGRESSION
        assert any(
            "warm_aggregate_p50_seconds" == f.field for f in report.regressions
        )

    def test_serve_budget_is_absolute_not_relative(self):
        # Within tolerance of the (slow) baseline but over the 10 ms
        # budget: the absolute contract must still fail it.
        baseline = serve_doc(
            warm_aggregate_p50_seconds=0.011,
            verification={
                "aggregate_complete": True,
                "warm_under_budget": False,
                "etag_revalidates": True,
            },
        )
        report = compare_documents(baseline, baseline)
        fields = {f.field for f in report.regressions}
        assert "warm_aggregate_p50_seconds.budget" in fields
        assert "verification.warm_under_budget" in fields

    def test_serve_cache_ratio_drop_regression(self):
        report = compare_documents(serve_doc(), serve_doc(cache={"hit_ratio": 0.5}))
        assert report.exit_code == EXIT_REGRESSION

    def test_serve_revalidation_flag_must_hold(self):
        broken = serve_doc(
            verification={
                "aggregate_complete": True,
                "warm_under_budget": True,
                "etag_revalidates": False,
            }
        )
        report = compare_documents(serve_doc(), broken)
        assert any(
            f.field == "verification.etag_revalidates" for f in report.regressions
        )

    def test_wall_seconds_blowup_regression(self):
        report = compare_documents(
            telemetry_doc(), telemetry_doc(parallel_wall_seconds=20.0)
        )
        assert report.exit_code == EXIT_REGRESSION


class TestRefusals:
    def test_kind_mismatch(self):
        report = compare_documents(telemetry_doc(), attacks_doc())
        assert report.exit_code == EXIT_USAGE
        assert "kinds differ" in report.refusal

    def test_schema_mismatch(self):
        report = compare_documents(telemetry_doc(), telemetry_doc(schema=2))
        assert report.exit_code == EXIT_USAGE
        assert "schema versions differ" in report.refusal

    def test_unrecognized_artifact(self):
        report = compare_documents({"foo": 1}, telemetry_doc())
        assert report.exit_code == EXIT_USAGE
        assert "unrecognized" in report.refusal

    def test_missing_provenance_refused(self):
        bare = telemetry_doc()
        del bare["provenance"]
        report = compare_documents(bare, telemetry_doc())
        assert report.exit_code == EXIT_USAGE
        assert "--allow-cross-machine" in report.refusal

    def test_cross_machine_refused_with_field_diff(self):
        other = telemetry_doc()
        other["provenance"]["hostname"] = "some-other-box"
        report = compare_documents(telemetry_doc(), other)
        assert report.exit_code == EXIT_USAGE
        assert "hostname" in report.refusal
        assert "--allow-cross-machine" in report.refusal

    def test_allow_cross_machine_proceeds(self):
        other = telemetry_doc()
        other["provenance"]["hostname"] = "some-other-box"
        report = compare_documents(
            telemetry_doc(), other, allow_cross_machine=True
        )
        assert report.refusal is None
        assert report.exit_code == EXIT_OK

    def test_unreadable_file_refused(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(telemetry_doc()))
        report = compare_files(str(tmp_path / "missing.json"), str(good))
        assert report.exit_code == EXIT_USAGE
        assert "cannot load" in report.refusal

    def test_malformed_json_refused(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(telemetry_doc()))
        assert compare_files(str(bad), str(good)).exit_code == EXIT_USAGE


class TestProvenance:
    def test_stamp_fields(self):
        stamp = provenance()
        for key in ("git_rev", "timestamp", "python", "platform", "hostname", "cpu_count"):
            assert key in stamp

    def test_identity_slice(self):
        ident = identity(provenance())
        assert set(ident) == {"hostname", "platform", "python", "cpu_count"}
        assert identity(None) is None
        assert identity("nope") is None

    def test_committed_artifacts_are_stamped(self):
        """Every BENCH_*.json in the repo must carry a provenance stamp."""
        repo = Path(__file__).resolve().parent.parent
        artifacts = sorted(repo.glob("BENCH_*.json"))
        assert artifacts, "expected committed BENCH_*.json baselines"
        for path in artifacts:
            doc = json.loads(path.read_text())
            assert identity(doc.get("provenance")) is not None, path.name
            assert "schema" in doc, path.name


class TestCompareReport:
    def test_render_text_verdicts(self):
        doc = telemetry_doc()
        ok_text = compare_documents(doc, doc).render_text()
        assert "no regressions" in ok_text
        bad = compare_documents(doc, telemetry_doc(speedup=0.5)).render_text()
        assert "FAIL" in bad and "regression(s)" in bad
        refused = compare_documents(doc, attacks_doc()).render_text()
        assert refused.startswith("bench compare: REFUSED")

    def test_as_dict_shape(self):
        report = compare_documents(telemetry_doc(), telemetry_doc(speedup=0.5))
        data = report.as_dict()
        assert data["kind"] == "telemetry"
        assert data["regressions"] >= 1
        json.dumps(data)


class TestCli:
    def run_cli(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", "bench", "compare", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )

    def test_cli_self_compare_exit_zero(self, tmp_path):
        path = tmp_path / "BENCH_telemetry.json"
        path.write_text(json.dumps(telemetry_doc()))
        proc = self.run_cli(str(path), str(path))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "no regressions" in proc.stdout

    def test_cli_regression_exit_one(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(telemetry_doc()))
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(telemetry_doc(speedup=0.5)))
        proc = self.run_cli(str(base), str(cur))
        assert proc.returncode == EXIT_REGRESSION
        assert "FAIL" in proc.stdout

    def test_cli_refusal_exit_two(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(telemetry_doc()))
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(attacks_doc()))
        proc = self.run_cli(str(base), str(cur))
        assert proc.returncode == EXIT_USAGE
        assert "REFUSED" in proc.stdout

    def test_cli_json_format(self, tmp_path):
        path = tmp_path / "BENCH_telemetry.json"
        path.write_text(json.dumps(telemetry_doc()))
        proc = self.run_cli(str(path), str(path), "--format", "json")
        assert proc.returncode == EXIT_OK
        data = json.loads(proc.stdout)
        assert data["kind"] == "telemetry"
        assert data["refusal"] is None
