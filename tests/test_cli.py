"""Tests for the `afterimage` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_is_default(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "mitigation" in out

    def test_unknown_machine_rejected(self):
        with pytest.raises(KeyError):
            main(["--machine", "pentium-3", "fig06"])

    def test_all_commands_registered(self):
        parser = build_parser()
        # argparse stores subparsers choices on the action.
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        for name in ("fig06", "fig07", "table1", "fig08", "variant1", "variant2",
                     "covert", "rsa", "sgx", "tracker", "ttest", "mitigation",
                     "trace", "metrics", "run"):
            assert name in sub.choices


class TestCommands:
    def test_fig06(self, capsys):
        assert main(["fig06"]) == 0
        out = capsys.readouterr().out
        assert "matched_bits" in out
        assert "hit" in out and "miss" in out

    def test_fig07(self, capsys):
        assert main(["fig07"]) == 0
        out = capsys.readouterr().out
        assert "7a" in out and "7b" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "recl" in out and "lock" in out

    def test_fig08(self, capsys):
        assert main(["fig08"]) == 0
        out = capsys.readouterr().out
        assert "26 inputs" in out and "Figure 8b" in out

    def test_variant1_small(self, capsys):
        assert main(["--seed", "3", "variant1", "--rounds", "10"]) == 0
        out = capsys.readouterr().out
        assert "success rate" in out

    def test_covert_small(self, capsys):
        assert main(["covert", "--rounds", "5"]) == 0
        out = capsys.readouterr().out
        assert "bps" in out

    def test_sgx(self, capsys):
        assert main(["sgx"]) == 0
        out = capsys.readouterr().out
        assert "inferred 0" in out and "inferred 1" in out

    def test_tracker(self, capsys):
        assert main(["tracker"]) == 0
        out = capsys.readouterr().out
        assert "key-load" in out

    def test_rsa_small(self, capsys):
        assert main(["rsa", "--bits", "64"]) == 0
        out = capsys.readouterr().out
        assert "exact: True" in out

    def test_ttest(self, capsys):
        assert main(["ttest"]) == 0
        out = capsys.readouterr().out
        assert "t accurate" in out

    def test_haswell_machine_selectable(self, capsys):
        assert main(["--machine", "i7-4770", "fig06"]) == 0
        assert "matched_bits" in capsys.readouterr().out


class TestObservability:
    def test_trace_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        assert main(["trace", "variant1", "--rounds", "3", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "TableTransition" in stdout and "wrote" in stdout
        data = json.loads(out.read_text())
        names = {record["name"] for record in data["traceEvents"]}
        assert {"LoadTraced", "TableTransition", "train"} <= names

    def test_metrics_text(self, capsys):
        assert main(["metrics", "covert", "--rounds", "5"]) == 0
        out = capsys.readouterr().out
        assert "machine.cycles" in out
        assert "ip_stride.prefetches_issued" in out
        assert "span" in out  # profiler table rides along

    def test_metrics_json(self, capsys):
        assert main(["metrics", "covert", "--rounds", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run"]["name"] == "covert"
        assert payload["metrics"]["machine.cycles"] > 0
        assert "total" in payload["run"]["spans"]

    def test_trace_rejects_unknown_attack(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "nonexistent"])
        capsys.readouterr()


class TestRun:
    def test_run_single_attack(self, capsys):
        assert main(["run", "sgx", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "sgx" in out and "jobs=1" in out

    def test_run_suite_parallel_json(self, capsys):
        assert main(["run", "--suite", "--rounds", "2", "--jobs", "2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] == 2
        assert len(payload["merged"]) == 8
        for batch in payload["merged"].values():
            assert batch["n_trials"] >= 2

    def test_run_without_attack_or_suite_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])
        capsys.readouterr()

    def test_run_repeats_merge(self, capsys):
        assert main(["run", "tracker", "--rounds", "1", "--repeats", "2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["merged"]["tracker"]["n_trials"] == 2


class TestReport:
    def test_report_quick(self, capsys):
        assert main(["report", "--quick", "--rounds", "20"]) == 0
        out = capsys.readouterr().out
        assert "reproduction report" in out
        assert "out of band" not in out
        assert out.count("reproduced") >= 8

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--quick", "--rounds", "20", "-o", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "| experiment |" in target.read_text()


class TestCampaign:
    def run_args(self, tmp_path, *extra):
        return [
            "campaign", *extra,
            "--store", str(tmp_path / "store"),
            "--attacks", "variant1",
            "--repeats", "1",
            "--rounds", "3",
        ]

    def test_campaign_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("revng-table1", "attacks-vs-noise", "defense-matrix"):
            assert name in out

    def test_campaign_without_name_errors(self, capsys):
        assert main(["campaign", "run"]) == 2
        assert "specify a builtin campaign" in capsys.readouterr().err

    def test_campaign_run_twice_second_all_cached(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path, "run", "attacks-vs-noise")) == 0
        first = capsys.readouterr().out
        assert "0 cached, 3 executed" in first
        assert main(
            self.run_args(tmp_path, "run", "attacks-vs-noise") + ["--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cached"] == payload["n_cells"] == 3
        assert payload["executed"] == 0
        assert payload["complete"] is True

    def test_campaign_status(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path, "status", "defense-matrix")) == 0
        out = capsys.readouterr().out
        assert "0/4 cells cached" in out
        assert main(self.run_args(tmp_path, "run", "defense-matrix")) == 0
        capsys.readouterr()
        assert main(self.run_args(tmp_path, "status", "defense-matrix")) == 0
        assert "a run would execute nothing" in capsys.readouterr().out

    def test_campaign_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "campaign.md"
        assert main(self.run_args(tmp_path, "run", "revng-table1")) == 0
        capsys.readouterr()
        assert main(
            self.run_args(tmp_path, "report", "revng-table1") + ["-o", str(target)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        text = target.read_text()
        assert text.startswith("## Campaign `revng-table1`")
        assert "| experiment |" in text

    def test_campaign_report_on_unfilled_store_exits_1(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path, "report", "revng-table1")) == 1
        err = capsys.readouterr().err
        assert "0/2 cells filled" in err

    def test_campaign_aggregate_on_partial_store_exits_1(self, tmp_path, capsys):
        assert main(
            self.run_args(tmp_path, "run", "attacks-vs-noise", "--shard", "0/2")
        ) == 0
        capsys.readouterr()
        assert main(self.run_args(tmp_path, "aggregate", "attacks-vs-noise")) == 1
        assert "cells filled" in capsys.readouterr().err

    def test_campaign_takes_one_name_outside_merge(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path, "run", "revng-table1", "extra")) == 2
        assert "campaign merge" in capsys.readouterr().err


class TestFleetCli:
    def run_args(self, store, *extra):
        return [
            "campaign", *extra,
            "--store", str(store),
            "--attacks", "variant1",
            "--repeats", "2",
            "--rounds", "3",
        ]

    def test_bad_shard_spec_exits_2(self, tmp_path, capsys):
        assert main(
            self.run_args(tmp_path / "s", "run", "attacks-vs-noise", "--shard", "2/2")
        ) == 2
        assert "shard" in capsys.readouterr().err

    def test_shard_rejected_for_report(self, tmp_path, capsys):
        assert main(
            self.run_args(tmp_path / "s", "report", "attacks-vs-noise", "--shard", "0/2")
        ) == 2
        assert "run" in capsys.readouterr().err

    def test_sharded_fill_merge_aggregate_round_trip(self, tmp_path, capsys):
        # The fleet-smoke shape, in miniature: serial vs 2-way sharded
        # fill + merge must agree byte-for-byte at the aggregate level.
        assert main(self.run_args(tmp_path / "serial", "run", "attacks-vs-noise")) == 0
        for i in range(2):
            assert main(
                self.run_args(
                    tmp_path / f"w{i}", "run", "attacks-vs-noise", "--shard", f"{i}/2"
                )
            ) == 0
        capsys.readouterr()
        assert main([
            "campaign", "merge", str(tmp_path / "w0"), str(tmp_path / "w1"),
            "--store", str(tmp_path / "merged"),
        ]) == 0
        assert "merged" in capsys.readouterr().out
        assert main(
            self.run_args(tmp_path / "serial", "aggregate", "attacks-vs-noise")
            + ["-o", str(tmp_path / "serial.json")]
        ) == 0
        assert main(
            self.run_args(tmp_path / "merged", "aggregate", "attacks-vs-noise")
            + ["-o", str(tmp_path / "merged.json")]
        ) == 0
        assert (
            (tmp_path / "serial.json").read_bytes()
            == (tmp_path / "merged.json").read_bytes()
        )

    def test_merge_without_sources_exits_2(self, capsys):
        assert main(["campaign", "merge"]) == 2
        assert "at least one source" in capsys.readouterr().err

    def test_merge_of_non_store_exits_2(self, tmp_path, capsys):
        assert main([
            "campaign", "merge", str(tmp_path / "nope"),
            "--store", str(tmp_path / "dest"),
        ]) == 2
        assert "not a TrialStore" in capsys.readouterr().err

    def test_campaign_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "mini.json"
        spec_path.write_text(json.dumps({
            "name": "mini",
            "attacks": ["sgx"],
            "repeats": 1,
            "rounds": 2,
        }))
        assert main([
            "campaign", "run", str(spec_path), "--store", str(tmp_path / "store"),
        ]) == 0
        assert "sgx/i7-9700/baseline" in capsys.readouterr().out
