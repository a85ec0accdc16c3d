"""Smoke tests: the example scripts must run and print their headlines.

Every example runs here except defense_evaluation, which runs by hand;
the attacks it drives have their own tests.  The longer ones run with
small arguments: covert_channel with a two-letter message, leak_rsa_key
with a 64-bit key.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "accuracy: 8/8" in out

    def test_sgx_leak(self):
        out = run_example("sgx_leak.py")
        assert "attacker infers secret = 0  [correct]" in out
        assert "attacker infers secret = 1  [correct]" in out

    def test_reverse_engineer(self):
        out = run_example("reverse_engineer.py")
        assert "24-entry table" in out
        assert "Bit-PLRU-like" in out

    def test_reverse_engineer_haswell(self):
        out = run_example("reverse_engineer.py", "--machine", "i7-4770")
        assert "i7-4770" in out
        assert "no SGX" in out

    def test_covert_channel(self):
        out = run_example("covert_channel.py", "--message", "hi")
        assert "received: 'hi'" in out

    def test_kernel_spy(self):
        out = run_example("kernel_spy.py")
        assert "spy's verdict (disturbed entries): ['HCI_SCODATA_PKT']" in out

    def test_leak_rsa_key_small(self):
        out = run_example("leak_rsa_key.py", "--bits", "64")
        assert "recovered d == true d:     True" in out

    def test_trace_attack(self, tmp_path):
        out = tmp_path / "run.trace.json"
        stdout = run_example("trace_attack.py", "--rounds", "4", "--out", str(out))
        assert "cycle attribution by phase" in stdout
        assert "TableTransition" in stdout
        assert out.exists()

    def test_perf_timeline(self, tmp_path):
        out = tmp_path / "perf.trace.json"
        stdout = run_example(
            "perf_timeline.py", "--rounds", "2", "--out", str(out)
        )
        assert "where the time went" in stdout
        assert "dominant overhead bucket" in stdout
        assert out.exists()

    def test_static_leakcheck(self):
        out = run_example("static_leakcheck.py")
        assert "verdict: leaky" in out
        assert "verdicts agree" in out
        assert "password-check=safe" in out

    @pytest.mark.slow
    def test_power_attack_assist(self):
        out = run_example("power_attack_assist.py")
        assert "LEAKS" in out
