"""Differential equivalence gate for the simulation-kernel refactor.

The simulation kernel (:mod:`repro.cpu.kernel`) re-expresses the load
path, context switching and timer interrupts as a call chain through
pluggable components.  It is only shippable because these tests pin its
behaviour to *committed bytes* produced by the pre-kernel ``Machine``:

* two same-seed JSONL traces (variant1 + covert) must replay
  byte-identically;
* all eight registered attacks must reproduce their committed
  :meth:`TrialBatch.wall_clock_free_dict` aggregates exactly;
* the campaign smoke's content-addressed cell keys must not drift (a
  drift would turn every warm campaign store into a cold one).

Regenerate the fixtures (only when a behaviour change is *intended* and
reviewed) with::

    REPRO_GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_kernel_equivalence.py
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.attacks import run_trials
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SEED = 7

#: Small-but-representative round counts: every attack exercises its full
#: train/switch/probe pipeline at least once, and the whole differential
#: suite stays test-suite fast.
ROUNDS = {
    "variant1": 2,
    "variant1-thread": 2,
    "variant2": 2,
    "covert": 2,
    "sgx": 1,
    "switch-leak": 1,
    "rsa": 4,
    "tracker": 1,
}

#: Attacks whose full event streams are pinned byte-for-byte.
TRACED = ("variant1", "covert")

_REGEN = os.environ.get("REPRO_GOLDEN_REGEN") == "1"


def _trace_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}_seed{SEED}_rounds{ROUNDS[name]}.trace.jsonl"


def _run_traced(name: str, out_path: Path) -> None:
    sink = JsonlSink(str(out_path))
    try:
        run_trials(name, seed=SEED, rounds=ROUNDS[name], trace=Tracer([sink]))
    finally:
        sink.close()


def _aggregates() -> dict[str, dict]:
    return {
        name: run_trials(name, seed=SEED, rounds=rounds).wall_clock_free_dict()
        for name, rounds in sorted(ROUNDS.items())
    }


def _campaign_cells() -> dict[str, str]:
    from repro.campaign import builtin_campaign

    spec = dataclasses.replace(
        builtin_campaign("attacks-vs-noise"),
        attacks=("variant1", "sgx"),
        rounds=3,
        repeats=1,
    )
    return {cell.label: cell.key for cell in spec.cells()}


@pytest.mark.parametrize("name", TRACED)
def test_trace_replays_byte_identically(name: str, tmp_path: Path) -> None:
    golden = _trace_path(name)
    if _REGEN:
        _run_traced(name, golden)
        pytest.skip(f"regenerated {golden.name}")
    fresh = tmp_path / golden.name
    _run_traced(name, fresh)
    assert fresh.read_bytes() == golden.read_bytes(), (
        f"{name}: same-seed trace diverged from the committed golden "
        f"({golden.name}); the kernel refactor changed observable behaviour"
    )


def test_all_attacks_reproduce_golden_aggregates() -> None:
    golden = GOLDEN_DIR / f"aggregates_seed{SEED}.json"
    fresh = _aggregates()
    if _REGEN:
        with open(golden, "w", encoding="utf-8") as handle:
            json.dump(fresh, handle, sort_keys=True, indent=1)
            handle.write("\n")
        pytest.skip(f"regenerated {golden.name}")
    committed = json.loads(golden.read_text())
    assert set(fresh) == set(committed)
    for name in sorted(fresh):
        assert fresh[name] == committed[name], (
            f"{name}: TrialBatch aggregate diverged from the committed golden"
        )


def test_campaign_cell_keys_do_not_drift() -> None:
    golden = GOLDEN_DIR / "campaign_cells.json"
    fresh = _campaign_cells()
    if _REGEN:
        with open(golden, "w", encoding="utf-8") as handle:
            json.dump(fresh, handle, sort_keys=True, indent=1)
            handle.write("\n")
        pytest.skip(f"regenerated {golden.name}")
    committed = json.loads(golden.read_text())
    assert fresh == committed, (
        "campaign cell content hashes drifted: a warm campaign store would "
        "re-execute every cell after this change"
    )
