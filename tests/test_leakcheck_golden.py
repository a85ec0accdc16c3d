"""Byte-level pin of the static analyzer's reports.

``tests/golden/leakcheck_reports.json`` holds the ``render_json`` payload
of every registered victim under every defense, plus the extraction
findings for ``src/repro/leakcheck/extract/fixtures.py``, with the
wall-clock ``timings`` keys left out.  Any refactor of the abstract
history table or the differencing pass must keep it byte-identical.

The ``--scan`` output over ``src/repro/core`` is not pinned: its
``prov@line:col`` site labels move with every edit there.

Regenerate the fixture (only when a report change is *intended* and
reviewed) with::

    REPRO_GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_leakcheck_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.leakcheck import DEFENSES, analyze, get_victim, victim_names
from repro.leakcheck.extract.scan import render_scan_json, scan_paths
from repro.leakcheck.report import render_json

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "leakcheck_reports.json"
FIXTURES = "src/repro/leakcheck/extract/fixtures.py"

_REGEN = os.environ.get("REPRO_GOLDEN_REGEN") == "1"


def _reports() -> str:
    defenses = {
        defense: json.loads(
            render_json([analyze(get_victim(name).spec, defense=defense)
                         for name in victim_names()])
        )
        for defense in DEFENSES
    }
    extract = json.loads(render_scan_json(scan_paths([FIXTURES])))
    del extract["timings"]
    return json.dumps({"defenses": defenses, "extract": extract}, indent=1) + "\n"


def test_leakcheck_reports_match_golden(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(REPO)  # finding paths are relative to the repo root
    fresh = _reports()
    if _REGEN:
        GOLDEN.write_text(fresh, encoding="utf-8")
        pytest.skip(f"regenerated {GOLDEN.name}")
    assert fresh == GOLDEN.read_text(encoding="utf-8"), (
        "leakcheck reports diverged from the committed golden "
        f"({GOLDEN.name}); the analysis changed observable output"
    )
