"""The bench regression gate: diff two ``BENCH_*.json`` artifacts.

``afterimage bench compare <baseline.json> <current.json>`` loads both
documents, refuses pairs that are not comparable (different artifact
kinds, different schema versions, different machines — unless
``--allow-cross-machine``), and then checks the kind-specific contract:

* **obs** (``BENCH_obs.json``) — per-attack simulated cycles and quality
  are deterministic and must match exactly; wall-clock may drift within
  the tolerance.
* **attacks** (``BENCH_attacks.json``) — the executor's speedup must not
  regress beyond the tolerance, ``aggregates_identical`` must hold, and
  per-attack quality/cycles must match exactly.
* **campaign** (``BENCH_campaign.json``) — the caching contract
  (warm pass fully cached, byte-identical aggregates) must hold and the
  warm wall-clock must stay within tolerance.
* **telemetry** (``BENCH_telemetry.json``) — the telemetry-off overhead
  bound must hold, aggregates must stay identical, and the speedup must
  not regress beyond tolerance.
* **serve** (``BENCH_serve.json``) — the warm-aggregate latency budget
  (p50 under the recorded ``warm_budget_seconds``), ETag revalidation
  and aggregate completeness must hold, the cache hit ratio must not
  regress beyond tolerance, and the latency percentiles must stay
  within tolerance.

Exit codes are lint-style: 0 = no regression, 1 = regression found,
2 = refusal/usage error (incomparable artifacts), 3 = internal error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.bench.provenance import identity

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

#: Default relative tolerance for wall-clock-derived numbers (they are
#: noisy on shared containers; determinism-derived numbers get none).
DEFAULT_TOLERANCE = 0.25

_QUALITY_EPS = 1e-9


@dataclass(frozen=True)
class CompareFinding:
    """One checked field: baseline vs current plus the verdict."""

    field: str
    baseline: Any
    current: Any
    ok: bool
    note: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "field": self.field,
            "baseline": self.baseline,
            "current": self.current,
            "ok": self.ok,
            "note": self.note,
        }


@dataclass
class CompareReport:
    """Everything ``bench compare`` decided about one artifact pair."""

    kind: str
    baseline_path: str
    current_path: str
    tolerance: float
    findings: list[CompareFinding] = field(default_factory=list)
    refusal: str | None = None

    @property
    def regressions(self) -> list[CompareFinding]:
        return [finding for finding in self.findings if not finding.ok]

    @property
    def exit_code(self) -> int:
        if self.refusal is not None:
            return EXIT_USAGE
        return EXIT_REGRESSION if self.regressions else EXIT_OK

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "baseline": self.baseline_path,
            "current": self.current_path,
            "tolerance": self.tolerance,
            "refusal": self.refusal,
            "regressions": len(self.regressions),
            "findings": [finding.as_dict() for finding in self.findings],
        }

    def render_text(self) -> str:
        if self.refusal is not None:
            return f"bench compare: REFUSED — {self.refusal}"
        lines = [
            f"bench compare [{self.kind}] {self.baseline_path} -> "
            f"{self.current_path} (tolerance {self.tolerance:.0%})"
        ]
        for finding in self.findings:
            marker = "ok  " if finding.ok else "FAIL"
            note = f"  ({finding.note})" if finding.note else ""
            lines.append(
                f"  {marker} {finding.field}: {finding.baseline!r} -> "
                f"{finding.current!r}{note}"
            )
        verdict = (
            "no regressions"
            if not self.regressions
            else f"{len(self.regressions)} regression(s)"
        )
        lines.append(f"bench compare: {verdict}")
        return "\n".join(lines)


def artifact_kind(doc: dict[str, Any]) -> str | None:
    """Classify a ``BENCH_*.json`` document by its load-bearing keys."""
    if not isinstance(doc, dict):
        return None
    if "kind" in doc:
        # An explicit kind this gate no longer knows is unrecognized, not
        # re-guessed from its keys.
        return str(doc["kind"]) if doc["kind"] in _CHECKERS else None
    if "warm_aggregate_p50_seconds" in doc:
        return "serve"
    if "telemetry_overhead_ratio" in doc:
        return "telemetry"
    if "serial_wall_seconds" in doc:
        return "attacks"
    if "cold_wall_seconds" in doc:
        return "campaign"
    if "results" in doc:
        return "obs"
    return None


def _check_ratio(
    findings: list[CompareFinding],
    label: str,
    baseline: Any,
    current: Any,
    tolerance: float,
    higher_is_better: bool,
) -> None:
    """Tolerance check on a wall-clock-derived scalar (None passes)."""
    if baseline is None or current is None:
        findings.append(
            CompareFinding(label, baseline, current, True, "missing value, skipped")
        )
        return
    baseline_f, current_f = float(baseline), float(current)
    if higher_is_better:
        ok = current_f >= baseline_f * (1.0 - tolerance)
        note = f"must stay >= {baseline_f * (1.0 - tolerance):.4g}"
    else:
        ok = current_f <= baseline_f * (1.0 + tolerance)
        note = f"must stay <= {baseline_f * (1.0 + tolerance):.4g}"
    findings.append(CompareFinding(label, baseline, current, ok, note))


def _check_exact(
    findings: list[CompareFinding],
    label: str,
    baseline: Any,
    current: Any,
    note: str = "deterministic, compared exactly",
) -> None:
    if isinstance(baseline, float) or isinstance(current, float):
        ok = (
            baseline is not None
            and current is not None
            and abs(float(baseline) - float(current)) <= _QUALITY_EPS
        )
    else:
        ok = baseline == current
    findings.append(CompareFinding(label, baseline, current, ok, note))


def _check_flag(
    findings: list[CompareFinding], label: str, baseline: Any, current: Any
) -> None:
    findings.append(
        CompareFinding(label, baseline, current, bool(current), "must hold in current")
    )


def _compare_per_attack(
    findings: list[CompareFinding],
    baseline: dict[str, Any],
    current: dict[str, Any],
    prefix: str,
    fields: tuple[str, ...],
) -> None:
    for name in sorted(baseline):
        if name not in current:
            findings.append(
                CompareFinding(f"{prefix}.{name}", "present", "missing", False)
            )
            continue
        for fld in fields:
            _check_exact(
                findings,
                f"{prefix}.{name}.{fld}",
                baseline[name].get(fld),
                current[name].get(fld),
            )


def _compare_obs(
    findings: list[CompareFinding],
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance: float,
) -> None:
    base_rows = {row["attack"]: row for row in baseline.get("results", [])}
    cur_rows = {row["attack"]: row for row in current.get("results", [])}
    _compare_per_attack(
        findings, base_rows, cur_rows, "attack", ("simulated_cycles", "quality", "rounds")
    )
    for name in sorted(base_rows):
        if name in cur_rows:
            _check_ratio(
                findings,
                f"attack.{name}.wall_seconds",
                base_rows[name].get("wall_seconds"),
                cur_rows[name].get("wall_seconds"),
                tolerance,
                higher_is_better=False,
            )


def _compare_attacks(
    findings: list[CompareFinding],
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance: float,
) -> None:
    _check_ratio(
        findings,
        "speedup",
        baseline.get("speedup"),
        current.get("speedup"),
        tolerance,
        higher_is_better=True,
    )
    for fld in ("serial_wall_seconds", "parallel_wall_seconds"):
        _check_ratio(
            findings, fld, baseline.get(fld), current.get(fld), tolerance,
            higher_is_better=False,
        )
    _check_flag(
        findings,
        "aggregates_identical",
        baseline.get("aggregates_identical"),
        current.get("aggregates_identical"),
    )
    _compare_per_attack(
        findings,
        baseline.get("per_attack", {}),
        current.get("per_attack", {}),
        "per_attack",
        ("quality", "n_trials", "simulated_cycles"),
    )


def _compare_campaign(
    findings: list[CompareFinding],
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance: float,
) -> None:
    for fld in ("cold_wall_seconds", "warm_wall_seconds"):
        _check_ratio(
            findings, fld, baseline.get(fld), current.get(fld), tolerance,
            higher_is_better=False,
        )
    verification_base = baseline.get("verification", {})
    verification_cur = current.get("verification", {})
    for flag in ("warm_all_cached", "aggregates_identical"):
        _check_flag(
            findings,
            f"verification.{flag}",
            verification_base.get(flag),
            verification_cur.get(flag),
        )
    _compare_per_attack(
        findings,
        baseline.get("groups", {}),
        current.get("groups", {}),
        "group",
        ("quality", "n_trials"),
    )


def _compare_telemetry(
    findings: list[CompareFinding],
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance: float,
) -> None:
    _check_ratio(
        findings,
        "speedup",
        baseline.get("speedup"),
        current.get("speedup"),
        tolerance,
        higher_is_better=True,
    )
    for fld in ("serial_wall_seconds", "parallel_wall_seconds"):
        _check_ratio(
            findings, fld, baseline.get(fld), current.get(fld), tolerance,
            higher_is_better=False,
        )
    overhead = current.get("telemetry_overhead_ratio")
    bound = current.get("telemetry_overhead_bound", 0.05)
    findings.append(
        CompareFinding(
            "telemetry_overhead_ratio",
            baseline.get("telemetry_overhead_ratio"),
            overhead,
            overhead is not None and abs(float(overhead)) <= float(bound),
            f"|overhead| must stay <= {bound}",
        )
    )
    _check_flag(
        findings,
        "aggregates_identical",
        baseline.get("aggregates_identical"),
        current.get("aggregates_identical"),
    )
    _check_ratio(
        findings,
        "attribution_coverage",
        baseline.get("attribution", {}).get("coverage"),
        current.get("attribution", {}).get("coverage"),
        0.05,
        higher_is_better=True,
    )


def _compare_serve(
    findings: list[CompareFinding],
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance: float,
) -> None:
    for fld in (
        "cold_aggregate_seconds",
        "warm_aggregate_p50_seconds",
        "warm_aggregate_p99_seconds",
        "revalidate_p50_seconds",
    ):
        _check_ratio(
            findings, fld, baseline.get(fld), current.get(fld), tolerance,
            higher_is_better=False,
        )
    warm = current.get("warm_aggregate_p50_seconds")
    budget = current.get("warm_budget_seconds", 0.010)
    findings.append(
        CompareFinding(
            "warm_aggregate_p50_seconds.budget",
            baseline.get("warm_budget_seconds"),
            warm,
            warm is not None and float(warm) < float(budget),
            f"warm aggregate p50 must stay < {budget}s",
        )
    )
    concurrent_base = baseline.get("concurrent", {})
    concurrent_cur = current.get("concurrent", {})
    for fld in ("p50_seconds", "p99_seconds"):
        _check_ratio(
            findings,
            f"concurrent.{fld}",
            concurrent_base.get(fld),
            concurrent_cur.get(fld),
            tolerance,
            higher_is_better=False,
        )
    _check_ratio(
        findings,
        "cache.hit_ratio",
        baseline.get("cache", {}).get("hit_ratio"),
        current.get("cache", {}).get("hit_ratio"),
        tolerance,
        higher_is_better=True,
    )
    verification_base = baseline.get("verification", {})
    verification_cur = current.get("verification", {})
    for flag in ("aggregate_complete", "warm_under_budget", "etag_revalidates"):
        _check_flag(
            findings,
            f"verification.{flag}",
            verification_base.get(flag),
            verification_cur.get(flag),
        )
    _check_exact(findings, "campaign", baseline.get("campaign"), current.get("campaign"))


_CHECKERS = {
    "obs": _compare_obs,
    "attacks": _compare_attacks,
    "campaign": _compare_campaign,
    "telemetry": _compare_telemetry,
    "serve": _compare_serve,
}


def compare_documents(
    baseline: dict[str, Any],
    current: dict[str, Any],
    baseline_path: str = "<baseline>",
    current_path: str = "<current>",
    tolerance: float = DEFAULT_TOLERANCE,
    allow_cross_machine: bool = False,
) -> CompareReport:
    """Diff two loaded artifacts; never raises on content problems."""
    report = CompareReport(
        kind="unknown",
        baseline_path=baseline_path,
        current_path=current_path,
        tolerance=tolerance,
    )
    base_kind = artifact_kind(baseline)
    cur_kind = artifact_kind(current)
    if base_kind is None or cur_kind is None:
        report.refusal = (
            f"unrecognized artifact ({baseline_path if base_kind is None else current_path}"
            " is not a known BENCH_*.json layout)"
        )
        return report
    if base_kind != cur_kind:
        report.refusal = f"artifact kinds differ: {base_kind} vs {cur_kind}"
        return report
    report.kind = base_kind
    if baseline.get("schema") != current.get("schema"):
        report.refusal = (
            f"schema versions differ: {baseline.get('schema')} vs "
            f"{current.get('schema')}; regenerate the baseline"
        )
        return report
    base_id = identity(baseline.get("provenance"))
    cur_id = identity(current.get("provenance"))
    if not allow_cross_machine:
        if base_id is None or cur_id is None:
            which = baseline_path if base_id is None else current_path
            report.refusal = (
                f"{which} carries no provenance stamp; wall-clock numbers are "
                "not comparable (regenerate it, or pass --allow-cross-machine)"
            )
            return report
        if base_id != cur_id:
            diffs = [
                f"{key}: {base_id[key]!r} vs {cur_id[key]!r}"
                for key in base_id
                if base_id[key] != cur_id[key]
            ]
            report.refusal = (
                "artifacts come from different machines ("
                + "; ".join(diffs)
                + "); pass --allow-cross-machine to diff anyway"
            )
            return report
    _CHECKERS[base_kind](report.findings, baseline, current, tolerance)
    return report


def compare_files(
    baseline_path: str,
    current_path: str,
    tolerance: float = DEFAULT_TOLERANCE,
    allow_cross_machine: bool = False,
) -> CompareReport:
    """Load and diff two artifact files (unreadable input is a refusal)."""
    documents = []
    for path in (baseline_path, current_path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                documents.append(json.load(handle))
        except (OSError, json.JSONDecodeError) as exc:
            report = CompareReport(
                kind="unknown",
                baseline_path=baseline_path,
                current_path=current_path,
                tolerance=tolerance,
            )
            report.refusal = f"cannot load {path}: {exc}"
            return report
    return compare_documents(
        documents[0],
        documents[1],
        baseline_path=baseline_path,
        current_path=current_path,
        tolerance=tolerance,
        allow_cross_machine=allow_cross_machine,
    )
