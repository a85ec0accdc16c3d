"""Programmatic reproduction report: run the headline experiments and
render a paper-vs-measured markdown table (the `afterimage report`
command).  A lighter, automated companion to EXPERIMENTS.md.

Attack rows are driven by the :mod:`repro.attacks` registry through the
declarative :data:`ATTACK_ROWS` table — one entry per registered attack,
kept in sync with :func:`repro.attacks.attack_names` by a test — so a
newly registered attack shows up here (or fails the sync test) instead of
being silently missing.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.attacks.trial import TrialBatch
from repro.params import MachineParams


@dataclass(frozen=True)
class ReportRow:
    """One reproduced result."""

    experiment: str
    paper: str
    measured: str
    in_band: bool


@dataclass(frozen=True)
class AttackRow:
    """How one registered attack renders as a report row."""

    experiment: str
    paper: str
    rounds: Callable[[int, bool], int]
    options: Callable[[bool], dict[str, Any]]
    measured: Callable[[TrialBatch], str]
    in_band: Callable[[TrialBatch], bool]


def _no_options(quick: bool) -> dict[str, Any]:
    return {}


def _rate(batch: TrialBatch) -> str:
    return f"{batch.quality * 100:.0f}%"


#: One row per registered attack, in report order.  The sync test asserts
#: this table covers exactly ``repro.attacks.attack_names()``.
ATTACK_ROWS: dict[str, AttackRow] = {
    "variant1-thread": AttackRow(
        "V1 cross-thread success (Table 3)",
        "99%",
        rounds=lambda r, q: r,
        options=_no_options,
        measured=_rate,
        in_band=lambda b: b.quality >= 0.9,
    ),
    "variant1": AttackRow(
        "V1 cross-process success (Table 3)",
        "97%",
        rounds=lambda r, q: r,
        options=_no_options,
        measured=_rate,
        in_band=lambda b: b.quality >= 0.9,
    ),
    "variant2": AttackRow(
        "V2 user-to-kernel success (Table 3)",
        "91%",
        rounds=lambda r, q: r,
        options=_no_options,
        measured=_rate,
        in_band=lambda b: b.quality >= 0.75,
    ),
    "covert": AttackRow(
        "covert channel, 1 entry (§7.2)",
        "833 bps, <6% err",
        rounds=lambda r, q: r,
        options=_no_options,
        measured=lambda b: (
            f"{b.notes['bandwidth_bps']:.0f} bps, "
            f"{b.notes['error_rate'] * 100:.1f}% err"
        ),
        in_band=lambda b: (
            700 <= b.notes["bandwidth_bps"] <= 950 and b.notes["error_rate"] < 0.06
        ),
    ),
    "sgx": AttackRow(
        "SGX control-flow extraction (Fig. 10)",
        "Time1/Time2 separable",
        rounds=lambda r, q: 8,
        options=_no_options,
        measured=_rate,
        in_band=lambda b: b.quality >= 0.9,
    ),
    "switch-leak": AttackRow(
        "kernel switch-arm leak (Figs. 1-2)",
        "arm named via PSC",
        rounds=lambda r, q: 12,
        options=_no_options,
        measured=_rate,
        in_band=lambda b: b.quality >= 0.85,
    ),
    "rsa": AttackRow(
        "TC-RSA key recovery (§7.3)",
        "82% PSC, key in 188 min",
        rounds=lambda r, q: r,
        options=lambda quick: {"bits": 64 if quick else 128, "all_bits": True},
        measured=lambda b: (
            f"{b.notes['psc_single_shot'] * 100:.0f}% PSC, "
            f"{b.notes['bit_errors']} bit errors, "
            f"{b.notes['projected_minutes']:.0f} min projected"
        ),
        in_band=lambda b: b.notes["bit_errors"] <= 1,
    ),
    "tracker": AttackRow(
        "OpenSSL load tracking (Fig. 15)",
        "key load localized",
        rounds=lambda r, q: 3,
        options=_no_options,
        measured=_rate,
        in_band=lambda b: b.quality >= 0.66,
    ),
}


def format_rows(
    rows: list[ReportRow], title: str | None = "# AfterImage reproduction report"
) -> str:
    """Render report rows as the paper-vs-measured markdown table.

    Public because :mod:`repro.campaign.render` reuses the exact same row
    schema and formatting for campaign sections (``title=None`` omits the
    heading so the section supplies its own).
    """
    lines = [title, ""] if title else []
    lines += [
        "| experiment | paper | measured | verdict |",
        "|---|---|---|---|",
    ]
    for r in rows:
        verdict = "reproduced" if r.in_band else "**out of band**"
        lines.append(f"| {r.experiment} | {r.paper} | {r.measured} | {verdict} |")
    lines.append("")
    return "\n".join(lines)


def generate_report(
    params: MachineParams,
    seed: int = 2023,
    rounds: int = 100,
    quick: bool = False,
    extra_sections: list[str] | None = None,
) -> str:
    """Run the headline experiments; returns the markdown report.

    ``quick=True`` shrinks round counts for smoke runs.  ``extra_sections``
    are pre-rendered markdown blocks appended after the built-in sections —
    the hook ``afterimage campaign report`` uses to graft campaign grids
    onto the same document.
    """
    from repro.analysis.ttest import TVLATest
    from repro.attacks.registry import run_on_machine
    from repro.cpu.machine import Machine
    from repro.mitigation.analytical import MitigationCostModel
    from repro.revng.entries import EntryCountExperiment
    from repro.revng.indexing import IndexingExperiment

    if quick:
        rounds = min(rounds, 30)
    rows: list[ReportRow] = []

    # Indexing.
    samples = IndexingExperiment(params, seed=seed).run(max_bits=10)
    boundary = next(s.matched_bits for s in samples if s.prefetched)
    rows.append(
        ReportRow("prefetcher index width (Fig. 6)", "8 bits", f"{boundary} bits", boundary == 8)
    )

    # Capacity.
    entries = EntryCountExperiment(params, seed=seed)
    survivors = sum(s.triggered for s in entries.run(30))
    rows.append(
        ReportRow("history-table capacity (Fig. 8a)", "24", f"~{survivors + 1}", 22 <= survivors <= 24)
    )

    # The eight registered attacks, each on its own machine with its own
    # derived seed (offset by table position, so rows stay independent).
    attack_runs = {}
    for offset, (name, row) in enumerate(ATTACK_ROWS.items()):
        machine = Machine(params, seed=seed + offset)
        batch = run_on_machine(
            name,
            machine,
            seed=seed + offset,
            rounds=row.rounds(rounds, quick),
            options=row.options(quick),
        )
        attack_runs[name] = (machine, batch)
        rows.append(
            ReportRow(row.experiment, row.paper, row.measured(batch), row.in_band(batch))
        )

    # t-test.
    t_acc = TVLATest(seed=seed).run(200 if quick else 600, accurate_timing=True)
    t_rnd = TVLATest(seed=seed + 1).run(200 if quick else 600, accurate_timing=False)
    rows.append(
        ReportRow(
            "t-test w/ vs w/o marker (Fig. 16)",
            "-18.8 vs ~-2",
            f"{t_acc.t_value:.1f} vs {t_rnd.t_value:.1f}",
            t_acc.leaks and not t_rnd.leaks,
        )
    )

    # Mitigation bound.
    bound = MitigationCostModel().overhead_percent()
    rows.append(
        ReportRow("mitigation upper bound (§8.3)", "<7.3%", f"{bound:.2f}%", bound < 7.3)
    )

    # Static leakage analysis (repro.leakcheck): the paper's victims must
    # classify as leaky, and flip to safe under the tagged prefetcher.
    from repro.leakcheck import analyze, get_victim

    rsa_static = analyze(get_victim("rsa-square-multiply").spec)
    rows.append(
        ReportRow(
            "leakcheck: RSA square-and-multiply",
            "leaky (all exponent bits)",
            f"{rsa_static.verdict}, {len(rsa_static.leaky_bits)}/{rsa_static.secret_bits} bits",
            rsa_static.leaky and len(rsa_static.leaky_bits) == rsa_static.secret_bits,
        )
    )
    tagged_static = analyze(get_victim("rsa-square-multiply").spec, defense="tagged")
    aes_static = analyze(get_victim("aes-ttable").spec)
    rows.append(
        ReportRow(
            "leakcheck: AES T-table / tagged defense",
            "leaky / safe",
            f"{aes_static.verdict} / {tagged_static.verdict}",
            aes_static.leaky and not tagged_static.leaky,
        )
    )

    # Machine metrics (repro.obs): the cross-thread Variant 1 machine's
    # counter snapshot after its measurement rounds — the same numbers
    # `afterimage metrics` prints, inlined so a report archives them.
    ct_machine, ct_batch = attack_runs["variant1-thread"]
    sections = [
        format_rows(rows),
        "## Machine metrics",
        "",
        "Variant 1 cross-thread machine after its "
        f"{ct_batch.rounds} measurement rounds (seed {seed}):",
        "",
        ct_machine.metrics().render_markdown(),
        "",
    ]
    sections.extend(extra_sections or [])
    return "\n".join(sections)
