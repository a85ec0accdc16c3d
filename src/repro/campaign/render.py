"""Rendering: campaign results as text tables and report markdown.

The markdown side deliberately reuses :class:`repro.analysis.report`'s
row schema and formatter, so a campaign section drops straight into the
``afterimage report`` document via ``generate_report(...,
extra_sections=...)`` — the campaign grids feed the same artifact the
headline experiments do.
"""

from __future__ import annotations

from repro.campaign.runner import CampaignResult, CampaignStatus


def _text_table(rows: list[tuple], header: tuple[str, ...]) -> str:
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(str(v).ljust(w) for v, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)


def render_status(status: CampaignStatus) -> str:
    """`afterimage campaign status` text output."""
    scope = f" [shard {status.shard}]" if status.shard else ""
    lines = [
        f"campaign {status.spec.name}{scope}: {len(status.cached)}/{status.total} "
        f"cells cached, {len(status.pending)} pending"
    ]
    if status.corrupt_lines:
        lines.append(
            f"store: {status.corrupt_lines} corrupt line(s) skipped — the "
            "affected cells read as pending and will re-execute"
        )
    if status.pending:
        lines.append("pending:")
        lines.extend(f"  {cell.label}" for cell in status.pending)
    else:
        lines.append("all cells cached — a run would execute nothing")
    return "\n".join(lines)


def render_result(result: CampaignResult) -> str:
    """`afterimage campaign run` text output: one row per merged group."""
    rows = []
    for label, batch in result.merged().items():
        rows.append(
            (
                label,
                f"{batch.quality:.3f}",
                batch.n_trials,
                batch.detail,
            )
        )
    table = _text_table(rows, ("cell group", "quality", "trials", "detail"))
    scope = f" [shard {result.shard}]" if result.shard else ""
    summary = (
        f"{len(result.outcomes)} cells{scope}: {result.cached_count} cached, "
        f"{result.executed_count} executed, {len(result.failed)} failed "
        f"(wall {result.wall_seconds:.2f}s)"
    )
    lines = [table, summary]
    for outcome in result.failed:
        lines.append(f"FAILED {outcome.cell.label}: {outcome.error_summary}")
    if result.telemetry is not None:
        lines += ["", "where the time went:", result.telemetry.render_text()]
    return "\n".join(lines)


def render_time_went(result: CampaignResult) -> list[str]:
    """The "where the time went" markdown block (empty without telemetry)."""
    timeline = result.telemetry
    if timeline is None:
        return []
    attribution = timeline.attribution()
    lines = [
        "",
        "### Where the time went",
        "",
        f"{len(timeline.records)} cell attempts, wall {timeline.wall_seconds:.2f}s, "
        f"attribution coverage {attribution['coverage'] * 100:.1f}%.",
        "",
        "| bucket | seconds | share |",
        "| --- | ---: | ---: |",
    ]
    for name, entry in attribution["buckets"].items():
        lines.append(
            f"| {name} | {entry['seconds']:.3f} | {entry['share'] * 100:.1f}% |"
        )
    lines += ["", f"Dominant overhead bucket (not cells): `{timeline.dominant_overhead()}`."]
    slowest = timeline.slowest()
    if slowest is not None:
        lines.append(f"Slowest cell: `{slowest.label}` ({slowest.seconds:.3f}s).")
    return lines


def _expectation(cell, batch) -> tuple[str, bool]:
    """(expected-behaviour string, in-band verdict) for one merged group.

    Defended cells are expected to *suppress* the attack; undefended ones
    are informational (their quality is the measurement itself), except
    ``table1`` whose ground truth is the paper's table.
    """
    if cell.experiment == "table1":
        return "all rows match Table 1", batch.successes == batch.n_trials
    if cell.axis.defense != "none":
        return "defense closes the channel", batch.quality <= 0.65
    return "attack lands (informational)", True


def render_markdown(result: CampaignResult) -> str:
    """A campaign section in the reproduction report's row format."""
    from repro.analysis.report import ReportRow, format_rows

    spec = result.spec
    rows: list[ReportRow] = []
    for cell, batch in result.groups():
        label = f"{cell.experiment}/{cell.machine}/{cell.axis.name}"
        paper, in_band = _expectation(cell, batch)
        rows.append(
            ReportRow(
                experiment=label,
                paper=paper,
                measured=f"{batch.quality * 100:.0f}% ({batch.detail})",
                in_band=in_band,
            )
        )
    header = [
        f"## Campaign `{spec.name}`",
        "",
        spec.description or "(no description)",
        "",
        f"{len(result.outcomes)} cells — {result.cached_count} cached, "
        f"{result.executed_count} executed, {len(result.failed)} failed.",
        "",
    ]
    body = format_rows(rows, title=None)
    failed = [
        f"- FAILED `{outcome.cell.label}`: {outcome.error_summary}"
        for outcome in result.failed
    ]
    return "\n".join(header + [body] + failed + render_time_went(result))
