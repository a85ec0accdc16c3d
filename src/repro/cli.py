"""Command-line interface: run any of the paper's experiments.

Installed as the ``afterimage`` console script::

    afterimage list
    afterimage fig06 [--machine i7-9700]
    afterimage mitigation
    afterimage lint src tests --format json
    afterimage leakcheck --suite
    afterimage leakcheck --scan src/
    afterimage trace sgx --out run.trace.json
    afterimage metrics switch-leak --format json
    afterimage run variant1 --rounds 200
    afterimage run rsa --format json
    afterimage run --suite --jobs 4
    afterimage campaign list
    afterimage campaign run rsa-128.toml
    afterimage campaign run attacks-vs-noise --jobs 4
    afterimage campaign run attacks-vs-noise --shard 0/2 --store worker-a
    afterimage campaign merge worker-a worker-b --store merged
    afterimage campaign status defense-matrix
    afterimage campaign report revng-table1 -o campaign.md
    afterimage campaign aggregate attacks-vs-noise --store merged
    afterimage perf --suite --jobs 2 --format json

The figure and table subcommands print their series like the benchmark
suite, but without pytest in the loop.  Every attack in the
:mod:`repro.attacks` registry runs one way: ``run <attack>`` (or
``--suite``) drives it as a one-axis campaign through
:class:`~repro.campaign.CampaignRunner`, optionally fanned across
``--jobs`` workers, and ``perf`` does the same with the runner's
telemetry on.  An attack's knobs (covert ``entries``, rsa ``bits``,
tracker ``target``, ...) are keyword options of its scenario factory,
set through a spec's ``[options.<attack>]`` table and ``campaign run``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence

from repro.attacks.registry import all_specs, attack_names
from repro.params import PRESETS, MachineParams, preset


def _table(rows: list[tuple], header: tuple[str, ...]) -> None:
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


# ---------------------------------------------------------------------- #
# Subcommands                                                             #
# ---------------------------------------------------------------------- #


def cmd_fig06(params: MachineParams, args: argparse.Namespace) -> None:
    from repro.revng.indexing import IndexingExperiment

    samples = IndexingExperiment(params, seed=args.seed).run()
    _table(
        [(s.matched_bits, s.access_time, "hit" if s.prefetched else "miss") for s in samples],
        ("matched_bits", "cycles", "class"),
    )


def cmd_fig07(params: MachineParams, args: argparse.Namespace) -> None:
    from repro.revng.stride_policy import StrideUpdateExperiment

    for label, offset in (("7a (random offset)", 3), ("7b (offset = st_2)", 5)):
        print(f"Figure {label}:")
        samples = StrideUpdateExperiment(params, seed=args.seed).run(offset_lines=offset)
        _table(
            [
                (s.iteration, "st1" if s.st1_triggered else "-", "st2" if s.st2_triggered else "-")
                for s in samples
            ],
            ("iteration", "stride7", "stride5"),
        )
        print()


def cmd_table1(params: MachineParams, args: argparse.Namespace) -> None:
    from repro.revng.page_boundary import PageBoundaryExperiment

    rows = PageBoundaryExperiment(params, seed=args.seed).run()
    _table(
        [
            (
                f"{r.virtual_page_offset} page",
                r.pool,
                "yes" if r.shares_physical_page else "no",
                "yes" if r.prefetchable else "no",
            )
            for r in rows
        ],
        ("virtual offset", "pool", "shares frame", "prefetchable"),
    )


def cmd_fig08(params: MachineParams, args: argparse.Namespace) -> None:
    from repro.revng.entries import EntryCountExperiment
    from repro.revng.replacement_policy import ReplacementPolicyExperiment

    entries = EntryCountExperiment(params, seed=args.seed)
    for n in (26, 30):
        evicted = entries.evicted_inputs(entries.run(n))
        print(f"Figure 8a, {n} inputs: evicted {evicted}")
    replacement = ReplacementPolicyExperiment(params, seed=args.seed)
    print(f"Figure 8b: evicted {replacement.evicted_inputs(replacement.run())}")


def cmd_ttest(params: MachineParams, args: argparse.Namespace) -> None:
    from repro.analysis.ttest import TVLATest, tvla_sweep

    counts = [25, 50, 100, 200, 400, 800]
    accurate = tvla_sweep(TVLATest(seed=args.seed), counts, accurate_timing=True)
    random_t = tvla_sweep(TVLATest(seed=args.seed + 1), counts, accurate_timing=False)
    _table(
        [
            (a.n_plaintexts, round(a.t_value, 1), round(r.t_value, 1))
            for a, r in zip(accurate, random_t)
        ],
        ("#plaintexts", "t accurate", "t random"),
    )


def cmd_mitigation(params: MachineParams, args: argparse.Namespace) -> None:
    from repro.mitigation.analytical import MitigationCostModel
    from repro.mitigation.study import MitigationStudy

    print(f"analytic upper bound: {MitigationCostModel().overhead_percent():.2f}% (paper <7.3%)")
    study = MitigationStudy(params, n_instructions=args.instructions, seed=args.seed)
    results = study.run_suite()
    _table(
        [
            (r.name, f"{r.prefetch_speedup:.2f}x", f"{r.flush_overhead * 100:.2f}%")
            for r in results
        ],
        ("workload", "pf speedup", "flush overhead"),
    )
    top8 = study.top_prefetch_sensitive(results)
    print(f"top-8 average: {study.average_overhead(top8) * 100:.2f}% (paper 0.7%)")
    print(f"overall:       {study.average_overhead(results) * 100:.2f}% (paper 0.2%)")


def cmd_report(params: MachineParams, args: argparse.Namespace) -> None:
    from repro.analysis.report import generate_report

    markdown = generate_report(params, seed=args.seed, rounds=args.rounds, quick=args.quick)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(markdown)
        print(f"wrote {args.output}")
    else:
        print(markdown)


def cmd_run(params: MachineParams, args: argparse.Namespace) -> None:
    """`run` and `perf`: the attack (or ``--suite``) as a one-axis campaign.

    The spec runs through :class:`~repro.campaign.CampaignRunner` over a
    throwaway store, so these commands share the campaign's seeds, fault
    isolation and retries; `perf` turns the runner's telemetry on.
    """
    import tempfile

    from repro.campaign import CampaignRunner, CampaignSpec, TrialStore, render_result

    if args.suite:
        names: tuple[str, ...] = attack_names()
    elif args.attack is not None:
        names = (args.attack,)
    else:
        print("specify an attack name or --suite", file=sys.stderr)
        sys.exit(2)
    spec = CampaignSpec(
        name=args.command,
        attacks=names,
        machines=(params.name,),
        repeats=args.repeats,
        rounds=args.rounds,
        base_seed=args.seed,
    )
    with tempfile.TemporaryDirectory(prefix="afterimage-run-") as store_dir:
        runner = CampaignRunner(
            TrialStore(store_dir), jobs=args.jobs, telemetry=args.command == "perf"
        )
        result = runner.run(spec)
    if args.format == "json":
        print(json.dumps(result.as_dict(), indent=2))
    elif args.format == "trace":
        timeline = result.telemetry
        assert timeline is not None
        timeline.write_chrome(args.out)
        print(
            f"wrote {args.out}: {len(timeline.records)} tasks across "
            f"{len(timeline.lanes())} lanes, wall {timeline.wall_seconds:.2f}s"
        )
    else:
        print(render_result(result))
    if not result.complete:
        sys.exit(1)


def _spec_overrides(args: argparse.Namespace) -> dict:
    """The ``--rounds``/``--repeats``/``--attacks``/``--base-seed`` shrinkers."""
    overrides: dict = {}
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.attacks is not None:
        overrides["attacks"] = tuple(
            part.strip() for part in args.attacks.split(",") if part.strip()
        )
    if args.base_seed is not None:
        overrides["base_seed"] = args.base_seed
    return overrides


def _resolve_campaign_spec(name: str, args: argparse.Namespace):
    """A builtin campaign by name, or a ``.toml``/``.json`` spec file,
    shrunk by any ``--rounds``/``--repeats``/``--attacks`` overrides and
    checked for unknown experiments and options before any store opens."""
    import dataclasses

    from repro.campaign import builtin_campaign, load_spec
    from repro.campaign.experiments import check_experiments

    if name.endswith((".toml", ".json")):
        spec = load_spec(name)
    else:
        spec = builtin_campaign(name)
    overrides = _spec_overrides(args)
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    check_experiments(spec)
    return spec


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    """`afterimage campaign merge <src>... --store <dest>`."""
    from repro.fleet.merge import MergeConflictError, merge_stores

    if not args.campaign:
        print("specify at least one source store to merge", file=sys.stderr)
        return 2
    try:
        report = merge_stores(args.store, list(args.campaign))
    except MergeConflictError as exc:
        print(f"campaign merge refused:\n{exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"campaign merge: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render_text())
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """`afterimage campaign list|run|status|report|aggregate|merge` (early
    dispatch: specs name their own machines, so the global ``--machine``
    preset is unused)."""
    from repro.campaign import (
        BUILTIN_CAMPAIGNS,
        CampaignRunner,
        TrialStore,
        campaign_status,
        render_markdown,
        render_result,
        render_status,
    )

    if args.action == "list":
        _table(
            [
                (spec.name, spec.n_cells, spec.description)
                for spec in BUILTIN_CAMPAIGNS.values()
            ],
            ("campaign", "cells", "description"),
        )
        return 0
    if args.action == "merge":
        return _cmd_campaign_merge(args)
    if not args.campaign:
        print("specify a builtin campaign name or a spec file", file=sys.stderr)
        return 2
    if len(args.campaign) > 1:
        print(
            f"campaign {args.action} takes one campaign, got "
            f"{len(args.campaign)} (did you mean `campaign merge`?)",
            file=sys.stderr,
        )
        return 2
    try:
        spec = _resolve_campaign_spec(args.campaign[0], args)
    except (KeyError, ValueError) as exc:
        # An unknown builtin campaign or machine preset raises KeyError,
        # whose str() adds quotes: print the message itself.
        print(f"campaign {args.action}: {exc.args[0]}", file=sys.stderr)
        return 2
    shard = None
    if args.shard is not None:
        if args.action not in ("run", "status"):
            print(
                "--shard applies to `run` and `status` only; aggregates and "
                "reports always cover the whole campaign",
                file=sys.stderr,
            )
            return 2
        from repro.fleet.partition import parse_shard

        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            print(f"campaign --shard: {exc}", file=sys.stderr)
            return 2
    store = TrialStore(args.store)
    if args.action == "status":
        status = campaign_status(spec, store, shard=shard)
        if args.format == "json":
            print(json.dumps(status.as_dict(), indent=2))
        else:
            print(render_status(status))
        return 0
    if args.action in ("report", "aggregate"):
        # Read-only views: a partially filled store renders a misleading
        # (or empty) table, so refuse with the fill count instead.
        status = campaign_status(spec, store)
        if status.pending:
            print(
                f"campaign {spec.name}: {len(status.cached)}/{status.total} "
                "cells filled — run the campaign (or merge the workers' "
                "stores) before asking for a "
                f"{'report' if args.action == 'report' else 'aggregate'}",
                file=sys.stderr,
            )
            return 1
    runner = CampaignRunner(
        store,
        jobs=args.jobs,
        max_attempts=args.max_attempts,
        telemetry=args.telemetry,
    )
    result = runner.run(spec, shard=shard)
    if args.telemetry and args.action == "run" and result.telemetry is not None:
        import os

        timeline_path = os.path.join(args.store, "telemetry.json")
        trace_path = os.path.join(args.store, "telemetry.trace.json")
        with open(timeline_path, "w") as handle:
            json.dump(result.telemetry.as_dict(), handle, indent=2)
            handle.write("\n")
        result.telemetry.write_chrome(trace_path)
        print(f"wrote {timeline_path} and {trace_path}")
    if args.action == "aggregate":
        from repro.campaign import canonical_json

        text = canonical_json(result.aggregates())
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0
    if args.action == "report":
        markdown = render_markdown(result)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(markdown + "\n")
            print(f"wrote {args.output}")
        else:
            print(markdown)
    elif args.format == "json":
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(render_result(result))
    return 0 if result.complete else 1


def cmd_trace(params: MachineParams, args: argparse.Namespace) -> None:
    from repro.attacks.registry import run_on_machine
    from repro.cpu.machine import Machine
    from repro.obs.sinks import ChromeTraceSink, RingBufferSink
    from repro.obs.tracer import Tracer

    ring = RingBufferSink(capacity=None)
    chrome = ChromeTraceSink(args.out, cycles_per_us=params.frequency_hz / 1e6)
    tracer = Tracer([ring, chrome])
    machine = Machine(params, seed=args.seed, trace=tracer)
    batch = run_on_machine(args.attack, machine, seed=args.seed, rounds=args.rounds)
    tracer.close()
    counts: dict[str, int] = {}
    for event in ring.events():
        counts[event.kind] = counts.get(event.kind, 0) + 1
    print(f"{batch.attack}: {batch.detail}")
    _table(sorted(counts.items()), ("event", "count"))
    print(f"wrote {args.out}: {len(ring)} events over {machine.cycles} cycles")


def cmd_metrics(params: MachineParams, args: argparse.Namespace) -> None:
    from repro.attacks.registry import run_on_machine
    from repro.cpu.machine import Machine

    machine = Machine(params, seed=args.seed)
    batch = run_on_machine(args.attack, machine, seed=args.seed, rounds=args.rounds)
    registry = machine.metrics()
    if args.format == "json":
        run = {
            "name": batch.attack,
            "rounds": batch.rounds,
            "quality": batch.quality,
            "detail": batch.detail,
            "simulated_cycles": batch.simulated_cycles,
            "spans": batch.spans,
        }
        print(json.dumps({"run": run, "metrics": registry.as_dict()}, indent=2))
        return
    print(f"{batch.attack}: {batch.detail}")
    print()
    print(registry.render_text())
    print()
    print(machine.profile.render_text())


_COMMANDS: dict[str, tuple[Callable, str]] = {
    "fig06": (cmd_fig06, "Figure 6: IP indexing microbenchmark"),
    "fig07": (cmd_fig07, "Figure 7: stride update policy"),
    "table1": (cmd_table1, "Table 1: page-boundary behaviour"),
    "fig08": (cmd_fig08, "Figure 8: capacity and replacement"),
    "ttest": (cmd_ttest, "Figure 16: TVLA t-test"),
    "mitigation": (cmd_mitigation, "Section 8.3: mitigation cost study"),
    "report": (cmd_report, "Run headline experiments, emit a markdown report"),
    "trace": (cmd_trace, "Run an attack with tracing, write a Chrome trace_event file"),
    "metrics": (cmd_metrics, "Run an attack, dump the machine's metrics registry"),
    "run": (cmd_run, "Run any registered attack (or --suite) across --jobs workers"),
    "perf": (cmd_run, "Like run, plus the runner's worker timeline + overhead attribution"),
}


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afterimage", description="AfterImage (ASPLOS 2023) reproduction experiments"
    )
    parser.add_argument(
        "--machine", default="i7-9700", type=str.lower, choices=PRESETS,
        help="machine preset",
    )
    parser.add_argument("--seed", type=int, default=2023)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    lint = sub.add_parser("lint", help="static-analysis pass (repro.lint) over the tree")
    lint.add_argument("paths", nargs="*", default=["src"])
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--select", default=None, help="comma-separated rule ids (e.g. RL001,RL006)")
    lint.add_argument(
        "--flow",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="CFG/dataflow pass: RL014-RL017 plus alias-aware RL001/RL003/RL008",
    )
    lint.add_argument("--changed", action="store_true", help="lint only files changed vs HEAD")
    lint.add_argument("--list-rules", action="store_true")
    leakcheck = sub.add_parser(
        "leakcheck", help="static AfterImage-leakage analysis (repro.leakcheck)"
    )
    leakcheck.add_argument("victims", nargs="*")
    leakcheck.add_argument(
        "--defense", choices=("none", "tagged", "flush-on-switch", "oblivious"), default="none"
    )
    leakcheck.add_argument("--format", choices=("text", "json"), default="text")
    leakcheck.add_argument("--list-victims", action="store_true")
    leakcheck.add_argument("--suite", action="store_true")
    leakcheck.add_argument(
        "--extract",
        nargs="+",
        metavar="FILE",
        help="statically compile and analyze candidate functions in files",
    )
    leakcheck.add_argument(
        "--scan",
        nargs="+",
        metavar="PATH",
        help="recursively extract and analyze every candidate under paths",
    )
    campaign = sub.add_parser(
        "campaign",
        help=(
            "declarative cached sweeps (repro.campaign): "
            "list|run|status|report|aggregate|merge"
        ),
    )
    campaign.add_argument(
        "action",
        choices=("list", "run", "status", "report", "aggregate", "merge"),
    )
    campaign.add_argument(
        "campaign",
        nargs="*",
        default=[],
        help=(
            "builtin campaign name or a .toml/.json spec file; "
            "for `merge`, one or more source store directories"
        ),
    )
    campaign.add_argument(
        "--store",
        default=".campaign-store",
        help="trial store directory (default: .campaign-store); `merge` destination",
    )
    campaign.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="fleet fill: run/status only this worker's slice of the cells",
    )
    campaign.add_argument("--jobs", type=_positive_int, default=1)
    campaign.add_argument("--max-attempts", type=_positive_int, default=3)
    campaign.add_argument(
        "--rounds", type=_positive_int, default=None, help="override spec rounds"
    )
    campaign.add_argument(
        "--repeats", type=_positive_int, default=None, help="override spec repeats"
    )
    campaign.add_argument(
        "--attacks", default=None, help="override spec attacks (comma-separated)"
    )
    campaign.add_argument("--base-seed", type=int, default=None)
    campaign.add_argument("--format", choices=("text", "json"), default="text")
    campaign.add_argument(
        "-o", "--output", default=None, help="report/aggregate output file"
    )
    campaign.add_argument(
        "--telemetry",
        action="store_true",
        help="collect cross-process telemetry; `run` writes a timeline next to the store",
    )
    for name, (_fn, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        if name == "mitigation":
            cmd.add_argument("--instructions", type=_positive_int, default=60_000)
        if name == "report":
            cmd.add_argument("--rounds", type=_positive_int, default=100)
            cmd.add_argument("--quick", action="store_true")
            cmd.add_argument("-o", "--output", default=None)
        if name in ("trace", "metrics"):
            cmd.add_argument("attack", choices=attack_names())
            cmd.add_argument("--rounds", type=_positive_int, default=None)
        if name == "trace":
            cmd.add_argument("--out", default="run.trace.json")
        if name == "metrics":
            cmd.add_argument("--format", choices=("text", "json"), default="text")
        if name == "run":
            cmd.add_argument("attack", nargs="?", default=None, choices=attack_names())
            cmd.add_argument("--suite", action="store_true")
            cmd.add_argument("--rounds", type=_positive_int, default=None)
            cmd.add_argument("--jobs", type=_positive_int, default=1)
            cmd.add_argument("--repeats", type=_positive_int, default=1)
            cmd.add_argument("--format", choices=("text", "json"), default="text")
        if name == "perf":
            cmd.add_argument("attack", nargs="?", default=None, choices=attack_names())
            cmd.add_argument("--suite", action="store_true")
            cmd.add_argument("--rounds", type=_positive_int, default=None)
            cmd.add_argument("--jobs", type=_positive_int, default=2)
            cmd.add_argument("--repeats", type=_positive_int, default=1)
            cmd.add_argument(
                "--format", choices=("text", "json", "trace"), default="text"
            )
            cmd.add_argument(
                "--out",
                default="perf.trace.json",
                help="Chrome trace output path for --format trace",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in (None, "list"):
            for name, (_fn, help_text) in _COMMANDS.items():
                print(f"{name:20s} {help_text}")
            for spec in all_specs():
                print(f"{'run ' + spec.name:20s} {spec.description}")
            return 0
        if args.command == "lint":
            # The linter takes no machine model; dispatch before preset lookup.
            from repro.lint.cli import main as lint_main

            lint_argv = list(args.paths) + ["--format", args.format]
            if args.select:
                lint_argv += ["--select", args.select]
            lint_argv.append("--flow" if args.flow else "--no-flow")
            if args.changed:
                lint_argv.append("--changed")
            if args.list_rules:
                lint_argv.append("--list-rules")
            return lint_main(lint_argv)
        if args.command == "campaign":
            # Campaign specs declare their own machines; early dispatch.
            return cmd_campaign(args)
        if args.command == "leakcheck":
            # Pure static analysis, no machine model; same early dispatch.
            from repro.leakcheck.cli import main as leakcheck_main

            leakcheck_argv = list(args.victims) + ["--format", args.format]
            if args.defense != "none":
                leakcheck_argv += ["--defense", args.defense]
            if args.list_victims:
                leakcheck_argv.append("--list-victims")
            if args.suite:
                leakcheck_argv.append("--suite")
            if args.extract:
                leakcheck_argv += ["--extract", *args.extract]
            if args.scan:
                leakcheck_argv += ["--scan", *args.scan]
            return leakcheck_main(leakcheck_argv)
        params = preset(args.machine)
        _COMMANDS[args.command][0](params, args)
    except BrokenPipeError:  # e.g. `afterimage fig06 | head`
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
