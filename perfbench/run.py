"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table3 --seed 0 --seconds 40 --trace 0

The simulator is imported from ``src/`` next to this directory.  Units of
the workload (see ``workloads.py``) run back to back, single process,
until the next one would overrun ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics from untraced units; ``--trace 1`` alternates untraced
and traced units and reports the per-layer metrics of the traced ones
(``layers.py``).  Every metric is printed by name with its unit, then the
correctness verdict, and last a one-line JSON result.  A JSON artifact
with provenance, per-unit figures and the span table is written under
``perfbench/out/``.

Exit codes: 0 ran (the verdict is in the result), 1 a layer hook is
missing or never fired, 2 the simulator cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

#: Child-process timer for ``setup_s``: a fresh interpreter's cost of
#: ``import repro``, the first Machine build and the first load.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from repro import COFFEE_LAKE_I7_9700, PAGE_SIZE, Machine
machine = Machine(COFFEE_LAKE_I7_9700, seed=int(sys.argv[2]))
ctx = machine.new_thread("setup-probe")
buf = machine.new_buffer(ctx.space, PAGE_SIZE)
machine.load(ctx, 0x401000, buf.line_addr(0))
print(time.perf_counter() - start)
"""
SETUP_PROBES = 5

#: Layers that run only in some workloads report their share of the
#: traced wall (%), not seconds, so no metric reads a constant 0 s.
SHARE_LAYERS = (
    "core.setup", "core.ip_search", "campaign.cell", "campaign.store_put", "campaign.store_get",
)

WORKLOADS = ("table3", "revng", "campaign-cold")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_loads_per_s": "loads/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "paper_agree_frac": "ratio",
    "ok_ops_frac": "ratio",
}


@dataclass
class UnitRun:
    traced: bool
    wall: float
    ops: list[float]
    failed: int
    errors: list[str]
    digest: str
    counters: dict[str, int]
    calls: dict[str, int] | None
    layers: dict[str, float] | None
    edges: list[list] | None
    claims: dict[str, bool]
    extra: dict[str, float]


def digest_of(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def run_unit(workload: str, seed: int, traced: bool) -> UnitRun:
    """Run one unit; a traced one also checks that its hooks fired."""
    import layers
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    gc.collect()
    ops = workloads.Ops()
    tracer = layers.LayerTracer() if traced else None
    # The tracer goes on first so the counters' snapshots stay outside cpu.build.
    with tracer if tracer is not None else nullcontext(), layers.MachineCounters() as machines:
        start = time.perf_counter()
        unit = workloads.WORKLOAD_FNS[workload](seed, ops, str(OUT))
        wall = time.perf_counter() - start
        counters = machines.totals()
    calls = per_layer = edges = None
    if tracer is not None:
        tracer.check_live(workload)
        calls = {layer: stat[0] for layer, stat in tracer.stats.items()}
        per_layer = layer_metrics(tracer.stats, counters, wall, unit.extra)
        edges = [[parent, child, n, s] for (parent, child), (n, s) in sorted(tracer.edges.items())]
    return UnitRun(
        traced, wall, unit.ops, unit.failed, ops.errors, digest_of(unit.outputs),
        counters, calls, per_layer, edges, unit.claims, unit.extra,
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats, counters, wall: float, extra) -> dict[str, float]:
    """Per-layer metrics of one traced unit (see README.md for each name)."""
    out: dict[str, float] = {}
    attributed = 0.0
    for layer, (calls, self_s) in stats.items():
        attributed += self_s
        out[f"{layer}.calls"] = calls
        if layer in SHARE_LAYERS:
            out[f"{layer}.share"] = 100.0 * self_s / wall
        else:
            out[f"{layer}.self_s"] = self_s
    builds, build_s = stats["cpu.build"]
    out["cpu.build.ms"] = 1000.0 * _ratio(build_s, builds)
    out["campaign.overhead.share"] = 100.0 * extra.get("campaign.overhead_s", 0.0) / wall
    c = counters
    out["cpu.os.timer_irqs"] = c.get("machine.timer_interrupts", 0)
    out["mmu.tlb_hit_ratio"] = _ratio(c["tlb.hits"], c["tlb.hits"] + c["tlb.misses"])
    out["memsys.l1_hit_ratio"] = _ratio(
        c["cache.l1.hits"], c["cache.l1.hits"] + c["cache.l1.misses"]
    )
    out["memsys.llc_miss_ratio"] = _ratio(
        c["cache.llc.misses"], c["cache.llc.hits"] + c["cache.llc.misses"]
    )
    out["memsys.noise_access_share"] = _ratio(
        c["hierarchy.demand_accesses"] - c["loads"], c["hierarchy.demand_accesses"]
    )
    out["prefetch.issued"] = c["hierarchy.prefetch_fills"]
    out["prefetch.useful_ratio"] = _ratio(
        c["hierarchy.prefetch_useful"], c["hierarchy.prefetch_fills"]
    )
    out["unattributed_s"] = wall - attributed
    return out


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "share": "%", "ms": "ms"}


def per_layer_unit(name: str) -> str:
    if name in ("cpu.os.timer_irqs", "prefetch.issued"):
        return "count"
    if name == "unattributed_s":
        return "s"
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def measure_setup(seed: int) -> list[float]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(seed)],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def run_units(workload: str, seed: int, seconds: float, trace: bool) -> list[UnitRun]:
    """Units back to back until the next would overrun ``seconds``.

    With ``trace`` the units alternate untraced, traced, untraced, ...
    """
    units: list[UnitRun] = []
    start = time.perf_counter()
    traced = False
    while True:
        units.append(run_unit(workload, seed, traced))
        if trace:
            traced = not traced
        elapsed = time.perf_counter() - start
        same_kind = [u.wall for u in units if u.traced == traced]
        estimate = same_kind[-1] if same_kind else units[-1].wall * 1.5
        complete = not trace or len({u.traced for u in units}) == 2
        if complete and elapsed + estimate > seconds:
            return units


def check(units: list[UnitRun], reference: dict | None) -> tuple[int, list[str]]:
    """(failed ops, problems) for the correctness gate and repeat checks."""
    failed = sum(u.failed for u in units)
    problems = [e for u in units for e in u.errors]
    want_digest = reference["digest"] if reference else units[0].digest
    for i, u in enumerate(units):
        if u.digest != want_digest:
            failed += len(u.ops) - u.failed
            problems.append(f"unit {i}: output digest {u.digest[:12]} != {want_digest[:12]}")
    want_counters = reference["counters"] if reference else units[0].counters
    traced = [u for u in units if u.traced]
    want_calls = reference["calls"] if reference else (traced[0].calls if traced else None)
    for i, u in enumerate(units):
        if u.counters != want_counters:
            problems.append(f"unit {i}: machine counters differ from the expected ones")
        if u.traced and u.calls != want_calls:
            problems.append(f"unit {i}: layer call counts differ from the expected ones")
    return failed, problems


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(units, setup, failed, attempted) -> dict[str, float]:
    walls = [u.wall for u in units]
    ops = [s for u in units for s in u.ops]
    claims = units[0].claims
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "sim_loads_per_s": units[0].counters["loads"] / statistics.median(walls),
        "op_ms_p50": 1000.0 * statistics.median(ops),
        "op_ms_p90": 1000.0 * quantile(ops, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "paper_agree_frac": sum(claims.values()) / len(claims),
        "ok_ops_frac": 1.0 - failed / attempted,
    }


def per_layer(units) -> dict[str, float]:
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    out = {
        name: statistics.median(u.layers[name] for u in traced) for name in traced[0].layers
    }
    out["trace_overhead_ratio"] = (
        statistics.median(u.wall for u in traced) / statistics.median(u.wall for u in plain) - 1.0
    )
    return out


def prepare():
    """Import the simulator from ``src/`` with its default settings.

    Returns ``repro.bench.provenance``; raises ImportError without ``src/``.
    """
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]  # sanitizer/tracer switches would change the timings
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError("no repro package under src/")
    sys.path.insert(0, str(SRC))
    from repro.bench import provenance

    return provenance


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        provenance = prepare()
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {SRC}: {exc}", file=sys.stderr)
        return 2
    import layers

    load_start = os.getloadavg()
    setup = [] if args.trace else measure_setup(args.seed)
    try:
        units = run_units(args.workload, args.seed, args.seconds, bool(args.trace))
    except layers.HookError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    reference = None
    if REFERENCE.exists():
        recorded = json.loads(REFERENCE.read_text()).get(args.workload, {})
        reference = recorded.get(str(args.seed))
    failed, problems = check(units, reference)
    attempted = sum(len(u.ops) for u in units)
    plain = [u for u in units if not u.traced]
    metrics = (
        per_layer(units) if args.trace else end_to_end(plain, setup, failed, attempted)
    )
    units_of = per_layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    correct = not problems

    artifact = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "reference_checked": reference is not None,
        "correct": correct,
        "problems": problems,
        "setup_s": setup,
        "paper_err_pp": 100.0 - 100.0 * sum(units[0].claims.values()) / len(units[0].claims),
        "claims": units[0].claims,
        "extra": units[0].extra,
        "counters": units[0].counters,
        "units": [
            {
                "traced": u.traced, "wall_s": u.wall, "ops": len(u.ops), "failed": u.failed,
                "digest": u.digest, "calls": u.calls, "layers": u.layers, "spans": u.edges,
                "op_seconds": u.ops,
            }
            for u in units
        ],
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)} ops={attempted} nproc={os.cpu_count()} "
          f"loadavg={load_start[0]:.2f}->{artifact['loadavg_end'][0]:.2f}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units_of(name)}")
    print(f"  {'paper_err_pp':32s} {artifact['paper_err_pp']:>16.6g} pp")
    for problem in problems:
        print(f"  problem: {problem}", file=sys.stderr)
    verdict = "reference digest" if reference else "repeat-consistency only (no reference)"
    print(f"correct: {correct} ({verdict}); failed {failed}/{attempted}; artifact {path}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
