#!/usr/bin/env python3
"""Where does a parallel attack-suite run spend its wall-clock?

Runs a (scaled-down) attack matrix through the instrumented
``TrialExecutor`` and walks the cross-process telemetry three ways:

* the attribution table partitions the parent's wall-clock into five
  named buckets (serialize / queue / compute / merge / serial) whose sum
  is the wall interval **by construction** — coverage is printed so you
  can check it,
* the per-worker lanes show which pid computed which task, how long it
  queued, and how many KiB crossed the pool in each direction,
* a Chrome ``trace_event`` file is written with one labeled process lane
  per worker — load it in chrome://tracing or https://ui.perfetto.dev.

The same data answers the speedup-below-1 puzzle (``--jobs 2`` on a
one-core container, EXPERIMENTS.md "Where the parallel time goes"): the dominant bucket is compute
inflation from timesharing, not pickling or queueing.

Run:  python examples/perf_timeline.py [--jobs N] [--out perf.trace.json]
"""

import argparse
import dataclasses

from repro.attacks import TrialExecutor, attack_names, build_matrix, get_attack


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--rounds-scale",
        type=float,
        default=0.1,
        help="scale each attack's default rounds (keep runs short)",
    )
    parser.add_argument("--out", default="perf.trace.json")
    args = parser.parse_args()

    tasks = build_matrix(attack_names(), base_seed=args.seed)
    tasks = [
        dataclasses.replace(
            task,
            rounds=max(
                1, int(get_attack(task.attack).default_rounds * args.rounds_scale)
            ),
        )
        for task in tasks
    ]
    result = TrialExecutor(jobs=args.jobs, telemetry=True).run(tasks)
    timeline = result.telemetry
    assert timeline is not None

    print(f"attack suite through the executor, jobs={args.jobs}")
    for name, batch in result.merged.items():
        print(f"  {name:16s} quality {batch.quality:.2f}  ({batch.n_trials} trials)")
    print()
    print("where the time went")
    print(timeline.render_text())
    print()
    attribution = timeline.attribution()
    print(
        f"attribution covers {attribution['coverage'] * 100:.1f}% of the "
        f"{timeline.wall_seconds:.2f}s wall; dominant overhead bucket "
        f"(non-compute): {timeline.dominant_overhead()}"
    )

    timeline.write_chrome(args.out)
    print(
        f"wrote {args.out}: {len(timeline.records)} tasks across "
        f"{len(timeline.lanes())} worker lanes"
    )


if __name__ == "__main__":
    main()
