#!/usr/bin/env python3
"""Where does a parallel attack-suite run spend its wall-clock?

Runs a (scaled-down) attack suite as a one-axis campaign through
``CampaignRunner(telemetry=True)`` and walks the cross-process telemetry
three ways:

* the attribution table partitions the parent's wall-clock into four
  named buckets (serialize / queue / compute / serial) whose sum is the
  wall interval **by construction** — coverage is printed so you can
  check it,
* the per-worker lanes show which pid computed which cell, how long it
  queued, and how many KiB crossed the pool in each direction,
* a Chrome ``trace_event`` file is written with one labeled process lane
  per worker — load it in chrome://tracing or https://ui.perfetto.dev.

The same data answers the speedup-below-1 puzzle (``--jobs 2`` on a
one-core container, EXPERIMENTS.md "Where the parallel time goes"): the dominant bucket is compute
inflation from timesharing, not pickling or queueing.

Run:  python examples/perf_timeline.py [--jobs N] [--rounds R] [--out perf.trace.json]
"""

import argparse
import tempfile

from repro.attacks import attack_names
from repro.campaign import CampaignRunner, CampaignSpec, TrialStore


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--rounds", type=int, default=4, help="rounds per attack (keep runs short)"
    )
    parser.add_argument("--out", default="perf.trace.json")
    args = parser.parse_args()

    spec = CampaignSpec(
        name="perf-timeline",
        attacks=attack_names(),
        rounds=args.rounds,
        base_seed=args.seed,
    )
    with tempfile.TemporaryDirectory() as store_dir:
        runner = CampaignRunner(TrialStore(store_dir), jobs=args.jobs, telemetry=True)
        result = runner.run(spec)
    timeline = result.telemetry
    assert timeline is not None

    print(f"attack suite through the campaign runner, jobs={args.jobs}")
    for cell, batch in result.groups():
        print(
            f"  {cell.experiment:16s} quality {batch.quality:.2f}  "
            f"({batch.n_trials} trials)"
        )
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
        f"wrote {args.out}: {len(timeline.records)} cells across "
        f"{len(timeline.lanes())} worker lanes"
    )


if __name__ == "__main__":
    main()
