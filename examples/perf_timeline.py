#!/usr/bin/env python3
"""Where does an attack-suite run spend its wall-clock?

Runs a (scaled-down) attack suite as a one-axis campaign through
``CampaignRunner(telemetry=True)`` and reads the runner's timeline:

* the attribution table partitions the wall-clock into the cells, the
  trial store, retry backoff and an explicit ``unattributed`` remainder;
  coverage is the share the measured buckets explain,
* the per-cell records rank the attacks by host seconds,
* the timeline is written as JSON (the same document ``afterimage perf
  --format json`` nests under ``telemetry``).

Cells run one after another in this process; to fill a larger grid in
parallel, run ``afterimage campaign run --shard i/N`` workers and merge
their stores (docs/CAMPAIGN.md).

Run:  python examples/perf_timeline.py [--rounds R] [--out perf.json]
"""

import argparse
import json
import tempfile

from repro.attacks import attack_names
from repro.campaign import CampaignRunner, CampaignSpec, TrialStore


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--rounds", type=int, default=4, help="rounds per attack (keep runs short)"
    )
    parser.add_argument("--out", default="perf.json")
    args = parser.parse_args()

    spec = CampaignSpec(
        name="perf-timeline",
        attacks=attack_names(),
        rounds=args.rounds,
        base_seed=args.seed,
    )
    with tempfile.TemporaryDirectory() as store_dir:
        result = CampaignRunner(TrialStore(store_dir), telemetry=True).run(spec)
    timeline = result.telemetry
    assert timeline is not None

    print("where the time went")
    print(timeline.render_text())
    print()
    print("cells by host seconds")
    for record in sorted(timeline.records, key=lambda r: r.seconds, reverse=True):
        print(f"  {record.label:36s} {record.seconds:7.3f}s")
    print()
    attribution = timeline.attribution()
    print(
        f"measured buckets cover {attribution['coverage'] * 100:.1f}% of the "
        f"{timeline.wall_seconds:.2f}s wall; dominant overhead bucket "
        f"(not cells): {timeline.dominant_overhead()}"
    )

    with open(args.out, "w") as handle:
        json.dump(timeline.as_dict(), handle, indent=2)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
