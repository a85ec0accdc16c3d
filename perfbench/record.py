"""Record the reference entries the correctness gate compares against.

Usage, from the repository root::

    python3 perfbench/record.py --seeds 0-15

For each workload and seed this runs one traced unit and stores, in
``perfbench/reference.json``, the digest of its wall-clock-free outputs,
its summed machine counters and its per-layer call counts.  A change that
only speeds the simulator up must reproduce every entry; re-record only
for a change that is meant to alter simulated behaviour, and say so.
"""

from __future__ import annotations

import argparse
import json

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    parser.add_argument("--workload", action="append", choices=list(run.WORKLOADS))
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    run.prepare()
    data = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for workload in args.workload or run.WORKLOADS:
        for seed in seeds:
            unit = run.run_unit(workload, seed, traced=True)
            if unit.failed:
                raise SystemExit(f"{workload} seed {seed}: {unit.failed} ops failed: {unit.errors}")
            data.setdefault(workload, {})[str(seed)] = {
                "digest": unit.digest,
                "counters": unit.counters,
                "calls": unit.calls,
            }
            print(f"{workload} seed {seed}: {unit.digest[:16]} {unit.wall:.2f}s", flush=True)
    run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
