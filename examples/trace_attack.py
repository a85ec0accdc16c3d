#!/usr/bin/env python3
"""Trace a Variant 1 attack and attribute its cycles phase by phase.

Runs the cross-process AfterImage branch leak with structured tracing
enabled, then uses the observability layer three ways:

* the cycle-attribution profiler shows where the simulated time went
  (train / prime / victim / probe),
* the in-memory ring buffer is queried for the prefetcher's own
  ``TableTransition`` history — the ground truth the attack infers,
* a Chrome ``trace_event`` file is written for chrome://tracing or
  https://ui.perfetto.dev.

Run:  python examples/trace_attack.py [--rounds N] [--out run.trace.json]
"""

import argparse
from collections import Counter

from repro import Machine
from repro.attacks import run_on_machine
from repro.obs.sinks import ChromeTraceSink, RingBufferSink
from repro.obs.tracer import Tracer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--out", default="run.trace.json")
    parser.add_argument("--seed", type=int, default=2023)
    args = parser.parse_args()

    ring = RingBufferSink(capacity=None)
    chrome = ChromeTraceSink(args.out)
    tracer = Tracer([ring, chrome])
    machine = Machine(seed=args.seed, trace=tracer)
    batch = run_on_machine("variant1", machine, seed=args.seed, rounds=args.rounds)
    tracer.close()

    print("AfterImage Variant 1, traced")
    print(f"result: {batch.detail}  (quality {batch.quality:.2f})")
    print()

    print("cycle attribution by phase:")
    print(machine.profile.render_text(machine.cycles))
    print()

    counts = Counter(event.kind for event in ring.events())
    print("event stream:")
    for kind, count in counts.most_common():
        print(f"  {kind:<18} {count:>7}")
    print()

    transitions = ring.events("TableTransition")
    trained = [
        e for e in transitions
        if e.after is not None and e.after.confidence >= 2 and e.triggered
    ]
    print(
        f"prefetcher history: {len(transitions)} table transitions, "
        f"{len(trained)} confident triggering updates"
    )
    last = trained[-1]
    print(
        f"  last trigger: entry {last.index} stride {last.after.stride:+d} "
        f"confidence {last.after.confidence} at cycle {last.cycle}"
    )
    print()
    print(f"wrote {args.out} — open it in chrome://tracing or ui.perfetto.dev")


if __name__ == "__main__":
    main()
