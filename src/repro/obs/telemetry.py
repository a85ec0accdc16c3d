"""Campaign-runner telemetry: where one invocation's host wall-clock went.

The span profile attributes simulated cycles (and host seconds) to the
phases inside one machine, and perfbench attributes a fixed workload
layer by layer.  Neither covers an arbitrary campaign invocation's own
cost outside the cells: trial-store reads and writes, retry backoff and
the runner's bookkeeping.  A :class:`Timeline` records each executed
cell's host seconds and partitions the run's wall-clock into named
buckets:

* ``cells`` — the sum of per-cell host seconds (machine builds and trials);
* ``store`` — trial-store reads and writes;
* ``backoff`` — sleeps between retry rounds;
* ``unattributed`` — the rest of the wall (spec checks, cell
  partitioning, outcome bookkeeping), shown as its own row rather than
  left as a silent gap.

``coverage`` is the share of the wall the three measured buckets explain.
Cells run one after another in the runner's process, so the buckets never
overlap and always sum to the wall.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter  # repro: noqa[RL003] — telemetry measures host wall-clock
from typing import Any

#: The measured buckets, in rendering order; ``unattributed`` follows them.
MEASURED = ("cells", "store", "backoff")
#: Every attribution bucket, in rendering order.
BUCKETS = (*MEASURED, "unattributed")


@dataclass(frozen=True)
class CellRecord:
    """One executed cell attempt: its label, host seconds and outcome."""

    label: str
    seconds: float
    ok: bool

    def as_dict(self) -> dict[str, Any]:
        return {"label": self.label, "seconds": self.seconds, "ok": self.ok}


@dataclass
class Timeline:
    """Per-cell host seconds plus the runner's own measured overheads.

    A retried cell contributes one record per attempt, so a healed run
    shows every attempt.  ``wall_seconds`` is set by the runner when the
    invocation ends.
    """

    wall_seconds: float = 0.0
    records: list[CellRecord] = field(default_factory=list)
    measured: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(MEASURED, 0.0)
    )

    def add_cell(self, label: str, seconds: float, ok: bool) -> None:
        self.records.append(CellRecord(label, seconds, ok))
        self.measured["cells"] += seconds

    @contextmanager
    def timing(self, bucket: str) -> Iterator[None]:
        """Add the host seconds of the ``with`` body to ``bucket``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.measured[bucket] += perf_counter() - start

    # -- attribution ---------------------------------------------------- #

    def buckets(self) -> dict[str, float]:
        """The measured buckets plus the ``unattributed`` remainder.

        They sum to ``wall_seconds`` unless timer jitter makes the
        measured buckets exceed it, in which case the remainder clamps
        at zero.
        """
        buckets = dict(self.measured)
        buckets["unattributed"] = max(0.0, self.wall_seconds - sum(self.measured.values()))
        return buckets

    def attribution(self) -> dict[str, Any]:
        """Buckets with shares, plus coverage (measured / wall)."""
        buckets = self.buckets()
        wall = self.wall_seconds
        measured = sum(self.measured.values())
        return {
            "wall_seconds": wall,
            "coverage": min(measured, wall) / wall if wall > 0 else 1.0,
            "buckets": {
                name: {
                    "seconds": seconds,
                    "share": seconds / wall if wall > 0 else 0.0,
                }
                for name, seconds in buckets.items()
            },
        }

    def dominant_overhead(self) -> str:
        """The non-``cells`` bucket with the largest share."""
        overheads = {k: v for k, v in self.buckets().items() if k != "cells"}
        return max(overheads, key=lambda name: overheads[name])

    def slowest(self) -> CellRecord | None:
        return max(self.records, key=lambda record: record.seconds, default=None)

    # -- rendering -------------------------------------------------------- #

    def as_dict(self) -> dict[str, Any]:
        return {
            "attribution": self.attribution(),
            "cells": [record.as_dict() for record in self.records],
        }

    def render_text(self) -> str:
        attribution = self.attribution()
        lines = [
            f"timeline: {len(self.records)} cell attempts, "
            f"wall {self.wall_seconds:.3f}s, "
            f"coverage {attribution['coverage'] * 100:.1f}%",
            f"{'bucket':<12}  {'seconds':>9}  {'share':>6}",
        ]
        for name, entry in attribution["buckets"].items():
            lines.append(f"{name:<12}  {entry['seconds']:>9.3f}  {entry['share']:>6.1%}")
        slowest = self.slowest()
        if slowest is not None:
            lines.append(f"slowest cell: {slowest.label} ({slowest.seconds:.3f}s)")
        return "\n".join(lines)
