"""The unified result schema every registered attack emits.

The paper's evaluation treats its attacks as one family — train an
IP-stride entry, perturb it, measure — so their outcomes share one shape:
per round, a ground-truth outcome, the outcome the attacker inferred, and
whether they agree.  :class:`Trial` captures one such round (keeping the
attack's rich result dataclass as an opaque ``payload``);
:class:`TrialBatch` is one scenario execution — a machine, a seed, a list
of trials, the scored quality figure, and serializable machine snapshots
(span profile + metrics) so batches outlive the
:class:`~repro.cpu.machine.Machine` that produced them.

Batches from a trial matrix (attack × seed × machine) merge with
:meth:`TrialBatch.merge`, which recomputes the aggregate success rate from
the union of trials — how the cells were split across runs (repeats,
fleet shards) therefore cannot change any aggregate number, only the
wall-clock it takes to produce it.

Batches also round-trip through plain dicts: ``TrialBatch.from_dict(
batch.as_dict())`` reconstructs every aggregate-bearing field, which is
what lets the :mod:`repro.campaign` trial store persist cells as JSONL and
serve them back on a resumed campaign.  The one deliberate loss is the
per-trial ``payload`` (the attack's rich result object): it is excluded
from :meth:`Trial.as_dict` and comes back as ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Trial:
    """One observation round of one attack.

    ``true_outcome``/``inferred_outcome`` are small JSON-able values (a
    bit, an arm name, a symbol); ``payload`` carries the attack's original
    rich result object and is excluded from :meth:`as_dict`.  ``cycles``
    and ``spans`` attribute the round's simulated time; attacks whose
    rounds are not individually driven (e.g. a monolithic key recovery)
    report zero there and rely on the batch-level profile.
    """

    index: int
    true_outcome: Any
    inferred_outcome: Any
    success: bool
    cycles: int = 0
    spans: dict[str, int] = field(default_factory=dict)
    payload: Any = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "true_outcome": self.true_outcome,
            "inferred_outcome": self.inferred_outcome,
            "success": self.success,
            "cycles": self.cycles,
            "spans": dict(self.spans),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Trial":
        """Rebuild a trial from :meth:`as_dict` output (payload is lost)."""
        return cls(
            index=int(data["index"]),
            true_outcome=data["true_outcome"],
            inferred_outcome=data["inferred_outcome"],
            success=bool(data["success"]),
            cycles=int(data.get("cycles", 0)),
            spans={str(k): int(v) for k, v in (data.get("spans") or {}).items()},
            payload=None,
        )


@dataclass
class TrialBatch:
    """All trials of one scenario execution, plus machine snapshots."""

    attack: str
    seed: int
    machine: str
    rounds: int
    trials: list[Trial]
    quality: float
    detail: str
    simulated_cycles: int
    spans: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def successes(self) -> int:
        return sum(1 for trial in self.trials if trial.success)

    @property
    def success_rate(self) -> float:
        if not self.trials:
            return 0.0
        return self.successes / len(self.trials)

    @property
    def wall_seconds(self) -> float:
        """Host seconds attributed to the ``total`` span (0.0 if absent)."""
        total = self.spans.get("total")
        return float(total["wall_seconds"]) if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "attack": self.attack,
            "seed": self.seed,
            "machine": self.machine,
            "rounds": self.rounds,
            "n_trials": self.n_trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "quality": self.quality,
            "detail": self.detail,
            "simulated_cycles": self.simulated_cycles,
            "spans": self.spans,
            "metrics": self.metrics,
            "notes": self.notes,
            "trials": [trial.as_dict() for trial in self.trials],
        }

    def wall_clock_free_dict(self) -> dict[str, Any]:
        """:meth:`as_dict` with host wall-clock stripped from the spans.

        This is the canonical determinism view: every field left is
        derived from the seed, so two same-seed runs — serial, sharded and
        merged, cached, retried, telemetry on or off — must serialize to
        byte-identical JSON.  The campaign aggregates compare exactly
        this.
        """
        data = self.as_dict()
        data["spans"] = {
            name: {k: v for k, v in stats.items() if k != "wall_seconds"}
            for name, stats in data["spans"].items()
        }
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TrialBatch":
        """Rebuild a batch from :meth:`as_dict` output (the store read path).

        The derived aggregates (``n_trials``, ``successes``,
        ``success_rate``) are recomputed from the trial list; when the dict
        carries them they are cross-checked, so a record whose trial lines
        were truncated fails loudly here instead of serving wrong numbers.
        """
        trials = [Trial.from_dict(t) for t in data.get("trials", [])]
        if "n_trials" in data and int(data["n_trials"]) != len(trials):
            raise ValueError(
                f"corrupt batch record: n_trials={data['n_trials']} but "
                f"{len(trials)} trials present"
            )
        successes = sum(1 for trial in trials if trial.success)
        if "successes" in data and int(data["successes"]) != successes:
            raise ValueError(
                f"corrupt batch record: successes={data['successes']} but "
                f"trials contain {successes}"
            )
        return cls(
            attack=str(data["attack"]),
            seed=int(data["seed"]),
            machine=str(data["machine"]),
            rounds=int(data["rounds"]),
            trials=trials,
            quality=float(data["quality"]),
            detail=str(data["detail"]),
            simulated_cycles=int(data["simulated_cycles"]),
            spans=dict(data.get("spans") or {}),
            metrics=dict(data.get("metrics") or {}),
            notes=dict(data.get("notes") or {}),
        )

    @classmethod
    def merge(cls, batches: list["TrialBatch"]) -> "TrialBatch":
        """Aggregate same-attack batches (one matrix cell over many seeds).

        Trials are concatenated in batch order; the merged quality is the
        plain success rate over the union — every builtin scorer's quality
        coincides with it, so merging commutes with scoring.  Metrics
        counters are summed; non-numeric metric values are dropped.

        The merged batch's scalar ``seed``/``machine`` fields can only hold
        one value, so the full provenance — every constituent seed in batch
        order and the set of machines — is recorded in ``notes`` under
        ``merged_seeds``/``merged_machines``; a merged artifact written to
        disk stays reproducible without the raw batches.
        """
        if not batches:
            raise ValueError("cannot merge zero batches")
        names = {batch.attack for batch in batches}
        if len(names) != 1:
            raise ValueError(f"refusing to merge different attacks: {sorted(names)}")
        if len(batches) == 1:
            return batches[0]
        trials: list[Trial] = []
        for batch in batches:
            trials.extend(batch.trials)
        spans: dict[str, dict[str, Any]] = {}
        for batch in batches:
            for name, stats in batch.spans.items():
                agg = spans.setdefault(
                    name, {"count": 0, "cycles": 0, "wall_seconds": 0.0}
                )
                agg["count"] += stats["count"]
                agg["cycles"] += stats["cycles"]
                agg["wall_seconds"] += stats["wall_seconds"]
        metrics: dict[str, Any] = {}
        for batch in batches:
            for key, value in batch.metrics.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                metrics[key] = metrics.get(key, 0) + value
        successes = sum(1 for trial in trials if trial.success)
        quality = successes / len(trials) if trials else 0.0
        return cls(
            attack=batches[0].attack,
            seed=batches[0].seed,
            machine=batches[0].machine,
            rounds=sum(batch.rounds for batch in batches),
            trials=trials,
            quality=quality,
            detail=(
                f"{successes}/{len(trials)} trials succeeded "
                f"across {len(batches)} batches"
            ),
            simulated_cycles=sum(batch.simulated_cycles for batch in batches),
            spans=spans,
            metrics=metrics,
            notes={
                "merged_batches": len(batches),
                "merged_seeds": [batch.seed for batch in batches],
                "merged_machines": sorted({batch.machine for batch in batches}),
            },
        )
