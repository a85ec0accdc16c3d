"""The resumable campaign runner: cache, execute, retry, persist.

The runner is the one way to run trials: ``afterimage campaign run``,
``afterimage run`` and ``afterimage perf`` (each a one-axis spec over a
temporary store) all come through it.  It makes a campaign *complete*:

1. **Cache first.**  Every cell key is looked up in the
   :class:`~repro.campaign.store.TrialStore`; hits are served without
   building a machine.  A finished campaign therefore re-runs with zero
   executions, and an interrupted one picks up exactly where it stopped —
   resumption is a property of the store, not of any runner state.
2. **Per-cell fault isolation.**  Pending cells run one after another
   in this process behind a wrapper that turns a raising cell into an
   error value; one bad cell cannot abort the sweep or discard its
   siblings.  Parallel fill is ``--shard i/N`` runs into separate stores
   plus ``campaign merge`` (:mod:`repro.fleet`).
3. **Capped-backoff retries.**  Failed cells are collected and re-executed
   as a group, up to ``max_attempts`` rounds, sleeping
   ``BACKOFF_SECONDS * 2**(round-1)`` (capped at ``BACKOFF_CAP_SECONDS``)
   between rounds.  A retried cell reuses its derived seed, so a
   transient crash heals to the *identical* batch an undisturbed run
   produces — aggregates stay byte-for-byte stable.
4. **Persist successes immediately.**  Each successful batch is written
   to the store as soon as its cell finishes, so even a campaign that
   is interrupted or ultimately fails leaves everything it completed on
   disk.

Cells that still fail after the last round are reported as error
outcomes — recorded, not raised — and stay pending for the next
invocation.
"""

from __future__ import annotations

import time
import traceback
from collections.abc import Iterator
from dataclasses import dataclass, field
from time import perf_counter  # repro: noqa[RL003] — campaign measures host wall-clock
from typing import TYPE_CHECKING, Any, Callable

from repro.attacks.trial import TrialBatch
from repro.campaign.experiments import check_experiments, run_cell
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import TrialStore
from repro.obs.telemetry import Timeline

if TYPE_CHECKING:
    from repro.fleet.partition import Shard

RunCellFn = Callable[[CampaignCell], TrialBatch]

#: Sleep before the first retry round; each later round doubles it, up to
#: the cap.
BACKOFF_SECONDS = 0.1
BACKOFF_CAP_SECONDS = 2.0


@dataclass
class CellOutcome:
    """What happened to one cell this invocation."""

    cell: CampaignCell
    batch: TrialBatch | None
    cached: bool
    attempts: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.batch is not None

    @property
    def error_summary(self) -> str | None:
        if self.error is None:
            return None
        lines = [line for line in self.error.strip().splitlines() if line.strip()]
        return lines[-1] if lines else "unknown error"

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.cell.label,
            "key": self.cell.key,
            "cached": self.cached,
            "attempts": self.attempts,
            "ok": self.ok,
            "error": self.error_summary,
        }


@dataclass
class CampaignResult:
    """One invocation's outcomes, in spec cell order."""

    spec: CampaignSpec
    outcomes: list[CellOutcome]
    wall_seconds: float
    telemetry: Timeline | None = None
    #: ``"i/n"`` when this invocation ran one fleet shard, else None.
    shard: str | None = None

    @property
    def cached_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def executed_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok and not outcome.cached)

    @property
    def failed(self) -> list[CellOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def complete(self) -> bool:
        return not self.failed

    @property
    def all_cached(self) -> bool:
        return self.cached_count == len(self.outcomes)

    def groups(self) -> list[tuple[CampaignCell, TrialBatch]]:
        """Repeats merged per (experiment, machine, axis) group.

        Returns ``(representative cell, merged batch)`` pairs in spec
        order — the cell carries the axis so renderers can reason about
        defenses.  Aggregates are recomputed from the union of trials by
        :meth:`TrialBatch.merge`, so they are identical whether the
        batches were just executed or came from the store.
        """
        grouped: dict[str, tuple[CampaignCell, list[TrialBatch]]] = {}
        for outcome in self.outcomes:
            if outcome.batch is None:
                continue
            cell = outcome.cell
            label = f"{cell.experiment}/{cell.machine}/{cell.axis.name}"
            grouped.setdefault(label, (cell, []))[1].append(outcome.batch)
        return [
            (cell, TrialBatch.merge(batches)) for cell, batches in grouped.values()
        ]

    def merged(self) -> dict[str, TrialBatch]:
        """:meth:`groups` keyed by ``experiment/machine/axis`` label."""
        return {
            f"{cell.experiment}/{cell.machine}/{cell.axis.name}": batch
            for cell, batch in self.groups()
        }

    def aggregates(self) -> dict[str, dict[str, Any]]:
        """The wall-clock-free view two runs of one campaign must agree on.

        Everything in a batch is derived from the cell's seed except the
        host ``wall_seconds`` in its span profile, so that field is
        stripped (via :meth:`TrialBatch.wall_clock_free_dict`): cached,
        re-executed, retried-after-a-crash and sharded-then-merged runs of
        the same spec all serialize to byte-identical aggregates (the CI
        smoke jobs assert exactly this).
        """
        return {
            label: batch.wall_clock_free_dict()
            for label, batch in self.merged().items()
        }

    def as_dict(self) -> dict[str, Any]:
        data = {
            "campaign": self.spec.name,
            "shard": self.shard,
            "n_cells": len(self.outcomes),
            "cached": self.cached_count,
            "executed": self.executed_count,
            "failed": len(self.failed),
            "complete": self.complete,
            "wall_seconds": self.wall_seconds,
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
            "aggregates": self.aggregates(),
        }
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry.as_dict()
        return data


@dataclass
class CampaignStatus:
    """The store's answer to "how far along is this campaign?"."""

    spec: CampaignSpec
    cached: list[CampaignCell] = field(default_factory=list)
    pending: list[CampaignCell] = field(default_factory=list)
    #: ``"i/n"`` when the status covers one fleet shard, else None.
    shard: str | None = None
    #: Unreadable store lines noticed while answering (see TrialStore).
    corrupt_lines: int = 0

    @property
    def total(self) -> int:
        return len(self.cached) + len(self.pending)

    @property
    def all_cached(self) -> bool:
        return not self.pending

    def as_dict(self) -> dict[str, Any]:
        return {
            "campaign": self.spec.name,
            "shard": self.shard,
            "total": self.total,
            "cached": len(self.cached),
            "pending": len(self.pending),
            "all_cached": self.all_cached,
            "corrupt_lines": self.corrupt_lines,
            "pending_cells": [cell.label for cell in self.pending],
        }


def campaign_status(
    spec: CampaignSpec, store: TrialStore, shard: "Shard | None" = None
) -> CampaignStatus:
    """Classify every cell of ``spec`` (or one fleet shard of it).

    Also surfaces the store's corrupt-line counter: classifying touches
    every shard file a cell key maps to, so any unreadable line those
    files carry has been counted by the time the loop finishes — silent
    skipping stays silent in the *data* (the cell just reads as pending)
    but not in the operator's status output.
    """
    from repro.fleet.partition import partition_cells

    status = CampaignStatus(spec=spec, shard=str(shard) if shard else None)
    for cell in partition_cells(spec.cells(), shard):
        (status.cached if cell.key in store else status.pending).append(cell)
    status.corrupt_lines = store.corrupt_lines
    return status


def _call_safely(
    fn: RunCellFn, cell: CampaignCell
) -> tuple[TrialBatch | None, str | None]:
    """Cell wrapper: (batch, error) — a raising cell becomes an error value."""
    try:
        return fn(cell), None
    except Exception:
        return None, traceback.format_exc()


class CampaignRunner:
    """Drive a :class:`CampaignSpec` to completion against a store.

    ``run_cell_fn`` exists for fault-injection tests (and any caller that
    wants to wrap execution).  ``jobs`` accepts only 1, the in-process
    path; a parallel fill is ``--shard i/N`` runs plus ``campaign merge``.
    """

    def __init__(
        self,
        store: TrialStore,
        jobs: int = 1,
        max_attempts: int = 3,
        run_cell_fn: RunCellFn | None = None,
        telemetry: bool = False,
    ) -> None:
        if jobs != 1:
            raise ValueError(
                f"jobs must be 1, got {jobs}: cells run in-process; fill in "
                "parallel with `campaign run --shard i/N` workers and `campaign merge`"
            )
        if max_attempts <= 0:
            raise ValueError(f"max_attempts must be positive, got {max_attempts}")
        self.store = store
        self.max_attempts = max_attempts
        self.run_cell_fn: RunCellFn = run_cell_fn or run_cell
        self.telemetry = telemetry

    def run(self, spec: CampaignSpec, shard: "Shard | None" = None) -> CampaignResult:
        """Drive ``spec`` — or, with ``shard``, one fleet slice of it.

        A sharded run is an ordinary run over the subset of cells the
        shard owns (partitioned by cell content hash, see
        :mod:`repro.fleet.partition`): same caching, same fault isolation,
        same retries, same byte-identical aggregates for its slice.
        """
        from repro.fleet.partition import partition_cells

        start = perf_counter()
        check_experiments(spec)
        cells = partition_cells(spec.cells(), shard)
        timeline = Timeline()
        outcomes: dict[str, CellOutcome] = {}
        pending: list[CampaignCell] = []
        for cell in cells:
            with timeline.timing("store"):
                batch = self.store.get(cell.key)
            if batch is not None:
                outcomes[cell.key] = CellOutcome(cell=cell, batch=batch, cached=True)
            else:
                pending.append(cell)

        attempts: dict[str, int] = {}
        errors: dict[str, str] = {}
        for round_number in range(1, self.max_attempts + 1):
            if not pending:
                break
            if round_number > 1:
                with timeline.timing("backoff"):
                    self._backoff(round_number - 1)
            still_failing: list[CampaignCell] = []
            for cell, batch, error in self._execute(pending, timeline):
                attempts[cell.key] = attempts.get(cell.key, 0) + 1
                if batch is not None:
                    with timeline.timing("store"):
                        self.store.put(cell.key, batch)
                    errors.pop(cell.key, None)
                    outcomes[cell.key] = CellOutcome(
                        cell=cell,
                        batch=batch,
                        cached=False,
                        attempts=attempts[cell.key],
                    )
                else:
                    errors[cell.key] = error or "unknown error"
                    still_failing.append(cell)
            pending = still_failing

        for cell in pending:  # out of attempts: record, don't raise
            outcomes[cell.key] = CellOutcome(
                cell=cell,
                batch=None,
                cached=False,
                attempts=attempts.get(cell.key, 0),
                error=errors.get(cell.key),
            )
        timeline.wall_seconds = perf_counter() - start
        return CampaignResult(
            spec=spec,
            outcomes=[outcomes[cell.key] for cell in cells],
            wall_seconds=timeline.wall_seconds,
            telemetry=timeline if self.telemetry else None,
            shard=str(shard) if shard else None,
        )

    def status(self, spec: CampaignSpec, shard: "Shard | None" = None) -> CampaignStatus:
        return campaign_status(spec, self.store, shard=shard)

    # ----------------------------------------------------------------- #
    # Internals                                                          #
    # ----------------------------------------------------------------- #

    def _backoff(self, failed_rounds: int) -> None:
        time.sleep(min(BACKOFF_SECONDS * 2 ** (failed_rounds - 1), BACKOFF_CAP_SECONDS))

    def _execute(
        self, cells: list[CampaignCell], timeline: Timeline
    ) -> Iterator[tuple[CampaignCell, TrialBatch | None, str | None]]:
        """One execution round: every cell once, in order, never raising.

        Each attempt's host seconds go to ``timeline``, so a healed
        campaign's timeline shows every attempt as its own record.
        """
        for cell in cells:
            began = perf_counter()
            batch, error = _call_safely(self.run_cell_fn, cell)
            timeline.add_cell(cell.label, perf_counter() - began, ok=batch is not None)
            yield cell, batch, error
