"""Cell execution: registry attacks under defenses, plus ``table1``.

A campaign cell names an *experiment*.  Almost always that is one of the
eight registered attacks, executed through the ordinary
:func:`repro.attacks.run_trials` path with the cell's defense applied to
the freshly built machine via the ``configure`` hook.  On top of those,
the campaign layer defines one pseudo-experiment of its own —
``table1`` — which wraps the §4.3 page-boundary reverse-engineering sweep
(:class:`~repro.revng.page_boundary.PageBoundaryExperiment`) in the same
:class:`~repro.attacks.trial.TrialBatch` schema: each Table 1 row becomes
a trial whose ground truth is the paper's published verdict, so the
``revng-table1`` builtin campaign scores exactly like an attack sweep.

Defense names on the axis map to machine mutations:

========================  ====================================================
``none``                  the vulnerable baseline
``flush-on-switch``       §8.3: ``machine.flush_prefetcher_on_switch = True``
``tagged``                §8.2: :func:`repro.defenses.harden_machine`
``disabled``              §8.2: :func:`repro.defenses.disable_ip_stride_prefetcher`
========================  ====================================================
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Callable

from repro.attacks.registry import attack_names, get_attack, run_trials
from repro.attacks.trial import Trial, TrialBatch
from repro.campaign.spec import CampaignCell, CampaignSpec

if TYPE_CHECKING:
    from repro.cpu.machine import Machine

#: Pseudo-experiments owned by the campaign layer (not in the registry),
#: with the options each one reads and their defaults.
_CAMPAIGN_OPTIONS: dict[str, dict[str, Any]] = {
    "table1": {"max_offset": 4, "stride_lines": 7},
}
CAMPAIGN_EXPERIMENTS = tuple(_CAMPAIGN_OPTIONS)


def _flush_on_switch(machine: "Machine") -> None:
    machine.flush_prefetcher_on_switch = True


def _tagged(machine: "Machine") -> None:
    from repro.defenses import harden_machine

    harden_machine(machine)


def _disabled(machine: "Machine") -> None:
    from repro.defenses import disable_ip_stride_prefetcher

    disable_ip_stride_prefetcher(machine)


_DEFENSE_APPLIERS: dict[str, Callable[["Machine"], None] | None] = {
    "none": None,
    "flush-on-switch": _flush_on_switch,
    "tagged": _tagged,
    "disabled": _disabled,
}


def experiment_names() -> tuple[str, ...]:
    """Everything a campaign may name: registry attacks + pseudo-experiments."""
    return attack_names() + CAMPAIGN_EXPERIMENTS


def experiment_options(name: str) -> dict[str, Any]:
    """The options experiment ``name`` takes, with their defaults: a
    registry attack's are its scenario factory's keyword parameters after
    ``(machine, rng)``."""
    if name in _CAMPAIGN_OPTIONS:
        return _CAMPAIGN_OPTIONS[name]
    parameters = list(inspect.signature(get_attack(name).scenario).parameters.values())
    return {parameter.name: parameter.default for parameter in parameters[2:]}


def check_experiments(spec: CampaignSpec) -> None:
    """Reject a spec naming an unknown experiment, an option a listed
    experiment does not take, or an option value whose type is not its
    default's, before any cell runs: such a spec would fail the same way
    on every retry.

    Options for experiments the spec does not list are ignored, so
    ``--attacks`` can shrink a spec without dropping its option tables.
    """
    known = experiment_names()
    unknown = sorted(set(spec.attacks) - set(known))
    if unknown:
        raise ValueError(
            f"campaign {spec.name!r} names unknown experiment(s): "
            f"{', '.join(unknown)}; known: {', '.join(sorted(known))}"
        )
    for name in spec.attacks:
        takes = experiment_options(name)
        bad = sorted(set(spec.options.get(name, {})) - set(takes))
        if bad:
            raise ValueError(
                f"campaign {spec.name!r}: {name} takes no option(s) "
                f"{', '.join(bad)}; it takes: {', '.join(takes) or 'none'}"
            )
        for key, value in sorted(spec.options.get(name, {}).items()):
            default = takes[key]
            if type(value) is not type(default):
                raise ValueError(
                    f"campaign {spec.name!r}: {name} option {key} must be "
                    f"{type(default).__name__} like its default {default!r}, got {value!r}"
                )


def defense_applier(defense: str) -> Callable[["Machine"], None] | None:
    if defense not in _DEFENSE_APPLIERS:
        raise ValueError(
            f"unknown defense {defense!r}; known: {', '.join(_DEFENSE_APPLIERS)}"
        )
    return _DEFENSE_APPLIERS[defense]


def run_cell(cell: CampaignCell) -> TrialBatch:
    """Execute one campaign cell (the worker entry point).

    The returned batch carries the cell's content-only coordinates in
    ``notes["campaign_cell"]`` so a stored artifact is self-describing.
    """
    if cell.experiment == "table1":
        batch = _run_table1(cell)
    else:
        batch = run_trials(
            cell.experiment,
            params=cell.params,
            seed=cell.seed,
            rounds=cell.rounds,
            options=cell.options_dict(),
            configure=defense_applier(cell.axis.defense),
        )
    batch.notes["campaign_cell"] = cell.provenance()
    return batch


def _table1_expected(pool: str, offset: int) -> bool:
    """Table 1's published verdict for one row: every ``recl`` offset is
    prefetchable (all pages share the zero frame); ``lock`` only at offset
    1 (the next-page prefetcher), never beyond."""
    return pool == "recl" or offset == 1


def _run_table1(cell: CampaignCell) -> TrialBatch:
    """The §4.3 page-boundary sweep, scored against the paper's Table 1."""
    from repro.revng.page_boundary import PageBoundaryExperiment

    if cell.axis.defense != "none":
        raise ValueError(
            "the table1 experiment builds its machines internally and "
            f"cannot apply defense {cell.axis.defense!r}; use a 'none' axis"
        )
    options = {**_CAMPAIGN_OPTIONS["table1"], **cell.options_dict()}
    max_offset = int(options["max_offset"])
    stride_lines = int(options["stride_lines"])
    rows = PageBoundaryExperiment(cell.params, seed=cell.seed).run(
        stride_lines=stride_lines, max_offset=max_offset
    )
    trials = [
        Trial(
            index=index,
            true_outcome=_table1_expected(row.pool, row.virtual_page_offset),
            inferred_outcome=row.prefetchable,
            success=row.prefetchable
            == _table1_expected(row.pool, row.virtual_page_offset),
            cycles=row.access_time,
            spans={},
            payload=row,
        )
        for index, row in enumerate(rows)
    ]
    wins = sum(1 for trial in trials if trial.success)
    quality = wins / len(trials) if trials else 0.0
    notes: dict[str, Any] = {
        "max_offset": max_offset,
        "stride_lines": stride_lines,
        "rows": [
            {
                "pool": row.pool,
                "offset": row.virtual_page_offset,
                "shares_frame": row.shares_physical_page,
                "prefetchable": row.prefetchable,
            }
            for row in rows
        ],
    }
    return TrialBatch(
        attack="table1",
        seed=cell.seed,
        machine=cell.machine,
        rounds=len(trials),
        trials=trials,
        quality=quality,
        detail=f"{wins}/{len(trials)} Table 1 rows match the paper",
        simulated_cycles=sum(row.access_time for row in rows),
        notes=notes,
    )
