"""Unified attack registry and trial schema.

See ``docs/ATTACKS.md``.  The eight attacks of the paper register
themselves in :mod:`repro.attacks.builtin`; consumers discover them via
:func:`attack_names`/:func:`get_attack` and run them with
:func:`run_trials` (fresh machine) or :func:`run_on_machine` (existing
machine), getting back a :class:`TrialBatch`.  Sweeps go through
:class:`repro.campaign.CampaignRunner`.
"""

from repro.attacks.registry import (
    Attack,
    AttackSpec,
    Scorer,
    all_specs,
    attack_names,
    get_attack,
    register_attack,
    registered_covers,
    run_on_machine,
    run_trials,
    success_rate_score,
)
from repro.attacks.trial import Trial, TrialBatch

__all__ = [
    "Attack",
    "AttackSpec",
    "Scorer",
    "Trial",
    "TrialBatch",
    "all_specs",
    "attack_names",
    "get_attack",
    "register_attack",
    "registered_covers",
    "run_on_machine",
    "run_trials",
    "success_rate_score",
]
