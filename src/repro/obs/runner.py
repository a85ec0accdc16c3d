"""Shared attack runner for the observability tooling.

`afterimage trace`, `afterimage metrics` and the CI smoke artifact all
need the same thing: construct a machine (optionally traced), run one
named attack, and report a scalar quality figure.  Since the
:mod:`repro.attacks` registry became the single source of truth this
module is a thin compatibility shim over
:func:`repro.attacks.run_on_machine` — it no longer carries its own
dispatch table, so every registered attack (including ``sgx`` and
``switch-leak``, which the old hand-written table missed) is traceable
for free.  :class:`AttackRun` keeps the live machine for callers that
want to poke at its metrics/profile after the run; the full unified
result rides along as :attr:`AttackRun.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.attacks.registry import run_on_machine
from repro.attacks.trial import TrialBatch
from repro.params import DEFAULT_MACHINE, MachineParams

if TYPE_CHECKING:
    from repro.cpu.machine import Machine
    from repro.obs.tracer import Tracer


@dataclass
class AttackRun:
    """Outcome of one runner invocation."""

    name: str
    rounds: int
    quality: float
    detail: str
    machine: "Machine"
    batch: TrialBatch

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "rounds": self.rounds,
            "quality": self.quality,
            "detail": self.detail,
            "simulated_cycles": self.machine.cycles,
            "spans": self.machine.profile.as_dict(),
        }


def run_attack(
    name: str,
    params: MachineParams = DEFAULT_MACHINE,
    seed: int = 2023,
    rounds: int | None = None,
    trace: "Tracer | bool | None" = None,
    sanitize: bool | None = None,
    options: dict[str, Any] | None = None,
) -> AttackRun:
    """Run attack ``name`` on a fresh machine; returns the scored run."""
    from repro.cpu.machine import Machine

    machine = Machine(params, seed=seed, trace=trace, sanitize=sanitize)
    batch = run_on_machine(name, machine, seed=seed, rounds=rounds, options=options)
    return AttackRun(
        name=name,
        rounds=batch.rounds,
        quality=batch.quality,
        detail=batch.detail,
        machine=machine,
        batch=batch,
    )
