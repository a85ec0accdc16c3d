"""The attack registry: one source of truth for every attack consumer.

Before this module existed the repo wired its eight attacks by hand in
four places (the CLI, the observability runner, the report generator and
the benchmark harness), each with its own dispatch table and result
handling; the ``sgx`` and ``switch-leak`` attacks were simply missing from
the tools whose tables nobody extended.  Here an attack registers exactly
once::

    @register_attack(
        "variant1", "cross-process Flush+Reload (Fig. 13c)",
        default_rounds=40, covers=("Variant1CrossProcess",),
    )
    def _variant1(machine, rng, **options):
        return _SomeScenario(machine, rng, **options)

and every consumer — ``afterimage run/trace/metrics``, the report, the
bench harness, the :class:`~repro.campaign.runner.CampaignRunner` —
discovers it through :func:`attack_names`/:func:`get_attack`.

``covers`` names the :mod:`repro.core` classes the spec drives; lint rule
RL012 cross-checks it so a future attack class cannot bypass the registry.
``leakcheck_victim`` links the spec to the :mod:`repro.leakcheck` victim
modeling the same program, tying the dynamic and static registries
together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from repro.attacks.trial import Trial, TrialBatch
from repro.params import DEFAULT_MACHINE, MachineParams
from repro.utils.rng import make_rng

if TYPE_CHECKING:
    from repro.cpu.machine import Machine
    from repro.obs.tracer import Tracer


@runtime_checkable
class Attack(Protocol):
    """What a scenario factory must return: an object that runs trials.

    ``notes`` is optional scenario-level metadata (bandwidth, IP-search
    stats, ...) surfaced on the resulting :class:`TrialBatch`; scenarios
    without extras can omit the attribute entirely.
    """

    def run_trials(self, rounds: int) -> list[Trial]: ...


#: Scorer signature: (trials, notes) -> (scalar quality, human detail).
Scorer = Callable[[list[Trial], dict[str, Any]], tuple[float, str]]


def success_rate_score(trials: list[Trial], notes: dict[str, Any]) -> tuple[float, str]:
    """The default quality scorer: fraction of successful trials."""
    if not trials:
        return 0.0, "no trials ran"
    wins = sum(1 for trial in trials if trial.success)
    return wins / len(trials), f"{wins}/{len(trials)} trials succeeded"


@dataclass(frozen=True)
class AttackSpec:
    """One registered attack: identity, defaults, factory, scorer."""

    name: str
    description: str
    default_rounds: int
    scenario: Callable[..., Attack]
    score: Scorer = success_rate_score
    covers: tuple[str, ...] = ()
    leakcheck_victim: str | None = None


_REGISTRY: dict[str, AttackSpec] = {}


def register_attack(
    name: str,
    description: str,
    default_rounds: int,
    score: Scorer = success_rate_score,
    covers: tuple[str, ...] = (),
    leakcheck_victim: str | None = None,
) -> Callable[[Callable[..., Attack]], Callable[..., Attack]]:
    """Decorator registering a scenario factory as attack ``name``."""
    if default_rounds <= 0:
        raise ValueError(f"default_rounds must be positive, got {default_rounds}")

    def decorate(factory: Callable[..., Attack]) -> Callable[..., Attack]:
        if name in _REGISTRY:
            raise ValueError(f"attack {name!r} is already registered")
        _REGISTRY[name] = AttackSpec(
            name=name,
            description=description,
            default_rounds=default_rounds,
            scenario=factory,
            score=score,
            covers=covers,
            leakcheck_victim=leakcheck_victim,
        )
        return factory

    return decorate


def _ensure_builtin() -> None:
    # Importing the builtin module runs its @register_attack decorators.
    import repro.attacks.builtin  # noqa: F401


def attack_names() -> tuple[str, ...]:
    """Every registered attack name, in registration order."""
    _ensure_builtin()
    return tuple(_REGISTRY)


def get_attack(name: str) -> AttackSpec:
    _ensure_builtin()
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown attack {name!r}; known: {', '.join(_REGISTRY)}"
        )
    return _REGISTRY[name]


def all_specs() -> tuple[AttackSpec, ...]:
    _ensure_builtin()
    return tuple(_REGISTRY.values())


def registered_covers() -> frozenset[str]:
    """Union of every spec's ``covers`` — the RL012 allow-list."""
    _ensure_builtin()
    return frozenset(
        class_name for spec in _REGISTRY.values() for class_name in spec.covers
    )


# --------------------------------------------------------------------- #
# Execution                                                              #
# --------------------------------------------------------------------- #


def run_on_machine(
    name: str,
    machine: "Machine",
    seed: int = 2023,
    rounds: int | None = None,
    options: dict[str, Any] | None = None,
) -> TrialBatch:
    """Run attack ``name`` on an existing machine; returns the scored batch.

    The scenario is constructed *inside* the ``total`` span so setup work
    (eviction-set building, IP search) is attributed like any other phase.
    The attack's round RNG is seeded independently of the machine, exactly
    as the pre-registry runner did.
    """
    spec = get_attack(name)
    if rounds is None:
        rounds = spec.default_rounds
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    rng = make_rng(seed)
    with machine.span("total"):
        scenario = spec.scenario(machine, rng, **(options or {}))
        trials = scenario.run_trials(rounds)
    notes = dict(getattr(scenario, "notes", None) or {})
    quality, detail = spec.score(trials, notes)
    return TrialBatch(
        attack=name,
        seed=seed,
        machine=machine.params.name,
        rounds=rounds,
        trials=trials,
        quality=quality,
        detail=detail,
        simulated_cycles=machine.cycles,
        spans=machine.profile.as_dict(),
        metrics=machine.metrics().as_dict(),
        notes=notes,
    )


def run_trials(
    name: str,
    params: MachineParams = DEFAULT_MACHINE,
    seed: int = 2023,
    rounds: int | None = None,
    trace: "Tracer | bool | None" = None,
    sanitize: bool | None = None,
    options: dict[str, Any] | None = None,
    configure: Callable[["Machine"], None] | None = None,
) -> TrialBatch:
    """Run attack ``name`` on a fresh machine built from ``params``.

    ``configure`` is called on the freshly built machine before the attack
    starts — the hook the :mod:`repro.campaign` defense axis uses to apply
    ``flush_prefetcher_on_switch`` / ``harden_machine`` /
    ``disable_ip_stride_prefetcher`` without every caller re-implementing
    machine construction.
    """
    from repro.cpu.machine import Machine

    machine = Machine(params, seed=seed, trace=trace, sanitize=sanitize)
    if configure is not None:
        configure(machine)
    return run_on_machine(name, machine, seed=seed, rounds=rounds, options=options)
