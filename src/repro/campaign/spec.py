"""Declarative campaign specs and content-addressed cell identity.

A campaign is the paper's evaluation style written down once: a set of
experiments (registry attacks plus the ``table1`` reverse-engineering
sweep) crossed with machine presets, a defense/noise axis, and a repeat
count.  :meth:`CampaignSpec.cells` expands that cross product into
concrete :class:`CampaignCell`\\ s, each carrying

* the fully resolved :class:`~repro.params.MachineParams` (preset with the
  axis's noise overrides applied),
* a derived seed, mixed with :func:`~repro.utils.rng.stable_seed` from the
  cell coordinates so dispatch order and worker scheduling cannot change
  any stream, and
* a **content hash** (:attr:`CampaignCell.key`): SHA-256 over the fields
  that determine the cell's result — experiment name, rounds, options,
  defense, the machine-params fingerprint, and the derived seed.

The key deliberately excludes the campaign name and the axis *label*:
two campaigns asking for the same computation share one store entry, and
renaming an axis does not invalidate the cache.  (The axis's *content*
does feed the seed derivation, so distinct defense/noise points get
independent streams.)

Specs load from TOML (Python 3.11+) or JSON files, or from plain dicts::

    name = "my-sweep"
    attacks = ["variant1", "covert"]
    machines = ["i7-9700"]
    repeats = 2
    rounds = 10

    [[axes]]
    name = "baseline"

    [[axes]]
    name = "flushed"
    defense = "flush-on-switch"

    [[axes]]
    name = "noisy"
    noise = { switch_variable_ips = 4 }

    [options.covert]
    entries = 4
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

from repro.params import MachineParams, NoiseParams, preset
from repro.utils.rng import stable_seed

#: Bump when the cell-key recipe changes: every key embeds it, so old
#: store entries simply stop matching instead of being misread.
SCHEMA_VERSION = 1

#: The defense names a cell axis may request (applied in
#: :mod:`repro.campaign.experiments`).
DEFENSE_NAMES = ("none", "flush-on-switch", "tagged", "disabled")

_NOISE_FIELDS = frozenset(f.name for f in dataclasses.fields(NoiseParams))


def canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def params_fingerprint(params: MachineParams) -> str:
    """Alias for :meth:`repro.params.MachineParams.fingerprint`.

    Any model-parameter change — a latency, a prefetcher knob, a noise
    level — changes the fingerprint and therefore every cell key built on
    it: stale results can never be served for a reconfigured machine.
    """
    return params.fingerprint()


@dataclass(frozen=True)
class AxisPoint:
    """One point on the defense/noise axis.

    ``noise`` holds :class:`~repro.params.NoiseParams` field overrides as a
    sorted tuple of pairs so the dataclass stays frozen and comparable.
    """

    name: str
    defense: str = "none"
    noise: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.defense not in DEFENSE_NAMES:
            raise ValueError(
                f"axis {self.name!r}: unknown defense {self.defense!r}; "
                f"known: {', '.join(DEFENSE_NAMES)}"
            )
        unknown = [key for key, _value in self.noise if key not in _NOISE_FIELDS]
        if unknown:
            raise ValueError(
                f"axis {self.name!r}: unknown noise field(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(_NOISE_FIELDS))}"
            )
        object.__setattr__(self, "noise", tuple(sorted(self.noise)))

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AxisPoint":
        noise = data.get("noise") or {}
        return cls(
            name=str(data["name"]),
            defense=str(data.get("defense", "none")),
            noise=tuple(sorted((str(k), v) for k, v in noise.items())),
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "defense": self.defense,
            "noise": dict(self.noise),
        }

    def content_label(self) -> str:
        """A label derived from the axis *content*, not its display name.

        Feeds seed derivation, so renaming an axis keeps every stream (and
        hence every cell key) unchanged.
        """
        return canonical_json({"defense": self.defense, "noise": dict(self.noise)})

    def apply_noise(self, params: MachineParams) -> MachineParams:
        if not self.noise:
            return params
        return params.with_noise(**dict(self.noise))


def cell_seed(
    base_seed: int, experiment: str, machine: str, axis: AxisPoint, repeat: int
) -> int:
    """Derive one cell's seed from its coordinates, dispatch-order free.

    The axis content is a coordinate, so each defense/noise point draws
    an independent stream.  ``afterimage run`` and ``perf`` go through a
    one-axis spec, so this is the only seed recipe for a trial batch.
    """
    label = f"{experiment}:{machine}:{axis.content_label()}:{repeat}"
    return (base_seed * 1_000_003 + stable_seed(label)) % 2**32


@dataclass(frozen=True)
class CampaignCell:
    """One fully resolved point of the campaign matrix."""

    experiment: str
    machine: str
    axis: AxisPoint
    repeat: int
    seed: int
    rounds: int | None
    options: tuple[tuple[str, Any], ...]
    params: MachineParams

    @cached_property
    def key(self) -> str:
        """The content hash under which this cell's batch is stored.

        Computed once per cell: the machine fingerprint behind it costs a
        full ``asdict`` and SHA-256 of the params, and the runner, the
        store and the fleet partition each read the key.
        """
        material = canonical_json(
            {
                "schema": SCHEMA_VERSION,
                "experiment": self.experiment,
                "rounds": self.rounds,
                "options": dict(self.options),
                "defense": self.axis.defense,
                "machine": params_fingerprint(self.params),
                "seed": self.seed,
            }
        )
        return hashlib.sha256(material.encode()).hexdigest()

    @property
    def label(self) -> str:
        """Human-facing coordinates, e.g. ``variant1/i7-9700/flushed#0``."""
        return f"{self.experiment}/{self.machine}/{self.axis.name}#{self.repeat}"

    def options_dict(self) -> dict[str, Any]:
        return dict(self.options)

    def provenance(self) -> dict[str, Any]:
        """Content-only cell coordinates, recorded on the batch's notes."""
        return {
            "key": self.key,
            "defense": self.axis.defense,
            "noise": dict(self.axis.noise),
            "repeat": self.repeat,
        }


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative campaign: what to run, crossed how many ways."""

    name: str
    attacks: tuple[str, ...]
    machines: tuple[str, ...] = ("i7-9700",)
    axes: tuple[AxisPoint, ...] = (AxisPoint(name="baseline"),)
    repeats: int = 1
    rounds: int | None = None
    base_seed: int = 2023
    options: dict[str, dict[str, Any]] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if not self.attacks:
            raise ValueError(f"campaign {self.name!r}: no attacks listed")
        if not self.axes:
            raise ValueError(f"campaign {self.name!r}: no axis points listed")
        if self.repeats <= 0:
            raise ValueError(
                f"campaign {self.name!r}: repeats must be positive, got {self.repeats}"
            )
        if self.rounds is not None and self.rounds <= 0:
            raise ValueError(
                f"campaign {self.name!r}: rounds must be positive, got {self.rounds}"
            )
        for what, names in (
            ("attack", self.attacks),
            ("machine", self.machines),
            ("axis name", [axis.name for axis in self.axes]),
        ):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                # Two cells with one key and seed would run twice and be
                # merged twice, double-counting every trial.
                raise ValueError(
                    f"campaign {self.name!r}: duplicate {what}(s): {', '.join(repeated)}"
                )
        for machine in self.machines:
            preset(machine)  # raises KeyError on unknown presets

    @property
    def n_cells(self) -> int:
        return len(self.attacks) * len(self.machines) * len(self.axes) * self.repeats

    def cells(self) -> list[CampaignCell]:
        """Expand the cross product into seeded, content-addressed cells."""
        cells: list[CampaignCell] = []
        for machine_name in self.machines:
            base_params = preset(machine_name)
            for axis in self.axes:
                params = axis.apply_noise(base_params)
                for attack in self.attacks:
                    options = tuple(sorted(self.options.get(attack, {}).items()))
                    for repeat in range(self.repeats):
                        cells.append(
                            CampaignCell(
                                experiment=attack,
                                machine=base_params.name,
                                axis=axis,
                                repeat=repeat,
                                seed=cell_seed(
                                    self.base_seed,
                                    attack,
                                    base_params.name,
                                    axis,
                                    repeat,
                                ),
                                rounds=self.rounds,
                                options=options,
                                params=params,
                            )
                        )
        return cells

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "attacks": list(self.attacks),
            "machines": list(self.machines),
            "axes": [axis.as_dict() for axis in self.axes],
            "repeats": self.repeats,
            "rounds": self.rounds,
            "base_seed": self.base_seed,
            "options": {k: dict(v) for k, v in self.options.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignSpec":
        axes = tuple(
            AxisPoint.from_dict(axis) for axis in data.get("axes", [])
        ) or (AxisPoint(name="baseline"),)
        rounds = data.get("rounds")
        return cls(
            name=str(data["name"]),
            attacks=tuple(str(a) for a in data.get("attacks", [])),
            machines=tuple(str(m) for m in data.get("machines", ["i7-9700"])),
            axes=axes,
            repeats=int(data.get("repeats", 1)),
            rounds=None if rounds is None else int(rounds),
            base_seed=int(data.get("base_seed", 2023)),
            options={
                str(k): dict(v) for k, v in (data.get("options") or {}).items()
            },
            description=str(data.get("description", "")),
        )


def load_spec(path: str | Path) -> CampaignSpec:
    """Load a spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11
            raise RuntimeError(
                "TOML campaign specs need Python 3.11+ (tomllib); "
                "use a .json spec on this interpreter"
            ) from exc
        data = tomllib.loads(text)
    elif path.suffix == ".json":
        data = json.loads(text)
    else:
        raise ValueError(
            f"unknown campaign spec format {path.suffix!r} (expected .toml or .json)"
        )
    return CampaignSpec.from_dict(data)
