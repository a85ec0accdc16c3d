"""The benchmark's workloads: each call runs one deterministic *unit*.

A unit takes the run's seed, an :class:`Ops` recorder that times each op,
and a scratch directory inside the checkout.  It returns a :class:`Unit`:
the op times, the wall-clock-free outputs the correctness gate hashes,
and the paper claims the outputs agree or disagree with.  The same seed
always yields the same inputs, outputs and simulated counters.

* ``table3`` -- the paper's Table 3 run (section 7.2): V1 cross-thread and
  V1 cross-process, ``TABLE3_ROUNDS`` rounds each on i7-9700 machines
  seeded from the run seed, then V2 user-kernel.  V2's IP search always
  runs on the paper's seed-173 machine: its cost swings 3x with the seed
  (false-negative group tests), which would swamp every timing, so only
  the secrets of V2's measurement rounds come from the run seed.
  An op is one attack round.
* ``revng`` -- the section 4 reverse-engineering sweeps on both Table 2
  presets (quiet machines, one fresh machine per sample); the section 4.6
  SGX check only on the i7-9700, the preset with SGX.  An op is one
  experiment run.
* ``campaign-cold`` -- the builtin ``defense-matrix`` campaign at
  ``CAMPAIGN_ROUNDS`` rounds through ``CampaignRunner(jobs=1)`` into a
  fresh ``TrialStore``, exactly as ``afterimage campaign run`` runs it:
  the spec's base seed fixes every cell seed, so this workload takes no
  input from the run seed.  Moving the base seed moves the cost of the
  variant1-thread eviction-set search by up to 1.5x per cell, which put
  the run-to-run spread of the op-time percentiles past any usable bound.
  An op is one cell.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cpu.machine import Machine
from repro.params import COFFEE_LAKE_I7_9700, HASWELL_I7_4770
from repro.utils.rng import make_rng

#: Rounds per Table 3 variant.  The paper runs 200; 40 keeps a unit near
#: 7 s so a run measures several units.
TABLE3_ROUNDS = 40
#: The paper's Table 3 success rates.
TABLE3_PAPER = {"v1-thread": 0.99, "v1-process": 0.97, "v2-kernel": 0.91}
#: A measured Table 3 rate agrees with the paper's within this many
#: points: 40 rounds carry a ~3.5-point binomial sd, and the model sits up
#: to ~5 points off the paper (99/95.5/95.5 % at 200 rounds).
TABLE3_TOLERANCE = 0.15
#: Round count of the reduced defense-matrix campaign.
CAMPAIGN_ROUNDS = 4
#: A defended campaign group "closes the channel" at or below this
#: quality (the campaign report's own in-band rule).
CLOSED_CHANNEL_QUALITY = 0.65


@dataclass
class Unit:
    """One unit's results."""

    ops: list[float]
    failed: int
    outputs: Any
    claims: dict[str, bool]
    #: Extra timings the unit measures itself (seconds).
    extra: dict[str, float] = field(default_factory=dict)


class Ops:
    """Times each op; an op that raises counts as failed and yields None."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, fn: Callable[..., Any], *args: Any) -> Any:
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a failed op is data, not a crash
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds.append(time.perf_counter() - start)


def plain(value: Any) -> Any:
    """JSON-ready form of experiment results (dataclasses become dicts)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    return repr(value)


# --------------------------------------------------------------------- #
# table3                                                                  #
# --------------------------------------------------------------------- #


def table3(seed: int, ops: Ops, workdir: str) -> Unit:
    from repro.core.variant1 import Variant1CrossProcess, Variant1CrossThread
    from repro.core.variant2 import Variant2UserKernel

    outputs: dict[str, Any] = {}
    claims: dict[str, bool] = {}
    rates: dict[str, float] = {}
    for name, cls, base in (
        ("v1-thread", Variant1CrossThread, 171),
        ("v1-process", Variant1CrossProcess, 172),
    ):
        machine_seed = base + 3 * seed
        machine = Machine(COFFEE_LAKE_I7_9700, seed=machine_seed)
        attack = cls(machine)
        secrets = make_rng(machine_seed)
        rounds = [
            ops(attack.run_round, int(secrets.integers(0, 2))) for _ in range(TABLE3_ROUNDS)
        ]
        rates[name] = sum(r is not None and r.success for r in rounds) / TABLE3_ROUNDS
        outputs[name] = {"rounds": plain(rounds), "metrics": machine.metrics().as_dict()}

    machine = Machine(COFFEE_LAKE_I7_9700, seed=173)
    secrets = [make_rng(173)]
    attack = Variant2UserKernel(machine, secret_source=lambda: int(secrets[0].integers(0, 2)))
    search = attack.find_target_index()
    claims["v2-kernel/ip-search-finds-index"] = search.index == attack.true_target_index
    secrets[0] = make_rng(173 + 3 * seed)
    rounds = [ops(attack.run_round) for _ in range(TABLE3_ROUNDS)]
    rates["v2-kernel"] = sum(r is not None and r.success for r in rounds) / TABLE3_ROUNDS
    outputs["v2-kernel"] = {
        "search": {
            "index": search.index,
            "syscalls": search.syscalls_used,
            "groups": search.groups_tested,
        },
        "rounds": plain(rounds),
        "metrics": machine.metrics().as_dict(),
    }
    for name, paper in TABLE3_PAPER.items():
        claims[f"{name}/rate-{paper:.2f}"] = abs(rates[name] - paper) <= TABLE3_TOLERANCE
    outputs["rates"] = rates
    unit = Unit(ops.seconds, ops.failed, outputs, claims)
    unit.extra["table3_gap_pp"] = 100.0 * sum(
        abs(rates[name] - paper) for name, paper in TABLE3_PAPER.items()
    ) / len(TABLE3_PAPER)
    return unit


# --------------------------------------------------------------------- #
# revng                                                                   #
# --------------------------------------------------------------------- #


def _revng_claims(tag: str, r: dict[str, Any]) -> dict[str, bool]:
    """The paper's section 4 findings, checked per sample/row where possible."""
    claims: dict[str, bool] = {}
    for s in r["fig6"] or []:
        claims[f"{tag}/fig6/bits{s.matched_bits}"] = s.prefetched == (s.matched_bits >= 8)
    for fig, want in (
        ("fig7a", [(True, False), (False, False), (False, True)]),
        ("fig7b", [(True, False), (False, True)]),
    ):
        flags = [(s.st1_triggered, s.st2_triggered) for s in r[fig] or []]
        for i, expected in enumerate(want):
            claims[f"{tag}/{fig}/access{i + 1}"] = i < len(flags) and flags[i] == expected
    for n in (26, 30):
        samples = r[f"fig8a-{n}"] or []
        evicted = {s.input_index for s in samples if not s.triggered}
        claims[f"{tag}/fig8a-{n}/leading-evicted"] = bool(samples) and set(
            range(1, n - 24 + 1)
        ) <= evicted
        claims[f"{tag}/fig8a-{n}/few-extra"] = bool(samples) and len(evicted) <= n - 24 + 2
        claims[f"{tag}/fig8a-{n}/24-entries"] = sum(s.triggered for s in samples) >= 22
    evicted = {s.input_index for s in r["fig8b"] or [] if not s.triggered}
    has_8b = bool(r["fig8b"])
    claims[f"{tag}/fig8b/refreshed-survive"] = has_8b and not evicted & set(range(1, 9))
    claims[f"{tag}/fig8b/run-9-16-evicted"] = has_8b and set(range(9, 17)) <= evicted
    claims[f"{tag}/fig8b/nothing-else"] = has_8b and evicted <= set(range(9, 18))
    if "sgx" in r:
        claims[f"{tag}/sec4.6/survives-eexit"] = bool(
            r["sgx"] and r["sgx"].prefetched_survives_exit
        )
    for row in r["table1"] or []:
        if row.pool == "recl":
            ok = row.prefetchable and row.shares_physical_page
        elif row.virtual_page_offset == 1:
            ok = row.prefetchable and not row.shares_physical_page
        else:
            ok = not row.prefetchable
        claims[f"{tag}/table1/{row.pool}-{row.virtual_page_offset}"] = ok
    claims[f"{tag}/sec4.3/second-access-activates"] = r["second-access"] is True
    return claims


def revng(seed: int, ops: Ops, workdir: str) -> Unit:
    from repro.revng import (
        EntryCountExperiment,
        IndexingExperiment,
        PageBoundaryExperiment,
        ReplacementPolicyExperiment,
        SGXInterplayExperiment,
        StrideUpdateExperiment,
    )

    outputs: dict[str, Any] = {}
    claims: dict[str, bool] = {}
    for params in (HASWELL_I7_4770, COFFEE_LAKE_I7_9700):
        stride = StrideUpdateExperiment(params, seed=seed)
        entries = EntryCountExperiment(params, seed=seed)
        pages = PageBoundaryExperiment(params, seed=seed)
        results = {
            "fig6": ops(IndexingExperiment(params, seed=seed).run, 16),
            "fig7a": ops(lambda: stride.run(st_1=7, st_2=5, offset_lines=3)),
            "fig7b": ops(lambda: stride.run(st_1=7, st_2=5, offset_lines=5)),
            "fig8a-26": ops(entries.run, 26),
            "fig8a-30": ops(entries.run, 30),
            "fig8b": ops(ReplacementPolicyExperiment(params, seed=seed).run),
            "table1": ops(lambda: pages.run(max_offset=4)),
            "second-access": ops(pages.second_access_activates),
        }
        if params.sgx_supported:
            results["sgx"] = ops(SGXInterplayExperiment(params, seed=seed).run)
        outputs[params.name] = plain(results)
        claims.update(_revng_claims(params.name, results))
    return Unit(ops.seconds, ops.failed, outputs, claims)


# --------------------------------------------------------------------- #
# campaign-cold                                                           #
# --------------------------------------------------------------------- #


def campaign_cold(seed: int, ops: Ops, workdir: str) -> Unit:
    from repro.campaign import CampaignRunner, TrialStore, builtin_campaign
    from repro.campaign import experiments

    # The builtin spec's own base seed: see the module docstring.
    spec = dataclasses.replace(builtin_campaign("defense-matrix"), rounds=CAMPAIGN_ROUNDS)

    def timed_cell(cell):
        # Looked up per call so a traced unit's hook on run_cell fires; the
        # runner isolates exceptions and counts them, so they pass through.
        start = time.perf_counter()
        try:
            return experiments.run_cell(cell)
        finally:
            ops.seconds.append(time.perf_counter() - start)

    store_dir = tempfile.mkdtemp(prefix="store-", dir=workdir)
    try:
        runner = CampaignRunner(TrialStore(store_dir), jobs=1, run_cell_fn=timed_cell)
        start = time.perf_counter()
        result = runner.run(spec)
        runner_wall = time.perf_counter() - start
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    claims = {}
    for cell, batch in result.groups():
        if cell.axis.defense != "none":
            label = f"{cell.experiment}/{cell.axis.name}/closes-channel"
            claims[label] = batch.quality <= CLOSED_CHANNEL_QUALITY
    unit = Unit(ops.seconds, len(result.failed), result.aggregates(), claims)
    unit.extra["campaign.overhead_s"] = runner_wall - sum(ops.seconds)
    return unit


WORKLOAD_FNS: dict[str, Callable[[int, Ops, str], Unit]] = {
    "table3": table3,
    "revng": revng,
    "campaign-cold": campaign_cold,
}
