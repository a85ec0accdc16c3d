"""The witness-pair differencing pass: ``analyze(spec) -> LeakReport``.

For each secret bit ``b`` and each witness base, the analyzer abstractly
executes the victim's load trace for the pair ``(s, s ^ (1 << b))`` on a
fresh :class:`~repro.leakcheck.table.AbstractTable` and diffs the outcomes:
final entry states (existence / stride / confidence / last address) and
per-entry prefetch footprints.  Any difference means a secret bit flowed
into attacker-observable prefetcher state — the exact precondition of
AfterImage-PSC (state readback, §6.1) and AfterImage-Cache (footprint
probing, §5).

Each pair is executed in two table modes:

* **cold** — empty table, catching divergences in what the victim itself
  trains (including self-triggered prefetch footprints);
* **pretrained** — attacker PSC canaries (saturated confidence, known
  stride, one per victim index) installed first, catching divergences a
  single victim load makes observable by disturbing a monitored entry.

Defenses are applied statically: ``tagged`` removes the aliasing
(entries become unreachable — paper §8.2's full-IP+ASID tag),
``flush-on-switch`` clears the table before the attacker can look
(§8.3), and ``oblivious`` analyzes the victim's secret-independent
rewrite (§8.2).
"""

from __future__ import annotations

from repro.cpu.code import match_low_bits
from repro.defenses.static_model import STATIC_DEFENSES
from repro.leakcheck.report import LeakReport, LeakyEntry
from repro.leakcheck.table import AbstractTable
from repro.leakcheck.trace import VictimSpec
from repro.params import CACHE_LINE_SIZE, PAGE_SIZE, IPStrideParams

#: Where the attacker's aliasing gadget is assumed to live (same default as
#: :class:`repro.core.gadget.TrainingGadget`) — used to materialize a
#: concrete witness IP for each leaky entry.
ATTACKER_CODE_BASE = 0x0060_0000

#: Abstract base of the attacker's PSC training buffers (pretrained mode).
ATTACKER_DATA_BASE = 0x00A0_0000

#: Abstract base / spacing of the victim's named data regions.
VICTIM_DATA_BASE = 0x0100_0000
REGION_SPACING = 0x0010_0000

#: PSC canary strides, in lines (the paper trains with 7/11/13: prime, and
#: beyond the 4-line reach of the spatial prefetchers, §7.1).
CANARY_STRIDE_LINES = (7, 11, 13)

DEFENSES = tuple(STATIC_DEFENSES)


def region_bases(spec: VictimSpec) -> dict[str, int]:
    """Page-aligned abstract base address for each named data region."""
    bases = {}
    offset = 0
    for region in sorted(spec.region_pages):
        bases[region] = VICTIM_DATA_BASE + offset
        offset += max(REGION_SPACING, spec.region_pages[region] * PAGE_SIZE)
    return bases


def canary_plan(
    spec: VictimSpec, params: IPStrideParams
) -> list[tuple[int, int, int]]:
    """(train_ip, buffer_base, stride_bytes) per distinct victim index.

    Shared by the static pretrained mode and the dynamic oracle
    (:mod:`repro.leakcheck.dynamic`), so both attackers monitor the same
    entries with the same strides.
    """
    plan = []
    for k, (index, labels) in enumerate(sorted(spec.indexes(params.index_bits).items())):
        train_ip = match_low_bits(
            ATTACKER_CODE_BASE, spec.labels[labels[0]], params.index_bits
        )
        stride = CANARY_STRIDE_LINES[k % len(CANARY_STRIDE_LINES)] * CACHE_LINE_SIZE
        plan.append((train_ip, ATTACKER_DATA_BASE + k * PAGE_SIZE, stride))
    return plan


def _run_trace(
    spec: VictimSpec, secret: int, params: IPStrideParams, pretrained: bool
) -> AbstractTable:
    table = AbstractTable(params)
    bases = region_bases(spec)
    if pretrained:
        for train_ip, buffer_base, stride in canary_plan(spec, params):
            table.pretrain(train_ip, buffer_base, stride)
    for load in spec.trace(secret):
        table.load(spec.labels[load.label], bases[load.region] + load.offset, load.taint)
    return table


def _diff(
    t0: AbstractTable, t1: AbstractTable
) -> dict[int, tuple[set[str], set[str]]]:
    """index → (divergence kinds, responsible taint) between two runs."""
    live0, live1 = t0.live_entries(), t1.live_entries()
    indexes = set(live0) | set(live1)
    indexes |= {p.index for p in t0.prefetches} | {p.index for p in t1.prefetches}
    result: dict[int, tuple[set[str], set[str]]] = {}
    for index in indexes:
        e0, e1 = live0.get(index), live1.get(index)
        kinds: set[str] = set()
        if (e0 is None) != (e1 is None):
            kinds.add("existence")
        elif e0 is not None and e1 is not None:
            if e0.stride != e1.stride:
                kinds.add("stride")
            if e0.confidence != e1.confidence:
                kinds.add("confidence")
            if e0.last_paddr != e1.last_paddr:
                kinds.add("last-addr")
        if t0.prefetch_targets(index) != t1.prefetch_targets(index):
            kinds.add("prefetch")
        if not kinds:
            continue
        taint = set(t0.taint_of(index) | t1.taint_of(index))
        for table in (t0, t1):
            for prefetch in table.prefetches:
                if prefetch.index == index:
                    taint |= prefetch.taint
        result[index] = (kinds, taint)
    return result


def analyze(
    spec: VictimSpec,
    defense: str = "none",
    params: IPStrideParams | None = None,
) -> LeakReport:
    """Statically classify one victim under one defense."""
    if defense not in STATIC_DEFENSES:
        raise ValueError(f"unknown defense {defense!r} (one of {', '.join(DEFENSES)})")
    model = STATIC_DEFENSES[defense]
    if params is None:
        params = IPStrideParams()

    notes: list[str] = []
    target = spec
    if model.rewrites_victim:
        target = spec.oblivious()
        if target is None:
            raise ValueError(
                f"victim {spec.name!r} defines no oblivious rewrite to analyze"
            )
        notes.append("analyzed the oblivious (secret-independent) rewrite")

    # Accumulated divergence: index → kinds / taint / bits / cold-prefetch flag.
    kinds_by_index: dict[int, set[str]] = {}
    taint_by_index: dict[int, set[str]] = {}
    bits_by_index: dict[int, set[int]] = {}
    cold_prefetch: set[int] = set()
    leaky_bits: list[int] = []
    witness: tuple[int, int] | None = None
    mask = (1 << target.secret_bits) - 1

    for bit in range(target.secret_bits):
        bit_diverges = False
        for base in target.witness_bases:
            a = base & mask
            b = a ^ (1 << bit)
            for pretrained in (False, True):
                diff = _diff(
                    _run_trace(target, a, params, pretrained),
                    _run_trace(target, b, params, pretrained),
                )
                for index, (kinds, taint) in diff.items():
                    kinds_by_index.setdefault(index, set()).update(kinds)
                    taint_by_index.setdefault(index, set()).update(taint)
                    bits_by_index.setdefault(index, set()).add(bit)
                    if not pretrained and "prefetch" in kinds:
                        cold_prefetch.add(index)
                if diff:
                    bit_diverges = True
                    if witness is None:
                        witness = (a, b)
        if bit_diverges:
            leaky_bits.append(bit)

    index_labels = target.indexes(params.index_bits)
    reachable = not model.blocks_readback
    entries = []
    for index in sorted(kinds_by_index):
        labels = sorted(taint_by_index[index] | set(index_labels.get(index, [])))
        victim_ips = tuple(
            sorted(target.labels[label] for label in labels if label in target.labels)
        )
        attacker_ip = (
            match_low_bits(ATTACKER_CODE_BASE, victim_ips[0], params.index_bits)
            if reachable and victim_ips
            else None
        )
        entries.append(
            LeakyEntry(
                index=index,
                labels=tuple(labels),
                ips=victim_ips,
                kinds=tuple(sorted(kinds_by_index[index])),
                bits=tuple(sorted(bits_by_index[index])),
                reachable=reachable,
                attacker_ip=attacker_ip,
                self_triggered=index in cold_prefetch,
            )
        )

    if reachable:
        verdict = "leaky" if leaky_bits else "safe"
    else:
        verdict = "safe"
        if model.removes_aliasing:
            notes.append(
                "full-IP + ASID entry tags remove the low-8-bit aliasing; "
                "secret-dependent entries exist but no attacker load can reach them"
            )
        else:
            notes.append(
                "history table is cleared on every domain switch; trained state "
                "never survives into the attacker's time slice"
            )
        if cold_prefetch:
            notes.append(
                "self-triggered prefetch footprints remain secret-dependent — a "
                "generic cache side channel outside AfterImage's aliasing model"
            )

    if verdict == "leaky":
        severity = "high" if len(leaky_bits) == target.secret_bits else "medium"
    else:
        severity = "none"
    return LeakReport(
        victim=spec.name,
        defense=defense,
        verdict=verdict,
        severity=severity,
        secret_bits=target.secret_bits,
        leaky_bits=tuple(leaky_bits),
        witness=witness if verdict == "leaky" else None,
        entries=tuple(entries),
        notes=tuple(notes),
    )
