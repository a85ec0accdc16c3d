"""The simulator-backed oracle the static verdicts are tested against.

:func:`observe` mounts the paper's actual attacker machinery — one
:class:`~repro.channels.psc.PrefetcherStatusCheck` canary per victim index
(same aliasing IPs and strides as the static pretrained mode, via
:func:`~repro.leakcheck.analyzer.canary_plan`) plus a prefetch-footprint
probe over the victim's data regions (AfterImage-Cache) — against a victim
replaying ``spec.trace(secret)`` on a quiet :class:`~repro.cpu.Machine`.
:func:`dynamic_leaky` then asks the only question that matters for the
differential test: does the attacker's observation differ between the
analyzer's witness secrets?

The machine is seeded identically per secret, so for a genuinely
secret-independent victim the two runs are bit-for-bit identical and the
oracle reports safe with zero noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.channels.psc import PrefetcherStatusCheck
from repro.cpu.machine import Machine
from repro.leakcheck.analyzer import ATTACKER_CODE_BASE, canary_plan
from repro.leakcheck.trace import VictimSpec
from repro.params import CACHE_LINE_SIZE, PAGE_SIZE, COFFEE_LAKE_I7_9700, MachineParams


@dataclass(frozen=True, slots=True)
class Observation:
    """Everything the attacker sees after one victim execution."""

    psc_triggered: tuple[bool, ...]
    footprints: tuple[tuple[str, frozenset[int]], ...]


def _oracle_params(params: MachineParams | None) -> MachineParams:
    """Quiet, spatial-prefetcher-free machine parameters.

    The DCU/adjacent/streamer prefetchers would add their own (fully
    deterministic, hence harmless) lines to the footprint; disabling them
    keeps the footprint readable as "IP-stride prefetches only".
    """
    if params is None:
        params = COFFEE_LAKE_I7_9700
    return replace(
        params.quiet(),
        enable_dcu_prefetcher=False,
        enable_adjacent_prefetcher=False,
        enable_streamer_prefetcher=False,
    )


def observe(
    spec: VictimSpec,
    secret: int,
    params: MachineParams | None = None,
    seed: int = 0,
) -> Observation:
    """Run attacker-train → victim-trace → attacker-read for one secret."""
    machine = Machine(_oracle_params(params), seed=seed)
    attacker = machine.new_thread("attacker")
    victim = machine.new_thread("victim")

    # Victim data regions, one buffer each (same ordering as the analyzer).
    buffers = {
        region: machine.new_buffer(
            victim.space, spec.region_pages[region] * PAGE_SIZE, name=f"victim-{region}"
        )
        for region in sorted(spec.region_pages)
    }

    # Attacker canaries: the PSC stride palette and aliasing IPs come from
    # the shared canary plan; PSC imposes its own per-page stride bound, so
    # convert bytes back to lines here.
    machine.context_switch(attacker)
    attacker_code = machine.code_region(ATTACKER_CODE_BASE, name="leakcheck-attacker")
    monitors = []
    for k, (train_ip, _base, stride_bytes) in enumerate(canary_plan(spec, machine.params.prefetcher)):
        local_ip = attacker_code.place_aliasing(f"canary{k}", train_ip)
        buffer = machine.new_buffer(
            attacker.space, 2 * PAGE_SIZE, name=f"psc-canary{k}"
        )
        stride_lines = stride_bytes // CACHE_LINE_SIZE
        monitor = PrefetcherStatusCheck(machine, attacker, local_ip, buffer, stride_lines)
        monitor.train()
        monitors.append(monitor)

    # Victim replays its trace (every load TLB-resident, as in §4.3).
    machine.context_switch(victim)
    direct: dict[str, set[int]] = {region: set() for region in buffers}
    for load in spec.trace(secret):
        vaddr = buffers[load.region].addr(load.offset)
        machine.warm_tlb(victim, vaddr)
        machine.load(victim, spec.labels[load.label], vaddr)
        direct[load.region].add(load.offset // CACHE_LINE_SIZE)

    # AfterImage-Cache read: which victim lines are cached *without* having
    # been loaded directly — the prefetch footprint.
    footprints = []
    for region, buffer in sorted(buffers.items()):
        cached = {
            line
            for line in range(buffer.n_lines)
            if line not in direct[region]
            and machine.is_cached(victim, buffer.line_addr(line))
        }
        footprints.append((region, frozenset(cached)))

    # AfterImage-PSC read: poll every canary once.
    machine.context_switch(attacker)
    triggered = tuple(monitor.check().prefetcher_triggered for monitor in monitors)
    return Observation(psc_triggered=triggered, footprints=tuple(footprints))


def dynamic_leaky(
    spec: VictimSpec,
    params: MachineParams | None = None,
    seed: int = 0,
) -> bool:
    """True when the attacker's observation separates some witness pair."""
    cache: dict[int, Observation] = {}

    def observed(secret: int) -> Observation:
        if secret not in cache:
            cache[secret] = observe(spec, secret, params=params, seed=seed)
        return cache[secret]

    mask = (1 << spec.secret_bits) - 1
    for bit in range(spec.secret_bits):
        for base in spec.witness_bases:
            a = base & mask
            if observed(a) != observed(a ^ (1 << bit)):
                return True
    return False
