"""The pluggable components behind the ``Machine`` facade.

Each component owns exactly one subsystem; everything a component needs
from a sibling arrives either as a call argument or through an explicitly
wired ``*_port`` callable (assigned by ``Machine._wire_components``).  The
bodies are deliberate transplants of the pre-kernel ``Machine`` methods —
operation order and RNG draw order are part of the equivalence contract
pinned by ``tests/test_kernel_equivalence.py``.

Load path (a plain call chain driven by ``Machine.load``)::

    OSComponent.maybe_tick → TLB.translate → CacheHierarchy.access
        → PrefetchComponent.observe → RetireComponent.retire

The two modelling rules the old ``Machine`` enforced inline live in the
prefetch component now: a TLB-missing access does not update prefetcher
state (paper §4.3), and every prefetch fill is announced *before* it is
installed so the trace shows cause before effect.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable

import numpy as np

from repro.cpu.context import ThreadContext
from repro.cpu.kernel.core import Component, SimKernel
from repro.cpu.kernel.events import (
    LineFlushed,
    LoadRetired,
    PrefetchDispatched,
    SwitchCompleted,
    TimerFired,
)
from repro.cpu.timing import TimingModel
from repro.memsys.hierarchy import AccessResult, CacheHierarchy, MemoryLevel
from repro.mmu.address_space import AddressSpace
from repro.mmu.buffer import Buffer
from repro.mmu.tlb import TranslationResult
from repro.obs.metrics import Histogram
from repro.params import CACHE_LINE_SIZE, NoiseParams
from repro.prefetch.base import LoadEvent, Prefetcher, PrefetchRequest
from repro.sanitize.sanitizer import Sanitizer

#: Cycle cost of a clflush instruction (order of an LLC round trip).
CLFLUSH_CYCLES = 40

#: Fixed architectural cost of a context switch, before memory noise.
CONTEXT_SWITCH_CYCLES = 1500

#: Cost of the proposed clear-ip-prefetcher instruction: one cycle per
#: history entry (paper §8.3 assumes C_clear = 24).
CLEAR_PREFETCHER_CYCLES_PER_ENTRY = 1

#: Bound of the variable kernel IPs the switch and IRQ paths load from.
_KERNEL_IP_SPACE = 1 << 30


def _null_translate(_vaddr: int) -> int | None:
    """Kernel noise loads never offer the prefetcher a usable translation."""
    return None


class MemoryComponent(Component):
    """Owns the cache hierarchy's flush path and the prefetch-fill port."""

    def __init__(self, kernel: SimKernel, hierarchy: CacheHierarchy) -> None:
        super().__init__(kernel)
        self.hierarchy = hierarchy
        self.clock = kernel.clock_of()

    def flush(self, ctx: ThreadContext, vaddr: int) -> None:
        """``clflush``: evict the line everywhere and charge its cost."""
        paddr = ctx.space.translate(vaddr)
        self.hierarchy.clflush(paddr)
        self.clock.charge(ctx, CLFLUSH_CYCLES)
        self.kernel.publish(LineFlushed, ctx, vaddr, paddr)

    def insert_prefetch(self, paddr: int) -> None:
        """Port target: install a prefetched line (L2 + LLC, not L1)."""
        self.hierarchy.insert_prefetch(paddr)


class PrefetchComponent(Component):
    """Owns the IP-stride prefetcher and the noise prefetchers."""

    #: Wired to ``MemoryComponent.insert_prefetch``.
    insert_port: Callable[[int], None]

    def __init__(
        self, kernel: SimKernel, ip_stride: Prefetcher, noise_prefetchers: list[Prefetcher]
    ) -> None:
        super().__init__(kernel)
        self.ip_stride = ip_stride
        self.noise_prefetchers = noise_prefetchers

    def observe(
        self,
        ctx: ThreadContext,
        ip: int,
        vaddr: int,
        fenced: bool,
        translation: TranslationResult,
        result: AccessResult,
    ) -> tuple[LoadEvent | None, tuple[PrefetchRequest, ...]]:
        """Feed one demand load to the prefetchers: ``(event, issued)``.

        A fenced load is invisible to the prefetchers (``(None, ())``).
        """
        if fenced:
            return None, ()
        event = LoadEvent(ip, vaddr, translation.paddr, result.level, ctx.space.asid)
        if translation.tlb_hit:
            return event, self._feed_demand(ctx, event)
        # §4.3: a TLB-missing first touch creates the translation but
        # leaves the prefetcher state untouched — only the next-page
        # prefetcher may carry a pattern across.
        return event, self._dispatch_all(self.ip_stride.observe_tlb_miss(event), ip)

    def _dispatch_all(
        self, requests: list[PrefetchRequest], trigger_ip: int
    ) -> tuple[PrefetchRequest, ...]:
        # Announce before installing: the trace shows the request leaving
        # the prefetcher, then the fill landing in the hierarchy.
        publish, insert = self.kernel.publish, self.insert_port
        for request in requests:
            publish(PrefetchDispatched, request, trigger_ip)
            insert(request.paddr)
        return tuple(requests)

    def _feed_demand(
        self, ctx: ThreadContext, event: LoadEvent
    ) -> tuple[PrefetchRequest, ...]:
        translate = ctx.space.translate_or_none
        issued = self._dispatch_all(self.ip_stride.observe(event, translate), event.ip)
        for prefetcher in self.noise_prefetchers:
            requests = prefetcher.observe(event, translate)
            if requests:
                issued += self._dispatch_all(requests, event.ip)
        return issued

    def feed_kernel(self, event: LoadEvent) -> None:
        """Port target: kernel noise loads feed only the IP-stride table."""
        self._dispatch_all(self.ip_stride.observe(event, _null_translate), event.ip)

    def clear(self) -> None:
        """Port target: the §8.3 clear-ip-prefetcher instruction."""
        self.ip_stride.clear()


class RetireComponent(Component):
    """Prices the load, charges its context, and publishes retirement."""

    def __init__(self, kernel: SimKernel, timing: TimingModel, histogram: Histogram) -> None:
        super().__init__(kernel)
        self.timing = timing
        self.histogram = histogram
        self.clock = kernel.clock_of()

    def retire(
        self,
        ctx: ThreadContext,
        ip: int,
        vaddr: int,
        fenced: bool,
        translation: TranslationResult,
        result: AccessResult,
        event: LoadEvent | None,
        issued: tuple[PrefetchRequest, ...],
    ) -> int:
        """Price the load, charge the clock, feed the histogram; the latency."""
        latency = self.timing.measured(translation.latency + result.latency)
        self.clock.charge(ctx, latency)
        self.histogram.observe(latency)
        self.kernel.publish(
            LoadRetired, ctx, ip, vaddr, fenced, translation, result, event, issued, latency
        )
        return latency


class OSComponent(Component):
    """Timer interrupts, context switches, and their cache/prefetcher noise.

    Owns the scheduling state the old ``Machine`` kept inline: the running
    context, the switch/IRQ counters, the kernel's switch-noise working
    set and the fixed switch-path IPs (chosen once per boot), plus the
    §8.3 flush-on-switch mitigation flag.

    Every noise batch draws its line indexes and IPs with one
    ``os_rng.integers(..., size=k)`` call.  NumPy's bounded ``int64``
    draws are unbuffered, so a batch of ``k`` equals ``k`` scalar draws
    and leaves the generator in the same state
    (``tests/test_cpu_machine.py`` pins this).
    """

    #: Wired to ``CacheHierarchy.access``.
    access_port: Callable[[int], object]
    #: Wired to ``PrefetchComponent.feed_kernel``.
    feed_port: Callable[[LoadEvent], None]
    #: Wired to ``PrefetchComponent.clear``.
    clear_port: Callable[[], None]
    #: Wired to ``TLB.flush``.
    flush_tlb_port: Callable[..., None]

    def __init__(
        self,
        kernel: SimKernel,
        noise: NoiseParams,
        os_rng: np.random.Generator,
        kernel_space: AddressSpace,
        switch_noise: Buffer,
        switch_path_ips: list[int],
        clear_cost_cycles: int,
    ) -> None:
        super().__init__(kernel)
        self.clock = kernel.clock_of()
        self.noise = noise
        self.os_rng = os_rng
        self.kernel_space = kernel_space
        self.switch_noise = switch_noise
        self.switch_path_ips = switch_path_ips
        self.clear_cost_cycles = clear_cost_cycles
        self.current: ThreadContext | None = None
        self.context_switches = 0
        self.timer_interrupts = 0
        #: §8.3 mitigation: execute clear-ip-prefetcher on every domain switch.
        self.flush_prefetcher_on_switch = False

    def switch(self, to_ctx: ThreadContext) -> None:
        """Switch the logical core to ``to_ctx``.

        Same-address-space switches (threads of one process) keep the TLB;
        cross-space switches flush non-global entries.  Both kinds run the
        kernel's switch path, whose loads pollute the caches and the
        prefetcher table.
        """
        from_ctx = self.current
        if from_ctx is to_ctx:
            return
        self.context_switches += 1
        self.clock.advance(CONTEXT_SWITCH_CYCLES)
        cross_space = from_ctx is not None and not from_ctx.same_address_space(to_ctx)
        if cross_space:
            self.flush_tlb_port(keep_global=True)
        # Cross-process switches run the heavier mm-switch path with
        # data-dependent kernel activity; same-space (thread) switches only
        # replay the fixed switch code.
        variable_ips = self.noise.switch_variable_ips if cross_space else 0
        self._inject_switch_noise(variable_ips)
        if self.flush_prefetcher_on_switch:
            self.run_prefetcher_clear()
        self.current = to_ctx
        self.kernel.publish(
            SwitchCompleted,
            None if from_ctx is None else from_ctx.name,
            to_ctx.name,
            cross_space,
        )

    def maybe_tick(self) -> None:
        """Run the kernel timer-IRQ path when the tick has elapsed.

        The IRQ handler touches a few kernel lines and executes one load at
        an effectively random kernel IP; with probability 1/256 that IP
        aliases (and clobbers) a trained prefetcher entry.  A backlog of
        elapsed ticks (e.g. after a long ``advance``) fires only once: the
        table's disturbance saturates, and the entries the backlogged ticks
        would have clobbered are retrained before the next observation
        anyway.
        """
        clock = self.clock
        if self.noise.switch_fixed_ips == 0:
            # Quiet machines (reverse-engineering benches) take no IRQs.
            clock.rearm_tick()
            return
        if clock.cycles < clock.next_tick:
            return
        self.timer_interrupts += 1
        clock.rearm_tick()
        self._touch_noise_lines(8)
        # Which IRQ handler ran is data-dependent: one variable-IP load.
        self._kernel_prefetcher_noise(self.os_rng.integers(0, _KERNEL_IP_SPACE, size=1).tolist())
        self.kernel.publish(TimerFired, clock.cycles)

    def run_prefetcher_clear(self) -> None:
        """Execute the proposed privileged clear-ip-prefetcher instruction."""
        self.clock.advance(self.clear_cost_cycles)
        self.clear_port()

    def _inject_switch_noise(self, variable_ips: int) -> None:
        """Model the switch path's own memory traffic.

        Cache pollution: random lines of kernel memory are touched.
        Prefetcher pollution: the fixed switch-path IPs replay (occupying
        their slots, learning nothing — their data addresses vary), plus
        ``variable_ips`` loads at effectively random IPs, each with a 1/256
        chance of aliasing a trained entry.
        """
        self._touch_noise_lines(self.noise.switch_cache_lines)
        # Switch-path code loops over task/mm state, so each fixed IP issues
        # several loads per switch: a re-allocated fixed entry immediately
        # reaches confidence 1 and is no longer a preferred eviction victim.
        # (This is what makes a full-table covert channel lose ~6 of its 24
        # trained entries per switch — the paper's >25 % error rate, §7.2.)
        ips = [ip for ip in self.switch_path_ips for _ in range(2)]
        ips += self.os_rng.integers(0, _KERNEL_IP_SPACE, size=variable_ips).tolist()
        self._kernel_prefetcher_noise(ips)

    def _noise_lines(self, count: int) -> list[int]:
        """Virtual addresses of ``count`` random switch-noise lines."""
        base = self.switch_noise.base
        lines = self.os_rng.integers(0, self.switch_noise.n_lines, size=count).tolist()
        return [base + line * CACHE_LINE_SIZE for line in lines]

    def _touch_noise_lines(self, count: int) -> None:
        """Demand-access ``count`` random kernel lines (cache pollution)."""
        translate, access = self.kernel_space.translate, self.access_port
        for vaddr in self._noise_lines(count):
            access(translate(vaddr))

    def _kernel_prefetcher_noise(self, ips: list[int]) -> None:
        """Kernel loads (random data lines) at the given IPs."""
        space, feed = self.kernel_space, self.feed_port
        asid = space.asid
        for ip, vaddr in zip(ips, self._noise_lines(len(ips))):
            feed(LoadEvent(ip, vaddr, space.translate(vaddr), MemoryLevel.LLC, asid))


# --------------------------------------------------------------------- #
# Taps: obs + sanitize ride the published event stream                    #
# --------------------------------------------------------------------- #


class TracerTap:
    """The one caller of ``Tracer.emit``: the published stream, as trace events.

    Kernel events are translated into trace events stamped from the kernel
    clock; trace events the model publishes ready-built (``TlbMiss``,
    ``PrefetchFill``, ``TableTransition``, spans, sanitizer violations)
    pass through unchanged.  Registered *before* the sanitizer tap,
    preserving the emit-then-audit order on every load and switch.
    """

    __slots__ = ("tracer", "clock")

    def __init__(self, tracer, clock) -> None:
        self.tracer = tracer
        self.clock = clock

    def __call__(self, ev) -> None:
        tracer = self.tracer
        from repro.obs.events import Clflush, ContextSwitch, LoadTraced, PrefetchIssued, TraceEvent

        kind = type(ev)
        if kind is LoadRetired:
            tracer.emit(
                LoadTraced(
                    cycle=self.clock.cycles,
                    ip=ev.ip,
                    vaddr=ev.vaddr,
                    paddr=ev.translation.paddr,
                    level=int(ev.result.level),
                    latency=ev.latency,
                    tlb_hit=ev.translation.tlb_hit,
                    fenced=ev.fenced,
                    asid=ev.ctx.space.asid,
                )
            )
        elif kind is PrefetchDispatched:
            tracer.emit(
                PrefetchIssued(
                    cycle=self.clock.cycles,
                    source=ev.request.source,
                    paddr=ev.request.paddr,
                    trigger_ip=ev.trigger_ip,
                )
            )
        elif kind is LineFlushed:
            tracer.emit(Clflush(cycle=self.clock.cycles, vaddr=ev.vaddr, paddr=ev.paddr))
        elif kind is SwitchCompleted:
            tracer.emit(
                ContextSwitch(
                    cycle=self.clock.cycles,
                    from_ctx=ev.from_name,
                    to_ctx=ev.to_name,
                    cross_space=ev.cross_space,
                )
            )
        elif isinstance(ev, TraceEvent):
            tracer.emit(ev)


class SanitizerTap:
    """Feeds the runtime invariant auditor from the published stream.

    Holds the sanitizer weakly (the machine owns it): the TLB, the
    hierarchy and the IP-stride prefetcher hold the kernel, the kernel
    holds this tap, and the sanitizer's checkers hold those three, so a
    strong reference here would close a reference cycle.
    """

    __slots__ = ("sanitizer",)

    def __init__(self, sanitizer: Sanitizer) -> None:
        self.sanitizer = weakref.proxy(sanitizer)

    def __call__(self, ev) -> None:
        kind = type(ev)
        if kind is LoadRetired:
            self.sanitizer.after_load(ev.event, ev.translation, ev.issued)
        elif kind is SwitchCompleted:
            self.sanitizer.after_switch()
