"""The simulated machine: a facade over the simulation kernel's components.

The `Machine` keeps its seed-era public API — construction, ``load``,
``clflush``, ``context_switch``, spans, metrics — but the work happens in
the components of :mod:`repro.cpu.kernel`.  A load is a plain call chain:

``load(ctx, ip, vaddr)`` → OS timer tick → TLB translate → cache-hierarchy
access → prefetcher observation (and prefetch fills) → retire, which
prices the noisy measured latency and charges the clock.

Every observation leaves the model through the kernel's published event
stream: the pipeline components, the TLB, the cache hierarchy, the IP-stride
prefetcher, spans and sanitizer violations all publish there, and the
tracer and the sanitizer observe it as taps.  A machine with neither builds
no published event at all.

Two modelling rules from the paper are enforced in the prefetch component
rather than in the prefetcher itself:

* a TLB-missing access does **not** update prefetcher state (§4.3);
* a context switch flushes non-global TLB entries and injects the switch's
  memory traffic into the caches *and* the prefetcher table (the noise the
  paper blames for cross-process Prime+Probe degradation, §5.1, and for the
  24-entry covert channel's >25 % error rate, §7.2) — but never flushes the
  IP-stride table, unless the §8.3 mitigation is enabled.

Equivalence with the pre-kernel machine is pinned byte-for-byte by
``tests/test_kernel_equivalence.py`` against committed golden traces.
"""

from __future__ import annotations

from repro.cpu.code import CodeRegion
from repro.cpu.context import ThreadContext
from repro.cpu.kernel.components import (
    CLEAR_PREFETCHER_CYCLES_PER_ENTRY,
    CLFLUSH_CYCLES,
    CONTEXT_SWITCH_CYCLES,
    MemoryComponent,
    OSComponent,
    PrefetchComponent,
    RetireComponent,
    SanitizerTap,
    TracerTap,
)
from repro.cpu.kernel.core import SimKernel
from repro.cpu.timing import TimingModel
from repro.memsys.addr import line_index
from repro.memsys.hierarchy import CacheHierarchy, MemoryLevel
from repro.mmu.address_space import AddressSpace
from repro.mmu.aslr import Aslr
from repro.mmu.buffer import Buffer
from repro.mmu.page_table import PhysicalMemory
from repro.mmu.tlb import TLB
from repro.obs.metrics import Histogram, MetricsRegistry, latency_bounds, snapshot
from repro.obs.profiler import Span, SpanProfile
from repro.obs.tracer import Tracer, resolve_tracer
from repro.params import PAGE_SIZE, DEFAULT_MACHINE, MachineParams
from repro.prefetch.adjacent import AdjacentPrefetcher
from repro.prefetch.base import Prefetcher
from repro.prefetch.dcu import DCUPrefetcher
from repro.prefetch.ip_stride import IPStridePrefetcher
from repro.prefetch.streamer import StreamerPrefetcher
from repro.sanitize.sanitizer import Sanitizer, sanitize_enabled
from repro.utils.rng import derive_rng, make_rng

__all__ = [
    "CLEAR_PREFETCHER_CYCLES_PER_ENTRY",
    "CLFLUSH_CYCLES",
    "CONTEXT_SWITCH_CYCLES",
    "Machine",
    "SWITCH_NOISE_PAGES",
    "line_of",
]

#: Pages of kernel memory the switch and timer-IRQ paths touch (4 MiB).
SWITCH_NOISE_PAGES = 1024


class Machine:
    """A simulated Intel machine (one logical core's view)."""

    def __init__(
        self,
        params: MachineParams = DEFAULT_MACHINE,
        seed: int | None = None,
        sanitize: bool | None = None,
        trace: Tracer | bool | None = None,
    ) -> None:
        self.params = params
        self.rng = make_rng(seed)
        self._timing = TimingModel(params.noise, derive_rng(self.rng, "timing"))
        self._os_rng = derive_rng(self.rng, "os")
        self.physical = PhysicalMemory(derive_rng(self.rng, "frames"))
        self.aslr = Aslr(derive_rng(self.rng, "aslr"), enabled=params.aslr_enabled)
        self.kaslr = Aslr(derive_rng(self.rng, "kaslr"), enabled=params.aslr_enabled)

        #: The simulation kernel: its clock is the single source of
        #: simulated time (``cycles``, ``seconds()``, the timer-interrupt
        #: deadline and span timestamps all read through it), and its taps
        #: observe the published event stream.
        self.kernel = SimKernel()
        self._kernel_clock = self.kernel.clock_of()
        self.hierarchy = CacheHierarchy(params, kernel=self.kernel)
        self.tlb = TLB(params.tlb_entries, params.page_walk_latency, kernel=self.kernel)
        ip_stride = IPStridePrefetcher(
            params.prefetcher,
            enable_next_page=params.enable_next_page_prefetcher,
            kernel=self.kernel,
        )
        self.noise_prefetchers: list[Prefetcher] = []
        if params.enable_dcu_prefetcher:
            self.noise_prefetchers.append(DCUPrefetcher())
        if params.enable_adjacent_prefetcher:
            self.noise_prefetchers.append(AdjacentPrefetcher())
        if params.enable_streamer_prefetcher:
            self.noise_prefetchers.append(StreamerPrefetcher())

        #: Structured tracing (repro.obs); ``None`` when off, and then no
        #: tracer tap is registered.
        self.tracer: Tracer | None = resolve_tracer(trace)
        if self.tracer is not None:
            #: Lane-aware sinks (ChromeTraceSink) label a per-machine lane,
            #: so a shared tracer keeps machines apart.
            self.tracer.register_machine(self)
        #: Cycle-attribution profiler aggregate (``with machine.span(...)``);
        #: always collected — spans are rare compared to loads.
        self.profile = SpanProfile()
        #: Measured-latency histogram straddling the LLC-hit threshold;
        #: always populated — one bisect over ~5 bounds per load.
        self.latency_histogram = Histogram(latency_bounds(params))

        #: Per-machine ASID sequence: kernel gets 1, user spaces 2, 3, ...
        #: (a process-global counter would make same-seed traces differ).
        self._next_asid = 1
        self.kernel_space = AddressSpace(
            "kernel", self.physical, aslr=self.kaslr, global_pages=True,
            asid=self._alloc_asid(),
        )
        # The kernel working set touched by switch/IRQ paths.  It must be
        # large: a tiny pool would revisit the same lines every switch, so a
        # single page that happens to be slice-hash-equivalent to a victim
        # page would poison the same monitored cache sets on every round.  4 MiB
        # approximates a kernel steady-state working set.
        self._switch_noise = Buffer(
            self.kernel_space.mmap(
                SWITCH_NOISE_PAGES * PAGE_SIZE, locked=True, name="switch-noise"
            )
        )
        # The context-switch path is fixed code: its load IPs are chosen
        # once per boot and hit the same prefetcher indexes every switch.
        self._switch_path_ips = [
            int(self._os_rng.integers(0, 1 << 30))
            for _ in range(params.noise.switch_fixed_ips)
        ]
        self._wire_components(ip_stride)

        #: Runtime invariant auditing (repro.sanitize); ``None`` when off, so
        #: the published-event tap is simply never registered.  Built after
        #: the components are wired — the checkers read the components'
        #: state through the facade properties — and tapped after the
        #: tracer, preserving emit-then-audit order.
        self.sanitizer: Sanitizer | None = (
            Sanitizer(self) if sanitize_enabled(sanitize) else None
        )
        if self.sanitizer is not None:
            self.sanitizer.register_space(self.kernel_space)
            self.kernel.add_tap(SanitizerTap(self.sanitizer))

    # ------------------------------------------------------------------ #
    # Kernel assembly                                                     #
    # ------------------------------------------------------------------ #

    def _wire_components(self, ip_stride: IPStridePrefetcher) -> None:
        """Build the components, wire their ports, and tap the tracer."""
        kernel = self.kernel
        self._memsys = MemoryComponent(kernel, self.hierarchy)
        self._prefetch = PrefetchComponent(kernel, ip_stride, self.noise_prefetchers)
        self._retire = RetireComponent(kernel, self._timing, self.latency_histogram)
        self._os = OSComponent(
            kernel,
            noise=self.params.noise,
            os_rng=self._os_rng,
            kernel_space=self.kernel_space,
            switch_noise=self._switch_noise,
            switch_path_ips=self._switch_path_ips,
            clear_cost_cycles=(
                CLEAR_PREFETCHER_CYCLES_PER_ENTRY * self.params.prefetcher.n_entries
            ),
        )
        # Ports: the narrow buses components are allowed to talk over
        # (flow lint rule RL019 flags anything wider).  Every port points
        # down the pipeline, so a dropped machine holds no reference cycle.
        self._prefetch.insert_port = self._memsys.insert_prefetch
        self._os.access_port = self.hierarchy.access
        self._os.feed_port = self._prefetch.feed_kernel
        self._os.clear_port = self._prefetch.clear
        self._os.flush_tlb_port = self.tlb.flush
        # Taps: the tracer taps here; the sanitizer (built after wiring)
        # taps second in ``__init__``, preserving emit-then-audit order.
        if self.tracer is not None:
            kernel.add_tap(TracerTap(self.tracer, self._kernel_clock))

    @property
    def ip_stride(self) -> IPStridePrefetcher:
        """The IP-stride prefetcher, owned by the kernel's prefetch component.

        Settable: the §8.2 defenses swap in a hardened variant
        (``harden_machine``, ``disable_prefetcher``) after construction,
        and the swap must reach the component actually observing loads.
        """
        return self._prefetch.ip_stride

    @ip_stride.setter
    def ip_stride(self, prefetcher: IPStridePrefetcher) -> None:
        self._prefetch.ip_stride = prefetcher

    # ------------------------------------------------------------------ #
    # Clock and OS state (delegated to the kernel and the OS component)                    #
    # ------------------------------------------------------------------ #

    @property
    def cycles(self) -> int:
        """Simulated cycle count (the kernel clock is the source of truth)."""
        return self._kernel_clock.cycles

    @cycles.setter
    def cycles(self, value: int) -> None:
        self._kernel_clock.cycles = value

    @property
    def current(self) -> ThreadContext | None:
        """The context the logical core is running."""
        return self._os.current

    @current.setter
    def current(self, ctx: ThreadContext | None) -> None:
        self._os.current = ctx

    @property
    def context_switches(self) -> int:
        return self._os.context_switches

    @context_switches.setter
    def context_switches(self, value: int) -> None:
        self._os.context_switches = value

    @property
    def timer_interrupts(self) -> int:
        return self._os.timer_interrupts

    @timer_interrupts.setter
    def timer_interrupts(self, value: int) -> None:
        self._os.timer_interrupts = value

    @property
    def flush_prefetcher_on_switch(self) -> bool:
        """§8.3 mitigation: execute clear-ip-prefetcher on every switch."""
        return self._os.flush_prefetcher_on_switch

    @flush_prefetcher_on_switch.setter
    def flush_prefetcher_on_switch(self, value: bool) -> None:
        self._os.flush_prefetcher_on_switch = value

    @property
    def timer_period_cycles(self) -> int:
        """Timer-interrupt period (~100 µs tick) on the kernel clock."""
        return self._kernel_clock.tick_period

    @timer_period_cycles.setter
    def timer_period_cycles(self, value: int) -> None:
        self._kernel_clock.tick_period = value

    # ------------------------------------------------------------------ #
    # Construction helpers                                                #
    # ------------------------------------------------------------------ #

    def _alloc_asid(self) -> int:
        asid = self._next_asid
        self._next_asid += 1
        return asid

    def new_address_space(self, name: str) -> AddressSpace:
        """Create a fresh user address space (one per process)."""
        space = AddressSpace(name, self.physical, aslr=self.aslr, asid=self._alloc_asid())
        if self.sanitizer is not None:
            self.sanitizer.register_space(space)
        return space

    def new_thread(
        self, name: str, space: AddressSpace | None = None, privileged: bool = False
    ) -> ThreadContext:
        """Create a context; without ``space``, a private one is created."""
        if space is None:
            space = self.new_address_space(f"{name}-space")
        return ThreadContext(name=name, space=space, privileged=privileged)

    def kernel_context(self, name: str = "kernel") -> ThreadContext:
        """A privileged context running in the shared kernel address space."""
        return ThreadContext(name=name, space=self.kernel_space, privileged=True)

    def new_buffer(
        self,
        space: AddressSpace,
        n_bytes: int,
        locked: bool = False,
        populate: bool = True,
        name: str = "buf",
    ) -> Buffer:
        """mmap a buffer into ``space`` (see AddressSpace.mmap semantics)."""
        return Buffer(space.mmap(n_bytes, locked=locked, populate=populate, name=name))

    def share_buffer(self, buffer: Buffer, space: AddressSpace, name: str | None = None) -> Buffer:
        """Map ``buffer``'s physical pages into another space (MAP_SHARED)."""
        return Buffer(space.map_shared(buffer.mapping, name=name))

    def code_region(self, base_ip: int, name: str = "code", kernel: bool = False) -> CodeRegion:
        """A code image slid by (K)ASLR when enabled."""
        aslr = self.kaslr if kernel else self.aslr
        return CodeRegion(base_ip, aslr=aslr, name=name)

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #

    def load(self, ctx: ThreadContext, ip: int, vaddr: int, fenced: bool = False) -> int:
        """Execute a load at instruction ``ip``; returns measured latency.

        ``fenced=True`` models a measurement load bracketed by ``mfence``
        (and/or issued from a pointer-chase): the hardware prefetchers
        neither observe it nor act on it.  The paper's artifact reloads
        exactly this way (§A.6: shuffled order + mfence, "the memory
        barrier may prevent prefetching from taking place"), and careful
        Prime+Probe implementations traverse eviction sets as linked lists
        for the same reason.
        """
        self._os.maybe_tick()
        translation = self.tlb.translate(ctx.space, vaddr)
        result = self.hierarchy.access(translation.paddr)
        event, issued = self._prefetch.observe(ctx, ip, vaddr, fenced, translation, result)
        return self._retire.retire(ctx, ip, vaddr, fenced, translation, result, event, issued)

    def clflush(self, ctx: ThreadContext, vaddr: int) -> None:
        """Flush the line holding ``vaddr`` from the whole hierarchy."""
        self._memsys.flush(ctx, vaddr)

    def flush_buffer(self, ctx: ThreadContext, buffer: Buffer) -> None:
        """clflush every line of ``buffer`` (the Flush stage of F+R)."""
        for vaddr in buffer.lines():
            self.clflush(ctx, vaddr)

    def warm_tlb(self, ctx: ThreadContext, vaddr: int) -> None:
        """Install a translation without memory-system side effects."""
        self.tlb.warm(ctx.space, vaddr)

    def warm_buffer_tlb(self, ctx: ThreadContext, buffer: Buffer) -> None:
        """TLB-warm every page of ``buffer`` (the paper's threat-model state)."""
        for page in range(buffer.n_pages):
            self.warm_tlb(ctx, buffer.page_line_addr(page, 0))

    def advance(self, cycles: int) -> None:
        """Account for non-memory compute time."""
        if cycles < 0:
            raise ValueError(f"cannot advance by negative cycles: {cycles}")
        current = self._os.current
        if current is not None:
            self._kernel_clock.charge(current, cycles)
        else:
            self._kernel_clock.advance(cycles)

    # ------------------------------------------------------------------ #
    # Context switching                                                   #
    # ------------------------------------------------------------------ #

    def context_switch(self, to_ctx: ThreadContext) -> None:
        """Switch the logical core to ``to_ctx`` (see ``OSComponent``)."""
        self._os.switch(to_ctx)

    def run_prefetcher_clear(self) -> None:
        """Execute the proposed privileged clear-ip-prefetcher instruction."""
        self._os.run_prefetcher_clear()

    # ------------------------------------------------------------------ #
    # Observability                                                       #
    # ------------------------------------------------------------------ #

    def span(self, name: str) -> Span:
        """Open a cycle-attribution span: ``with machine.span("train"): ...``

        The span always feeds ``machine.profile``; its ``SpanBegin`` and
        ``SpanEnd`` events are published through the kernel.
        """
        return Span(self.profile, name, machine=self)

    def metrics(self) -> MetricsRegistry:
        """Snapshot every component counter (see repro.obs.metrics)."""
        return snapshot(self)

    def reset_stats(self) -> None:
        """Zero every statistics counter across the machine.

        Symmetric by construction: the hierarchy (including prefetch-fill
        and accuracy counters), every cache level, the TLB, the IP-stride
        prefetcher and all noise prefetchers, the latency histogram, and
        the machine's own switch/IRQ counters all reset together.  The
        cycle clock and all learned µarch state survive — this resets
        *measurements*, not the machine.
        """
        self.hierarchy.reset_stats()
        self.tlb.reset_stats()
        self.ip_stride.reset_stats()
        for prefetcher in self.noise_prefetchers:
            prefetcher.reset_stats()
        self.latency_histogram.reset()
        self.context_switches = 0
        self.timer_interrupts = 0

    # ------------------------------------------------------------------ #
    # Inspection                                                          #
    # ------------------------------------------------------------------ #

    def cached_level(self, ctx: ThreadContext, vaddr: int) -> MemoryLevel | None:
        """Highest cache level holding ``vaddr`` (non-mutating debug helper)."""
        return self.hierarchy.contains(ctx.space.translate(vaddr))

    def is_cached(self, ctx: ThreadContext, vaddr: int) -> bool:
        return self.cached_level(ctx, vaddr) is not None

    def measured_latency(self, ideal: int) -> int:
        """Apply the timing-noise model to an ideal latency (for channels
        that time non-load operations, e.g. Flush+Flush)."""
        return self._timing.measured(ideal)

    def hit_threshold(self) -> int:
        """Measured-latency threshold separating cache hits from DRAM misses."""
        return self.params.llc_hit_threshold

    def seconds(self) -> float:
        """Wall-clock equivalent of the elapsed cycle count."""
        return self._kernel_clock.seconds(self.params.frequency_hz)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.params.name}, cycles={self.cycles})"


def line_of(vaddr: int) -> int:
    """Cache-line number of a virtual address (convenience for experiments)."""
    return line_index(vaddr)
