"""Taps: the tracer and the sanitizer ride the published event stream.

``Machine`` registers the tracer tap first and the sanitizer tap second,
so every load and switch is emitted before it is audited.
"""

from __future__ import annotations

import weakref

from repro.cpu.kernel.events import LineFlushed, LoadRetired, PrefetchDispatched, SwitchCompleted
from repro.sanitize.sanitizer import Sanitizer


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

    Reads ``LoadRetired`` and ``SwitchCompleted`` only, so the machine
    registers it with ``reads_trace=False``.

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
