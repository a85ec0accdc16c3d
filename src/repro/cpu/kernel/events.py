"""Published simulation events — what the kernel's taps observe.

The pipeline itself passes plain arguments from call to call; these
events exist only for the taps (the observability tracer and the
sanitizer), and :meth:`SimKernel.publish` builds one only when the
machine has a tap registered.  An untraced, unsanitized machine therefore
constructs none of them.

Events are plain ``slots`` dataclasses rather than frozen ones: taps only
read them, and a frozen dataclass pays an extra cost per construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.context import ThreadContext
from repro.memsys.hierarchy import AccessResult
from repro.mmu.tlb import TranslationResult
from repro.prefetch.base import LoadEvent, PrefetchRequest


@dataclass(slots=True)
class LoadRetired:
    """A load retired: measured latency attached."""

    ctx: ThreadContext
    ip: int
    vaddr: int
    fenced: bool
    translation: TranslationResult
    result: AccessResult
    event: LoadEvent | None
    issued: tuple[PrefetchRequest, ...]
    latency: int


@dataclass(slots=True)
class PrefetchDispatched:
    """One prefetch request left a prefetcher and is about to fill."""

    request: PrefetchRequest
    trigger_ip: int


@dataclass(slots=True)
class LineFlushed:
    """A ``clflush`` completed (cost already charged)."""

    ctx: ThreadContext
    vaddr: int
    paddr: int


@dataclass(slots=True)
class SwitchCompleted:
    """A context switch completed (noise injected, ``current`` updated)."""

    from_name: str | None
    to_name: str
    cross_space: bool


@dataclass(slots=True)
class TimerFired:
    """The timer-IRQ path ran (kernel noise already injected)."""

    cycle: int
