"""Typed simulation events — the kernel's only inter-component currency.

Two families share one base class:

* **Pipeline events** are handed by :meth:`SimKernel.post` from one
  component straight to the next (a synchronous call); each is handled
  by exactly one component.  The load path is
  ``LoadIssued → AccessReady → FillDone → ObserveDone`` with the retire
  stage publishing a terminal :class:`LoadRetired`.
* **Published events** (:meth:`SimKernel.publish`) fan out synchronously
  to the lane's taps — the observability tracer and the sanitizer ride
  the event stream instead of being called inline from subsystem code.

Events are plain ``slots`` dataclasses rather than frozen ones: they are
created once per pipeline stage on the hottest path in the simulator, and
the kernel's single-handler dispatch means nothing ever mutates them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.context import ThreadContext
from repro.memsys.hierarchy import AccessResult
from repro.mmu.tlb import TranslationResult
from repro.prefetch.base import LoadEvent, PrefetchRequest


@dataclass(slots=True)
class SimEvent:
    """Base event: every event names the lane whose components handle it."""

    lane: int


# --------------------------------------------------------------------- #
# Load pipeline (posted)                                                  #
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class LoadIssued(SimEvent):
    """A demand load enters the pipeline (handled by the MMU component)."""

    ctx: ThreadContext
    ip: int
    vaddr: int
    fenced: bool


@dataclass(slots=True)
class AccessReady(SimEvent):
    """Translation done; the memory component performs the cache access."""

    ctx: ThreadContext
    ip: int
    vaddr: int
    fenced: bool
    translation: TranslationResult


@dataclass(slots=True)
class FillDone(SimEvent):
    """Cache access done; the prefetch component observes the load."""

    ctx: ThreadContext
    ip: int
    vaddr: int
    fenced: bool
    translation: TranslationResult
    result: AccessResult


@dataclass(slots=True)
class ObserveDone(SimEvent):
    """Prefetchers fed; the retire component prices and retires the load."""

    ctx: ThreadContext
    ip: int
    vaddr: int
    fenced: bool
    translation: TranslationResult
    result: AccessResult
    event: LoadEvent | None
    issued: tuple[PrefetchRequest, ...]


@dataclass(slots=True)
class FlushIssued(SimEvent):
    """A ``clflush`` enters the pipeline (handled by the memory component)."""

    ctx: ThreadContext
    vaddr: int


@dataclass(slots=True)
class SwitchIssued(SimEvent):
    """A context switch enters the pipeline (handled by the OS component)."""

    to_ctx: ThreadContext


# --------------------------------------------------------------------- #
# Published events (synchronous tap fan-out)                              #
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class LoadRetired(SimEvent):
    """Terminal load event: measured latency attached, taps notified."""

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
class PrefetchDispatched(SimEvent):
    """One prefetch request left a prefetcher and is about to fill."""

    request: PrefetchRequest
    trigger_ip: int


@dataclass(slots=True)
class LineFlushed(SimEvent):
    """A ``clflush`` completed (cost already charged)."""

    ctx: ThreadContext
    vaddr: int
    paddr: int


@dataclass(slots=True)
class SwitchCompleted(SimEvent):
    """A context switch completed (noise injected, ``current`` updated)."""

    from_name: str | None
    to_name: str
    cross_space: bool


@dataclass(slots=True)
class TimerFired(SimEvent):
    """The timer-IRQ path ran (kernel noise already injected)."""

    cycle: int
