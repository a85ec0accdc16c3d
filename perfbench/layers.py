"""Layer attribution: wrap each layer's public entry points from outside.

The benchmark never edits the simulator.  A traced unit installs wrappers
on the public functions listed in :data:`HOOKS`; each wrapper counts its
calls and times them.  A layer's *self* time is the duration of its calls
minus the wrapped calls nested inside them, so the self times of all
layers plus the time spent outside every wrapped call (``unattributed``)
add up to the traced wall time exactly.

Spans are aggregated in memory as a parent -> child edge table (calls and
inclusive seconds per edge) and written out with the run's artifact.

:class:`MachineCounters` is installed in every unit, traced or not: it
registers each ``Machine`` as it is built and sums the machines' own
``metrics()`` counters (TLB, cache levels, prefetch fills, switches, IRQs,
retired loads), which repeat exactly for a given seed.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

WORKLOADS = ("table3", "revng", "campaign-cold")

#: Bottom-of-stack name for time spent outside every wrapped call.
OUTSIDE = "unattributed"


@dataclass(frozen=True)
class Hook:
    """One layer entry point: ``module.owner.attr`` (or ``module.attr``)."""

    layer: str
    module: str
    owner: str
    attr: str
    #: Workloads in which the hook must fire; zero calls there is an error.
    required_in: tuple[str, ...] = WORKLOADS
    #: ``owner`` is a base class: hook ``attr`` on every subclass defining it.
    subclasses: bool = False


#: ``owner`` value meaning "every attack class a registered attack covers".
COVERED_ATTACKS = "*covers*"

HOOKS = (
    Hook("cpu.build", "repro.cpu.machine", "Machine", "__init__"),
    Hook("cpu.load", "repro.cpu.machine", "Machine", "load"),
    Hook("cpu.clflush", "repro.cpu.machine", "Machine", "clflush"),
    Hook("cpu.os.switch", "repro.cpu.machine", "Machine", "context_switch"),
    Hook("cpu.timing", "repro.cpu.timing", "TimingModel", "measured"),
    Hook("mmu.translate", "repro.mmu.tlb", "TLB", "translate"),
    Hook("mmu.walk", "repro.mmu.address_space", "AddressSpace", "translate"),
    Hook("memsys.access", "repro.memsys.hierarchy", "CacheHierarchy", "access"),
    Hook("memsys.prefetch_fill", "repro.memsys.hierarchy", "CacheHierarchy", "insert_prefetch"),
    Hook("memsys.clflush", "repro.memsys.hierarchy", "CacheHierarchy", "clflush"),
    Hook("prefetch.observe", "repro.prefetch.base", "Prefetcher", "observe", subclasses=True),
    Hook("core.setup", "repro.core", COVERED_ATTACKS, "__init__", ("table3", "campaign-cold")),
    Hook(
        "core.ip_search", "repro.core.variant2", "Variant2UserKernel", "find_target_index",
        ("table3",),
    ),
    Hook("campaign.cell", "repro.campaign.experiments", "", "run_cell", ("campaign-cold",)),
    Hook("campaign.store_put", "repro.campaign.store", "TrialStore", "put", ("campaign-cold",)),
    Hook("campaign.store_get", "repro.campaign.store", "TrialStore", "get", ("campaign-cold",)),
)

#: Modules defining ``Prefetcher`` subclasses, including the tagged and
#: disabled prefetchers the campaign's defense axis swaps in.
_PREFETCHER_MODULES = (
    "repro.prefetch.ip_stride",
    "repro.prefetch.dcu",
    "repro.prefetch.adjacent",
    "repro.prefetch.streamer",
    "repro.defenses.tagged_prefetcher",
    "repro.defenses.toggles",
)


class HookError(RuntimeError):
    """A layer entry point is missing, or never fired where it must."""


def _all_subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def hook_targets(hook: Hook) -> list[tuple[object, str]]:
    """The ``(owner, attribute)`` pairs ``hook`` wraps; raises if any is missing."""
    try:
        module = importlib.import_module(hook.module)
    except ImportError as exc:
        raise HookError(f"{hook.layer}: cannot import {hook.module}: {exc}") from exc
    if hook.owner == "":
        owners: list[object] = [module]
    else:
        if hook.owner == COVERED_ATTACKS:
            from repro.attacks.registry import registered_covers

            names = sorted(registered_covers())
        else:
            names = [hook.owner]
        missing = [name for name in names if not hasattr(module, name)]
        if missing:
            raise HookError(f"{hook.layer}: {hook.module} has no {', '.join(missing)}")
        owners = [getattr(module, name) for name in names]
    if hook.subclasses:
        for name in _PREFETCHER_MODULES:
            importlib.import_module(name)
        owners = [cls for cls in _all_subclasses(owners[0]) if hook.attr in vars(cls)]
    for owner in owners:
        if not callable(vars(owner).get(hook.attr)):
            raise HookError(f"{hook.layer}: {owner!r} defines no callable {hook.attr!r}")
    if not owners:
        raise HookError(f"{hook.layer}: nothing defines {hook.owner}.{hook.attr}")
    return [(owner, hook.attr) for owner in owners]


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, wrap) -> None:
        # The owner's own dict entry: a subclass never copies its base's.
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class LayerTracer:
    """Counts and times every hooked call while installed (a context manager)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: layer -> [calls, self seconds]
        self.stats: dict[str, list] = {hook.layer: [0, 0.0] for hook in HOOKS}
        #: (parent layer, layer) -> [calls, inclusive seconds]
        self.edges: dict[tuple[str, str], list] = {}
        #: Open frames, each [layer, seconds of wrapped calls nested in it].
        self._stack: list[list] = [[OUTSIDE, 0.0]]
        self._patches = _Patches()

    def __enter__(self) -> "LayerTracer":
        try:
            for hook in HOOKS:
                for owner, attr in hook_targets(hook):
                    self._patches.replace(owner, attr, self._wrapper(hook.layer))
        except BaseException:
            self._patches.undo()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def _wrapper(self, layer: str):
        clock, edges, stack, stat = self.clock, self.edges, self._stack, self.stats[layer]

        def wrap(fn):
            def traced(*args, **kwargs):
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    parent = stack[-1]
                    parent[1] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed - frame[1]
                    edge = edges.get((parent[0], layer))
                    if edge is None:
                        edges[(parent[0], layer)] = [1, elapsed]
                    else:
                        edge[0] += 1
                        edge[1] += elapsed

            traced.__wrapped__ = fn
            return traced

        return wrap

    def check_live(self, workload: str) -> None:
        """Fail loudly when a hook that must fire in ``workload`` did not."""
        dead = [
            hook.layer
            for hook in HOOKS
            if workload in hook.required_in and self.stats[hook.layer][0] == 0
        ]
        if dead:
            raise HookError(f"{workload}: hooks never fired: {', '.join(dead)}")


class MachineCounters:
    """Sum every built machine's ``metrics()`` counters (a context manager).

    The latest machine is held until the next one is built, then
    snapshotted and released; :meth:`totals` adds the latest machine's
    current counters.  Every workload is done with a machine before it
    builds the next, so each snapshot follows the machine's last use, and
    at most one machine outlives its workload's reference to it.
    """

    def __init__(self) -> None:
        self.machines = 0
        self._latest = None
        self._sums: dict[str, int] = {}
        self._patches = _Patches()

    def __enter__(self) -> "MachineCounters":
        from repro.cpu.machine import Machine

        def wrap(build):
            def registered_init(machine, *args, **kwargs):
                if self._latest is not None:
                    _add(self._sums, flat_counters(self._latest.metrics().as_dict()))
                    self._latest = None
                build(machine, *args, **kwargs)
                self._latest = machine
                self.machines += 1

            registered_init.__wrapped__ = build
            return registered_init

        self._patches.replace(Machine, "__init__", wrap)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()
        self._latest = None

    def totals(self) -> dict[str, int]:
        """Counter sums over every machine built so far."""
        out = {"machines": self.machines, **self._sums}
        if self._latest is not None:
            _add(out, flat_counters(self._latest.metrics().as_dict()))
        return dict(sorted(out.items()))


def _add(into: dict[str, int], counters: dict[str, int]) -> None:
    for name, value in counters.items():
        into[name] = into.get(name, 0) + value


def flat_counters(metrics: dict) -> dict[str, int]:
    """Integer counters of one ``metrics().as_dict()``; the latency
    histogram contributes its total as ``loads`` (one per retired load)."""
    out: dict[str, int] = {"loads": 0}
    for name, value in metrics.items():
        if isinstance(value, dict):
            if name == "latency.measured":
                out["loads"] = int(value["total"])
        elif isinstance(value, int) and not isinstance(value, bool):
            out[name] = value
    return out
