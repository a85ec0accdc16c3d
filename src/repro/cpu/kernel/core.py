"""The event simulation core.

:class:`SimKernel` dispatches typed events synchronously over a set of
*lanes*.  A lane is one independent simulated machine: its own
:class:`~repro.cpu.kernel.clock.KernelClock`, its own components, its own
taps.  ``Machine`` creates a private kernel with one lane;
:class:`~repro.cpu.kernel.batch.MachineBatch` adds N lanes to a single
kernel and steps trials through it interleaved.

Determinism contract
--------------------
``post`` calls the handling component directly, and every handler posts
at most one event, as its last action.  Dispatch is therefore a call
chain whose order is a pure function of the submission order — the same
order a FIFO queue would produce, with no wall clock, no host-order
iteration and no randomness of its own.  All randomness stays in
the components' seeded RNG streams, exactly where the pre-kernel
``Machine`` kept it; this is what makes same-seed runs byte-identical to
the committed golden traces (``tests/golden/``).

Component contract
------------------
Components register one handler per pipeline event type and communicate
only through:

* ``self.kernel.post(event)`` — hand an event to the next pipeline stage
  (as the handler's last action: the next stage runs inside the call);
* ``self.kernel.publish(event)`` — synchronously notify the lane's taps
  (tracer, sanitizer) in registration order;
* ``self.kernel.clock_of(lane)`` — the lane's clock;
* explicitly wired ``*_port`` callables (narrow, method-shaped buses).

Reaching into the ``Machine`` facade or into a sibling component's
attributes from component code is a layering violation — flow lint rule
RL019 enforces this mechanically.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.cpu.kernel.clock import KernelClock
from repro.cpu.kernel.events import SimEvent
from repro.cpu.kernel.topology import Topology, single_core

#: A tap: called synchronously with every event published on its lane.
Tap = Callable[[SimEvent], None]


class Component:
    """Base class for pluggable kernel components.

    Subclasses override :meth:`handlers` to claim pipeline event types
    and receive ``self.kernel``/``self.lane`` via :meth:`attach` when
    registered.  Ports (``*_port`` attributes) are wired afterwards by
    the machine that assembles the lane.
    """

    #: Stable component name (unique per lane).
    name = "component"

    kernel: "SimKernel"
    lane: int

    def attach(self, kernel: "SimKernel", lane: int) -> None:
        self.kernel = kernel
        self.lane = lane

    def handlers(self) -> dict[type, Callable[..., None]]:
        """Map of pipeline event type -> bound handler."""
        return {}


class _Lane:
    """Per-lane dispatch state: clock, handler table, taps, counters."""

    __slots__ = ("index", "clock", "handlers", "taps", "components", "events", "retired")

    def __init__(self, index: int, clock: KernelClock) -> None:
        self.index = index
        self.clock = clock
        self.handlers: dict[type, Callable[..., None]] = {}
        self.taps: list[Tap] = []
        self.components: dict[str, Component] = {}
        self.events = 0
        self.retired = 0


class SimKernel:
    """Deterministic, synchronous event kernel over N independent lanes."""

    def __init__(self, topology: Topology | None = None) -> None:
        self.topology = topology if topology is not None else single_core()
        self._lanes: list[_Lane] = []
        self._completion: dict[int, SimEvent] = {}

    # ------------------------------------------------------------------ #
    # Assembly                                                            #
    # ------------------------------------------------------------------ #

    def add_lane(self, clock: KernelClock | None = None) -> int:
        """Create a new lane; returns its index."""
        lane = _Lane(len(self._lanes), clock if clock is not None else KernelClock())
        self._lanes.append(lane)
        return lane.index

    @property
    def n_lanes(self) -> int:
        return len(self._lanes)

    def clock_of(self, lane: int) -> KernelClock:
        return self._lanes[lane].clock

    def component_of(self, lane: int, name: str) -> Component:
        return self._lanes[lane].components[name]

    def register(self, lane: int, component: Component) -> Component:
        """Attach ``component`` to ``lane`` and claim its event types."""
        state = self._lanes[lane]
        if component.name in state.components:
            raise ValueError(
                f"lane {lane} already has a component named {component.name!r}"
            )
        component.attach(self, lane)
        state.components[component.name] = component
        for event_type, handler in component.handlers().items():
            if event_type in state.handlers:
                raise ValueError(
                    f"lane {lane}: {event_type.__name__} already handled by "
                    f"another component"
                )
            state.handlers[event_type] = handler
        return component

    def add_tap(self, lane: int, tap: Tap) -> None:
        """Append a tap; taps run synchronously in registration order."""
        self._lanes[lane].taps.append(tap)

    # ------------------------------------------------------------------ #
    # Dispatch                                                            #
    # ------------------------------------------------------------------ #

    def post(self, event: SimEvent) -> None:
        """Dispatch a pipeline event to its lane's handling component."""
        lane = self._lanes[event.lane]
        lane.events += 1
        handler = lane.handlers.get(type(event))
        if handler is None:
            raise LookupError(
                f"lane {lane.index}: no component handles {type(event).__name__}"
            )
        handler(event)

    def publish(self, event: SimEvent) -> None:
        """Synchronously fan ``event`` out to its lane's taps."""
        for tap in self._lanes[event.lane].taps:
            tap(event)

    def complete(self, event: SimEvent) -> None:
        """Record the terminal event ``submit`` hands back to the facade."""
        lane = self._lanes[event.lane]
        lane.retired += 1
        self._completion[event.lane] = event

    def submit(self, event: SimEvent) -> SimEvent | None:
        """Run ``event`` through the pipeline; return the lane's completion.

        This is the facade entry point: one architectural operation
        (a load, a flush, a switch) goes in, the pipeline runs to idle,
        and the terminal event (if the pipeline produced one) comes back.
        """
        self.post(event)
        return self._completion.pop(event.lane, None)

    # ------------------------------------------------------------------ #
    # Array-shaped inspection (the vectorization seam)                     #
    # ------------------------------------------------------------------ #

    def lane_cycles(self):
        """Per-lane cycle counters as an ``int64`` NumPy array."""
        import numpy as np

        return np.fromiter(
            (lane.clock.cycles for lane in self._lanes), dtype=np.int64, count=len(self._lanes)
        )

    def lane_events(self):
        """Per-lane dispatched-event counts as an ``int64`` NumPy array."""
        import numpy as np

        return np.fromiter(
            (lane.events for lane in self._lanes), dtype=np.int64, count=len(self._lanes)
        )

    def lane_retired(self):
        """Per-lane retired-operation counts as an ``int64`` NumPy array."""
        import numpy as np

        return np.fromiter(
            (lane.retired for lane in self._lanes), dtype=np.int64, count=len(self._lanes)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimKernel(lanes={len(self._lanes)})"
