"""``repro.cpu.kernel`` — the event-driven simulation core.

The :class:`~repro.cpu.kernel.core.SimKernel` dispatches typed simulation
events (:mod:`repro.cpu.kernel.events`) synchronously, in a deterministic
order, to pluggable components (:mod:`repro.cpu.kernel.components`); the public
``Machine`` is a facade over one kernel lane, and
:class:`~repro.cpu.kernel.batch.MachineBatch` steps N same-topology trials
through a single kernel instance with array-shaped per-trial state.  See
the "Simulation kernel" section of ``DESIGN.md``.
"""

from repro.cpu.kernel.batch import MachineBatch
from repro.cpu.kernel.clock import DEFAULT_TICK_CYCLES, KernelClock
from repro.cpu.kernel.core import Component, SimKernel
from repro.cpu.kernel.topology import CoreDescriptor, Topology, single_core

__all__ = [
    "Component",
    "CoreDescriptor",
    "DEFAULT_TICK_CYCLES",
    "KernelClock",
    "MachineBatch",
    "SimKernel",
    "Topology",
    "single_core",
]
