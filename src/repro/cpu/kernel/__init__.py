"""``repro.cpu.kernel`` — the simulation core behind the ``Machine`` facade.

The components (:mod:`repro.cpu.kernel.components`) own the memory, prefetch,
retire and OS subsystems; ``Machine.load`` drives them as a plain call chain.
The :class:`~repro.cpu.kernel.core.SimKernel` holds the machine's clock and
the taps (tracer, sanitizer) that observe the published events
(:mod:`repro.cpu.kernel.events`).  See the "Simulation kernel" section of
``DESIGN.md``.
"""

from repro.cpu.kernel.clock import DEFAULT_TICK_CYCLES, KernelClock
from repro.cpu.kernel.core import Component, SimKernel

__all__ = [
    "Component",
    "DEFAULT_TICK_CYCLES",
    "KernelClock",
    "SimKernel",
]
