"""``repro.cpu.kernel`` — the simulation core the ``Machine`` runs on.

``Machine.load`` is the one function a load runs through, and the machine
owns the clflush, switch and timer paths too.  The
:class:`~repro.cpu.kernel.core.SimKernel` holds the machine's clock and
its tracer, through which the machine and its model objects publish
their trace events (:mod:`repro.obs.events`).  See the
"Simulation kernel" section of ``DESIGN.md``.
"""

from repro.cpu.kernel.clock import DEFAULT_TICK_CYCLES, KernelClock
from repro.cpu.kernel.core import SimKernel

__all__ = [
    "DEFAULT_TICK_CYCLES",
    "KernelClock",
    "SimKernel",
]
