"""Measured-latency noise model.

A real `rdtscp`-bracketed load measurement carries jitter from pipeline
effects, interrupts and SMIs.  We add seeded Gaussian jitter plus rare large
spikes; the LLC-hit threshold (120 cycles, paper Fig. 6) must stay robust to
this noise, exactly as on hardware.
"""

from __future__ import annotations

import numpy as np

from repro.params import NoiseParams


class TimingModel:
    """Perturb ideal latencies into noisy measured latencies."""

    def __init__(self, noise: NoiseParams, rng: np.random.Generator) -> None:
        self.noise = noise
        self._standard_normal = rng.standard_normal
        self._random_raw = rng.bit_generator.random_raw

    def measured(self, ideal_latency: int) -> int:
        """Return a noisy measurement of ``ideal_latency`` (cycles, >= 1)."""
        noise = self.noise
        latency = float(ideal_latency)
        sigma = noise.timing_sigma
        # ``rng.normal(0.0, sigma)`` and PCG64's ``rng.random()``, drawn
        # without their argument handling (tests/test_cpu_timing.py).
        if sigma > 0.0:
            latency += sigma * self._standard_normal()
        spike_prob = noise.timing_spike_prob
        if spike_prob > 0.0 and (self._random_raw() >> 11) * 2.0**-53 < spike_prob:
            latency += noise.timing_spike_cycles
        return max(1, round(latency))
