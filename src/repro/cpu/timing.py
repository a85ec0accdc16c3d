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
        self._rng = rng

    def measured(self, ideal_latency: int) -> int:
        """Return a noisy measurement of ``ideal_latency`` (cycles, >= 1)."""
        noise, rng = self.noise, self._rng
        latency = float(ideal_latency)
        sigma = noise.timing_sigma
        if sigma > 0.0:
            latency += rng.normal(0.0, sigma)
        spike_prob = noise.timing_spike_prob
        if spike_prob > 0.0 and rng.random() < spike_prob:
            latency += noise.timing_spike_cycles
        return max(1, round(latency))
