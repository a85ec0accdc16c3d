"""TimingModel's draws against the NumPy calls they replace, bit for bit.

``TimingModel.measured`` calls ``standard_normal`` and the bit generator's
``random_raw`` directly instead of ``normal(0.0, sigma)`` and ``random()``.
Every golden trace and every ``perfbench/reference.json`` digest depends
on those draws, so the reference below keeps the original calls and the
model must match it value for value and leave the generator in the same
state.
"""

import pytest

from repro.cpu.timing import TimingModel
from repro.params import COFFEE_LAKE_I7_9700, HASWELL_I7_4770, NoiseParams
from repro.utils.rng import derive_rng, make_rng

SEEDS = range(20)
DRAWS = 50_000
#: Ideal latencies cycled through: L1, L2, LLC, DRAM and a page-walk miss.
IDEALS = (4, 14, 42, 250, 370)

NOISE_CASES = {
    "i7-9700": COFFEE_LAKE_I7_9700.noise,
    "haswell": HASWELL_I7_4770.noise,
    "quiet": COFFEE_LAKE_I7_9700.quiet().noise,
    "spike-0.5": NoiseParams(timing_sigma=2.0, timing_spike_prob=0.5, timing_spike_cycles=180),
}


def reference_measured(noise, rng, ideal_latency):
    """``TimingModel.measured`` as written with the public NumPy calls."""
    latency = float(ideal_latency)
    if noise.timing_sigma > 0.0:
        latency += rng.normal(0.0, noise.timing_sigma)
    if noise.timing_spike_prob > 0.0 and rng.random() < noise.timing_spike_prob:
        latency += noise.timing_spike_cycles
    return max(1, round(latency))


def swapped_measured(noise, rng, ideal_latency):
    """The reference with its two draws in the wrong order."""
    latency = float(ideal_latency)
    spike = noise.timing_spike_prob > 0.0 and rng.random() < noise.timing_spike_prob
    if noise.timing_sigma > 0.0:
        latency += rng.normal(0.0, noise.timing_sigma)
    if spike:
        latency += noise.timing_spike_cycles
    return max(1, round(latency))


def first_mismatch(noise, seed, reference):
    """The first draw where the model and ``reference`` differ, else None.

    Both generators are derived the way ``Machine`` derives its timing
    stream.  After the draws, a differing generator state counts as a
    mismatch at index ``DRAWS``.
    """
    model_rng = derive_rng(make_rng(seed), "timing")
    reference_rng = derive_rng(make_rng(seed), "timing")
    measured = TimingModel(noise, model_rng).measured
    for index in range(DRAWS):
        ideal = IDEALS[index % len(IDEALS)]
        if measured(ideal) != reference(noise, reference_rng, ideal):
            return index
    if model_rng.bit_generator.state != reference_rng.bit_generator.state:
        return DRAWS
    return None


@pytest.mark.parametrize("case", sorted(NOISE_CASES))
def test_measured_matches_public_numpy_draws(case):
    noise = NOISE_CASES[case]
    for seed in SEEDS:
        mismatch = first_mismatch(noise, seed, reference_measured)
        assert mismatch is None, f"{case}, seed {seed}: first differs at draw {mismatch}"


@pytest.mark.parametrize("case", ["i7-9700", "haswell", "spike-0.5"])
def test_comparison_catches_swapped_draw_order(case):
    # The equality above would be vacuous if it could not tell the two
    # draws apart; swapping them must show up on every noisy preset.
    noise = NOISE_CASES[case]
    assert all(first_mismatch(noise, seed, swapped_measured) is not None for seed in SEEDS[:3])
