"""Machine configuration presets (paper Table 2) and tunable model parameters.

Two presets mirror the paper's evaluation machines:

* :data:`HASWELL_I7_4770` — Intel i7-4770, 4 cores, 8 MiB LLC.
* :data:`COFFEE_LAKE_I7_9700` — Intel i7-9700, 8 cores, 12 MiB LLC (SGX).

All latency and noise values are *model* parameters: the paper's attacks only
require that the cache-hit / DRAM-miss latency gap straddles the 120-cycle
LLC-hit threshold the paper uses (caption of its Figure 6), and that noise
grows across isolation boundaries (thread < process < kernel).  The defaults
below are calibrated once so the reproduced experiments land in the paper's
reported bands; see DESIGN.md §5.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

#: Bytes per cache line on every modeled machine.
CACHE_LINE_SIZE = 64

#: Bytes per (small) page on every modeled machine.
PAGE_SIZE = 4096

#: Cache lines per page — the unit of the paper's Figures 13/14 x-axes.
LINES_PER_PAGE = PAGE_SIZE // CACHE_LINE_SIZE


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry and access latency of one cache level.

    ``sets`` is the number of sets *per slice* for the (sliced) LLC and the
    total number of sets for private levels.
    """

    name: str
    sets: int
    ways: int
    latency: int
    line_size: int = CACHE_LINE_SIZE

    def __post_init__(self) -> None:
        if self.sets <= 0 or self.sets & (self.sets - 1):
            raise ValueError(f"{self.name}: sets must be a power of two, got {self.sets}")
        if self.ways <= 0:
            raise ValueError(f"{self.name}: ways must be positive, got {self.ways}")
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError(
                f"{self.name}: line_size must be a power of two, got {self.line_size}"
            )
        if self.latency <= 0:
            raise ValueError(f"{self.name}: latency must be positive, got {self.latency}")

    @property
    def capacity_bytes(self) -> int:
        """Capacity of one slice (LLC) or of the whole cache (private levels)."""
        return self.sets * self.ways * self.line_size


@dataclass(frozen=True)
class IPStrideParams:
    """Parameters of the IP-stride prefetcher, as reverse-engineered in §4.

    * 24 history entries (Fig. 8a),
    * indexed by the low 8 bits of the load IP with **no tag** (Fig. 6),
    * 2-bit confidence, prefetch threshold 2 (§4.2),
    * (1+12)-bit stride, magnitude capped at 2 KiB (§4.2, footnote 5),
    * Bit-PLRU replacement (Fig. 8b).
    """

    n_entries: int = 24
    index_bits: int = 8
    confidence_bits: int = 2
    prefetch_threshold: int = 2
    stride_bits: int = 13
    max_stride_bytes: int = 2048
    replacement: str = "bit-plru"

    @property
    def confidence_max(self) -> int:
        return (1 << self.confidence_bits) - 1


@dataclass(frozen=True)
class NoiseParams:
    """Stochastic disturbance knobs.

    ``timing_sigma``/``timing_spike_*`` perturb measured latencies (system
    jitter, interrupts).  The ``switch_*`` knobs model the memory traffic of a
    context switch: the paper observes that switches pollute both the caches
    (over half of the minimal eviction sets are touched, §5.1) and the
    prefetcher table (covert-channel error >25 % when 24 entries are used,
    §7.2).

    Prefetcher pollution has two components.  The switch path itself is
    *fixed code*, so its loads hit the same prefetcher indexes every time
    (``switch_fixed_ips`` — they occupy slots but stop causing churn after
    warm-up).  On top of that, data-dependent kernel activity (which task
    struct, which mm, which IRQ handler ran) contributes loads at
    effectively *variable* IPs (``switch_variable_ips`` per cross-process
    switch, ``kernel_variable_ips`` per syscall) — each has a 1/256 chance
    of aliasing (and clobbering) a trained entry.
    """

    timing_sigma: float = 2.0
    timing_spike_prob: float = 0.002
    timing_spike_cycles: int = 180
    switch_cache_lines: int = 96
    switch_fixed_ips: int = 6
    switch_variable_ips: int = 1
    kernel_variable_ips: int = 32


@dataclass(frozen=True)
class MachineParams:
    """Full description of a simulated machine."""

    name: str
    microarchitecture: str
    cpu_cores: int
    frequency_hz: float
    l1d: CacheGeometry
    l2: CacheGeometry
    llc: CacheGeometry
    llc_slices: int
    dram_latency: int
    tlb_entries: int = 64
    page_walk_latency: int = 120
    llc_hit_threshold: int = 120
    prefetcher: IPStrideParams = field(default_factory=IPStrideParams)
    noise: NoiseParams = field(default_factory=NoiseParams)
    enable_dcu_prefetcher: bool = True
    enable_adjacent_prefetcher: bool = True
    enable_streamer_prefetcher: bool = True
    enable_next_page_prefetcher: bool = True
    aslr_enabled: bool = True
    sgx_supported: bool = False

    def __post_init__(self) -> None:
        if self.llc_slices <= 0:
            raise ValueError(f"llc_slices must be positive, got {self.llc_slices}")
        line_sizes = {level.line_size for level in (self.l1d, self.l2, self.llc)}
        if len(line_sizes) != 1:
            # Inclusion back-invalidates by line: a smaller core-cache line
            # would leave part of an evicted LLC line resident (§5.1).
            raise ValueError(
                "L1D, L2 and LLC must share one line size, got "
                f"{self.l1d.line_size}/{self.l2.line_size}/{self.llc.line_size}"
            )
        if self.dram_latency <= self.llc.latency:
            raise ValueError("DRAM latency must exceed LLC latency")
        if not self.llc.latency < self.llc_hit_threshold < self.dram_latency:
            raise ValueError(
                "llc_hit_threshold must separate LLC hits from DRAM misses: "
                f"{self.llc.latency} < {self.llc_hit_threshold} < {self.dram_latency} required"
            )

    @property
    def llc_capacity_bytes(self) -> int:
        """Total LLC capacity across slices."""
        return self.llc.capacity_bytes * self.llc_slices

    def with_noise(self, **updates: object) -> "MachineParams":
        """Return a copy with selected noise knobs replaced."""
        return replace(self, noise=replace(self.noise, **updates))

    def fingerprint(self) -> str:
        """SHA-256 over the full resolved machine description.

        Canonical-JSON of every field (sorted keys, no whitespace), so any
        model-parameter change — a latency, a prefetcher knob, a noise
        level — yields a new fingerprint.  :mod:`repro.campaign` builds its
        content-addressed cell keys on this: stale cached results can never
        be served for a reconfigured machine.
        """
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def quiet(self) -> "MachineParams":
        """Return a noise-free copy, used by the reverse-engineering benches.

        The paper's microbenchmarks (§4) pin the process, disable other
        prefetchers' interference by stride choice and average repeated runs;
        a zero-noise machine is the modelling equivalent.
        """
        return replace(
            self,
            noise=NoiseParams(
                timing_sigma=0.0,
                timing_spike_prob=0.0,
                timing_spike_cycles=0,
                switch_cache_lines=0,
                switch_fixed_ips=0,
                switch_variable_ips=0,
                kernel_variable_ips=0,
            ),
        )


#: Paper Table 2, first column: i7-4770 (Haswell), 4 cores, 8 MiB LLC.
HASWELL_I7_4770 = MachineParams(
    name="i7-4770",
    microarchitecture="Haswell",
    cpu_cores=4,
    frequency_hz=3.4e9,
    l1d=CacheGeometry(name="L1D", sets=64, ways=8, latency=4),
    l2=CacheGeometry(name="L2", sets=512, ways=8, latency=14),
    llc=CacheGeometry(name="LLC", sets=2048, ways=16, latency=42),
    llc_slices=4,
    dram_latency=250,
    sgx_supported=False,
)

#: Paper Table 2, second column: i7-9700 (Coffee Lake), 8 cores, 12 MiB LLC.
COFFEE_LAKE_I7_9700 = MachineParams(
    name="i7-9700",
    microarchitecture="Coffee Lake",
    cpu_cores=8,
    frequency_hz=3.0e9,
    l1d=CacheGeometry(name="L1D", sets=64, ways=8, latency=4),
    l2=CacheGeometry(name="L2", sets=512, ways=8, latency=14),
    llc=CacheGeometry(name="LLC", sets=2048, ways=12, latency=42),
    llc_slices=8,
    dram_latency=250,
    sgx_supported=True,
)

#: Default machine for examples and tests: the SGX-capable Coffee Lake part.
DEFAULT_MACHINE = COFFEE_LAKE_I7_9700

PRESETS: dict[str, MachineParams] = {
    "i7-4770": HASWELL_I7_4770,
    "haswell": HASWELL_I7_4770,
    "i7-9700": COFFEE_LAKE_I7_9700,
    "coffee-lake": COFFEE_LAKE_I7_9700,
}


def preset(name: str) -> MachineParams:
    """Look up a machine preset by model or microarchitecture name."""
    key = name.strip().lower()
    if key not in PRESETS:
        raise KeyError(f"unknown machine preset {name!r}; known: {sorted(PRESETS)}")
    return PRESETS[key]
