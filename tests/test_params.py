"""Tests for the machine presets (paper Table 2) and parameter validation."""

import dataclasses

import pytest

from repro.params import (
    CACHE_LINE_SIZE,
    COFFEE_LAKE_I7_9700,
    HASWELL_I7_4770,
    LINES_PER_PAGE,
    PAGE_SIZE,
    CacheGeometry,
    IPStrideParams,
    MachineParams,
    preset,
)


class TestTable2Presets:
    """The architecture/system configurations of the paper's Table 2."""

    def test_haswell_identity(self):
        assert HASWELL_I7_4770.name == "i7-4770"
        assert HASWELL_I7_4770.microarchitecture == "Haswell"
        assert HASWELL_I7_4770.cpu_cores == 4

    def test_coffee_lake_identity(self):
        assert COFFEE_LAKE_I7_9700.name == "i7-9700"
        assert COFFEE_LAKE_I7_9700.microarchitecture == "Coffee Lake"
        assert COFFEE_LAKE_I7_9700.cpu_cores == 8

    def test_llc_capacities_match_table2(self):
        assert HASWELL_I7_4770.llc_capacity_bytes == 8 * 2**20  # 8 MB
        assert COFFEE_LAKE_I7_9700.llc_capacity_bytes == 12 * 2**20  # 12 MB

    def test_aslr_enabled_by_default(self):
        assert HASWELL_I7_4770.aslr_enabled
        assert COFFEE_LAKE_I7_9700.aslr_enabled

    def test_sgx_only_on_coffee_lake(self):
        # The artifact appendix requires the i7-9700 for the SGX PoCs.
        assert COFFEE_LAKE_I7_9700.sgx_supported
        assert not HASWELL_I7_4770.sgx_supported

    def test_preset_lookup(self):
        assert preset("i7-4770") is HASWELL_I7_4770
        assert preset("Coffee-Lake") is COFFEE_LAKE_I7_9700

    def test_preset_unknown(self):
        with pytest.raises(KeyError):
            preset("alder-lake")


class TestIPStrideParams:
    """Prefetcher constants from the paper's §4 reverse engineering."""

    def test_defaults_match_paper(self):
        p = IPStrideParams()
        assert p.n_entries == 24  # Fig. 8a
        assert p.index_bits == 8  # Fig. 6
        assert p.prefetch_threshold == 2  # §4.2
        assert p.confidence_max == 3  # 2-bit counter
        assert p.stride_bits == 13  # 1 + 12 bits
        assert p.max_stride_bytes == 2048  # 2 KiB cap
        assert p.replacement == "bit-plru"  # Fig. 8b


class TestValidation:
    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(name="bad", sets=100, ways=8, latency=4)

    @pytest.mark.parametrize("line_size", [0, -64, 48, 100])
    def test_non_power_of_two_line_size_rejected(self, line_size):
        with pytest.raises(ValueError, match="line_size"):
            CacheGeometry(name="bad", sets=64, ways=8, latency=4, line_size=line_size)

    def test_threshold_must_separate_hit_from_miss(self):
        with pytest.raises(ValueError):
            dataclasses.replace(COFFEE_LAKE_I7_9700, llc_hit_threshold=30)

    def test_dram_slower_than_llc(self):
        with pytest.raises(ValueError):
            dataclasses.replace(COFFEE_LAKE_I7_9700, dram_latency=40)

    @pytest.mark.parametrize("level", ["l1d", "l2", "llc"])
    def test_mixed_line_sizes_rejected(self, level):
        # With a 32 B L1 under a 64 B LLC, evicting LLC line X would leave
        # X + 32 resident in the L1 and break inclusion (§5.1).
        narrow = dataclasses.replace(getattr(COFFEE_LAKE_I7_9700, level), line_size=32)
        with pytest.raises(ValueError, match="line size"):
            dataclasses.replace(COFFEE_LAKE_I7_9700, **{level: narrow})

    def test_one_shared_line_size_accepted(self):
        params = dataclasses.replace(
            COFFEE_LAKE_I7_9700,
            **{
                level: dataclasses.replace(getattr(COFFEE_LAKE_I7_9700, level), line_size=32)
                for level in ("l1d", "l2", "llc")
            },
        )
        assert {params.l1d.line_size, params.l2.line_size, params.llc.line_size} == {32}

    def test_geometry_capacity(self):
        geometry = CacheGeometry(name="L1D", sets=64, ways=8, latency=4)
        assert geometry.capacity_bytes == 32 * 1024


class TestDerivedMachines:
    def test_quiet_removes_all_noise(self):
        quiet = COFFEE_LAKE_I7_9700.quiet()
        assert quiet.noise.timing_sigma == 0.0
        assert quiet.noise.switch_cache_lines == 0
        assert quiet.noise.switch_fixed_ips == 0
        assert quiet.noise.kernel_variable_ips == 0

    def test_quiet_preserves_geometry(self):
        quiet = COFFEE_LAKE_I7_9700.quiet()
        assert quiet.llc_capacity_bytes == COFFEE_LAKE_I7_9700.llc_capacity_bytes

    def test_with_noise_override(self):
        modified = COFFEE_LAKE_I7_9700.with_noise(timing_sigma=9.0)
        assert modified.noise.timing_sigma == 9.0
        assert COFFEE_LAKE_I7_9700.noise.timing_sigma != 9.0  # original intact

    def test_constants(self):
        assert CACHE_LINE_SIZE == 64
        assert PAGE_SIZE == 4096
        assert LINES_PER_PAGE == 64
