"""Edge-case tests that don't fit the per-module files."""

import pytest

from repro.core.covert import CovertChannelReport, CovertRoundResult
from repro.cpu.machine import Machine
from repro.memsys.hierarchy import MemoryLevel
from repro.params import COFFEE_LAKE_I7_9700, PAGE_SIZE


class TestCovertReport:
    def test_empty_report(self):
        report = CovertChannelReport(rounds=[], cycles=0, frequency_hz=3e9)
        assert report.error_rate == 0.0
        assert report.bandwidth_bps == 0.0

    def test_error_rate_counts_none_as_error(self):
        rounds = [
            CovertRoundResult(sent_value=7, received_value=7),
            CovertRoundResult(sent_value=7, received_value=None),
            CovertRoundResult(sent_value=7, received_value=9),
        ]
        report = CovertChannelReport(rounds=rounds, cycles=3_000_000, frequency_hz=3e9)
        assert report.error_rate == pytest.approx(2 / 3)
        assert report.seconds == pytest.approx(0.001)
        assert report.bandwidth_bps == pytest.approx(15 / 0.001)


class TestHierarchyStats:
    def test_reset_stats(self, quiet_machine, user_context):
        machine, ctx = quiet_machine, user_context
        buf = machine.new_buffer(ctx.space, PAGE_SIZE)
        machine.warm_buffer_tlb(ctx, buf)
        for i in range(4):
            machine.load(ctx, 0x400010, buf.line_addr(i * 7))
        assert machine.hierarchy.demand_accesses > 0
        machine.hierarchy.reset_stats()
        assert machine.hierarchy.demand_accesses == 0
        assert machine.hierarchy.prefetch_fills == 0
        assert machine.hierarchy.l1.hits == 0

    def test_prefetch_and_demand_counted_separately(self, quiet_machine, user_context):
        machine, ctx = quiet_machine, user_context
        buf = machine.new_buffer(ctx.space, PAGE_SIZE)
        machine.warm_buffer_tlb(ctx, buf)
        machine.hierarchy.reset_stats()
        for i in range(5):
            machine.load(ctx, 0x400010, buf.line_addr(i * 7))
        assert machine.hierarchy.demand_accesses == 5
        assert machine.hierarchy.prefetch_fills >= 2  # conf 2+ accesses


class TestPrefetcherCounters:
    def test_issue_and_allocation_counters(self, quiet_machine, user_context):
        machine, ctx = quiet_machine, user_context
        buf = machine.new_buffer(ctx.space, PAGE_SIZE)
        machine.warm_buffer_tlb(ctx, buf)
        pf = machine.ip_stride
        for i in range(5):
            machine.load(ctx, 0x400010, buf.line_addr(i * 7))
        assert pf.allocations == 1
        assert pf.prefetches_issued == 3  # accesses 3, 4, 5

    def test_clear_counter(self, quiet_machine):
        machine = quiet_machine
        machine.run_prefetcher_clear()
        machine.run_prefetcher_clear()
        assert machine.ip_stride.clears == 2


class TestKernelContext:
    def test_kernel_context_uses_kernel_space(self, quiet_machine):
        kctx = quiet_machine.kernel_context()
        assert kctx.privileged
        assert kctx.space is quiet_machine.kernel_space
        assert kctx.space.global_pages

    def test_kernel_load_path(self, quiet_machine):
        machine = quiet_machine
        kctx = machine.kernel_context()
        buf = machine.new_buffer(machine.kernel_space, PAGE_SIZE, locked=True)
        machine.context_switch(kctx)
        machine.warm_tlb(kctx, buf.base)
        latency = machine.load(kctx, 0xFFFF_8000_0123_4560, buf.base)
        assert latency >= machine.params.dram_latency


class TestAccessResult:
    def test_hit_property(self):
        from repro.memsys.hierarchy import AccessResult

        assert AccessResult(MemoryLevel.L1, 4).hit
        assert AccessResult(MemoryLevel.LLC, 42).hit
        assert not AccessResult(MemoryLevel.DRAM, 250).hit


class TestBufferSharingAcrossMachineHelpers:
    def test_share_buffer_roundtrip(self, quiet_machine):
        machine = quiet_machine
        a = machine.new_thread("a")
        b = machine.new_thread("b")
        machine.context_switch(a)
        original = machine.new_buffer(a.space, 2 * PAGE_SIZE)
        view = machine.share_buffer(original, b.space)
        machine.context_switch(b)
        machine.warm_tlb(b, view.base)
        machine.load(b, 0x400000, view.base)
        # The *physical* line is now cached: visible through both mappings.
        machine.context_switch(a)
        machine.warm_tlb(a, original.base)
        assert machine.load(a, 0x400008, original.base) < machine.hit_threshold()


class TestMachineRepr:
    def test_reprs_are_stable(self, quiet_machine, user_context):
        # Debug reprs shouldn't crash (they show up in test failures).
        repr(quiet_machine)
        repr(quiet_machine.ip_stride)
        repr(quiet_machine.hierarchy.l1)
        buf = quiet_machine.new_buffer(user_context.space, PAGE_SIZE)
        repr(buf)
        repr(user_context.space)
