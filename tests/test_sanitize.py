"""Corruption tests for every repro.sanitize invariant class.

Each test takes a healthy machine, corrupts one piece of model state the
way a hypothetical bug would, and asserts the sanitizer raises a
structured :class:`InvariantViolation` naming that invariant.  The
corruption lines mutate foreign private state on purpose — exactly what
lint rule RL005 exists to catch — so each carries its noqa marker.
"""

import pytest

from repro.cpu.machine import Machine
from repro.defenses import harden_machine
from repro.memsys.hierarchy import MemoryLevel
from repro.params import COFFEE_LAKE_I7_9700, PAGE_SIZE
from repro.prefetch.base import LoadEvent, PrefetchRequest
from repro.prefetch.ip_stride import IPStridePrefetcher
from repro.sanitize import InvariantViolation, Sanitizer, sanitize_enabled


def make_machine(**kwargs):
    return Machine(COFFEE_LAKE_I7_9700, seed=11, sanitize=True, **kwargs)


def trained_machine(n_ips=6):
    """A sanitized machine whose prefetcher holds confident entries."""
    machine = make_machine()
    ctx = machine.new_thread("victim")
    buf = machine.new_buffer(ctx.space, 64 * PAGE_SIZE)
    machine.warm_buffer_tlb(ctx, buf)
    for k in range(n_ips):
        ip = 0x40_1000 + 0x100 * k
        for step in range(4):
            machine.load(ctx, ip, buf.page_line_addr(k, step))
    return machine, ctx, buf


def expect_violation(machine, invariant):
    with pytest.raises(InvariantViolation) as excinfo:
        machine.sanitizer.check_all()
    assert excinfo.value.invariant == invariant
    return excinfo.value


class TestGating:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert Machine(COFFEE_LAKE_I7_9700, seed=1).sanitizer is None

    def test_explicit_flag_wins(self):
        assert make_machine().sanitizer is not None

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled(None)
        assert Machine(COFFEE_LAKE_I7_9700, seed=1).sanitizer is not None
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled(None)
        assert sanitize_enabled(True)

    def test_healthy_machine_stays_clean(self):
        machine, ctx, buf = trained_machine()
        other = machine.new_thread("other")
        machine.context_switch(ctx)
        machine.context_switch(other)
        machine.sanitizer.check_all()
        assert machine.sanitizer.checks_run > 0

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            Sanitizer(Machine(COFFEE_LAKE_I7_9700, seed=1), full_scan_interval=0)


class TestPrefetcherInvariants:
    def test_confidence_out_of_range(self):
        machine, _, _ = trained_machine()
        entry = machine.ip_stride.entries()[0]
        entry.confidence = 7  # repro: noqa[RL005] - deliberate corruption
        violation = expect_violation(machine, "confidence-range")
        assert violation.component == "ip-stride"
        assert violation.snapshot["confidence"] == 7

    def test_stride_out_of_field(self):
        machine, _, _ = trained_machine()
        entry = machine.ip_stride.entries()[0]
        entry.stride = 1 << 14  # repro: noqa[RL005] - deliberate corruption
        expect_violation(machine, "stride-width")

    def test_index_wider_than_index_bits(self):
        machine, _, _ = trained_machine()
        pf = machine.ip_stride
        entry = pf.entries()[0]
        old_index = entry.index
        entry.index = 0x1FF  # repro: noqa[RL005] - deliberate corruption
        slot = pf._index_to_slot.pop(old_index)  # repro: noqa[RL005]
        pf._index_to_slot[0x1FF] = slot  # repro: noqa[RL005]
        expect_violation(machine, "index-width")

    def test_occupancy_overflow(self):
        machine, _, _ = trained_machine()
        pf = machine.ip_stride
        pf._slots.append(None)  # repro: noqa[RL005] - deliberate corruption
        expect_violation(machine, "table-capacity")

    def test_index_map_points_at_empty_slot(self):
        machine, _, _ = trained_machine()
        pf = machine.ip_stride
        index = next(iter(pf._index_to_slot))
        pf._slots[pf._index_to_slot[index]] = None  # repro: noqa[RL005]
        expect_violation(machine, "index-map")

    def test_bit_plru_saturated(self):
        machine, _, _ = trained_machine()
        policy = machine.ip_stride._policy
        policy._mru = [True] * len(policy._mru)  # repro: noqa[RL005]
        expect_violation(machine, "bit-plru")

    def test_swapped_in_table_is_audited(self):
        # The §8.2 defenses replace machine.ip_stride after the sanitizer
        # is built: the checks must audit the table the machine runs now.
        machine, ctx, buf = trained_machine()
        table = IPStridePrefetcher(machine.params.prefetcher)
        machine.ip_stride = table
        table._index_to_slot[0x42] = 0  # repro: noqa[RL005] - deliberate corruption
        with pytest.raises(InvariantViolation) as excinfo:
            machine.load(ctx, 0x40_1000, buf.page_line_addr(0, 5))
        assert excinfo.value.invariant == "index-map"
        expect_violation(machine, "index-map")

    def test_violation_carries_cycle(self):
        machine, _, _ = trained_machine()
        machine.ip_stride.entries()[0].confidence = -1  # repro: noqa[RL005]
        violation = expect_violation(machine, "confidence-range")
        assert violation.cycle == machine.cycles


class TestPageBoundaryInvariant:
    def test_cross_frame_request_rejected(self):
        machine, ctx, buf = trained_machine()
        paddr = ctx.space.translate(buf.page_line_addr(0, 0))
        event = LoadEvent(
            ip=0x40_1000, vaddr=0, paddr=paddr, hit_level=MemoryLevel.DRAM, asid=ctx.space.asid
        )
        crossing = PrefetchRequest(paddr=paddr + PAGE_SIZE, source="ip-stride")
        with pytest.raises(InvariantViolation) as excinfo:
            machine.sanitizer.prefetcher.check_request(event, crossing)
        assert excinfo.value.invariant == "page-boundary"

    def test_same_frame_request_accepted(self):
        machine, ctx, buf = trained_machine()
        paddr = ctx.space.translate(buf.page_line_addr(0, 0))
        event = LoadEvent(
            ip=0x40_1000, vaddr=0, paddr=paddr, hit_level=MemoryLevel.DRAM, asid=ctx.space.asid
        )
        same_frame = PrefetchRequest(paddr=(paddr // PAGE_SIZE) * PAGE_SIZE, source="ip-stride")
        machine.sanitizer.prefetcher.check_request(event, same_frame)

    def test_tagged_table_requests_are_frame_checked(self, monkeypatch):
        # The §8.2 tagged table applies the same same-frame rule, so its
        # requests are checked like the stock table's.
        machine, ctx, buf = trained_machine()
        tagged = harden_machine(machine)
        observe = tagged.observe

        def crossing_observe(event, translate):
            crossing = PrefetchRequest(paddr=event.paddr + PAGE_SIZE, source=tagged.name)
            return observe(event, translate) + [crossing]

        monkeypatch.setattr(tagged, "observe", crossing_observe)
        with pytest.raises(InvariantViolation) as excinfo:
            machine.load(ctx, 0x40_1000, buf.page_line_addr(0, 5))
        assert excinfo.value.invariant == "page-boundary"

    def test_model_never_issues_crossing_requests(self):
        # End to end: a victim trained right up to a page boundary must not
        # trip the sanitizer — the model drops the crossing request (§4.3).
        machine, ctx, buf = trained_machine()
        ip = 0x40_2000
        for step in range(60, 64):  # walk to the last lines of page 2
            machine.load(ctx, ip, buf.page_line_addr(2, step))
        machine.sanitizer.check_all()


class TestHierarchyInvariants:
    def test_core_line_missing_from_llc(self):
        machine, ctx, buf = trained_machine()
        paddr = ctx.space.translate(buf.page_line_addr(1, 0))
        machine.load(ctx, 0x40_9000, buf.page_line_addr(1, 0))
        machine.hierarchy.llc_slice(paddr).invalidate(paddr)  # repro: noqa[RL005]
        assert machine.hierarchy.l1.contains(paddr)
        expect_violation(machine, "inclusivity")

    def test_check_line_catches_fresh_violation(self):
        machine, ctx, buf = trained_machine()
        vaddr = buf.page_line_addr(1, 0)
        paddr = ctx.space.translate(vaddr)
        machine.load(ctx, 0x40_9000, vaddr)
        machine.hierarchy.llc_slice(paddr).invalidate(paddr)  # repro: noqa[RL005]
        with pytest.raises(InvariantViolation):
            machine.load(ctx, 0x40_9000, vaddr)

    def test_set_bookkeeping_corruption(self):
        machine, ctx, buf = trained_machine()
        paddr = ctx.space.translate(buf.page_line_addr(1, 0))
        machine.load(ctx, 0x40_9000, buf.page_line_addr(1, 0))
        l1 = machine.hierarchy.l1
        index = l1.set_index(paddr)
        lines = l1.sets[index]
        # Overfill the set behind the LRU's back: more lines than ways, each
        # a line of this set.
        for extra in range(1, l1.ways + 1):
            lines[(paddr >> l1.line_shift) + extra * l1.n_sets] = None  # deliberate corruption
        assert l1.set_occupancy(index) > l1.ways
        expect_violation(machine, "set-bookkeeping")

    def test_line_filed_in_wrong_set(self):
        machine, ctx, buf = trained_machine()
        paddr = ctx.space.translate(buf.page_line_addr(1, 0))
        machine.load(ctx, 0x40_9000, buf.page_line_addr(1, 0))
        l2 = machine.hierarchy.l2
        line = paddr >> l2.line_shift
        wrong = (l2.set_index(paddr) + 1) % l2.n_sets
        # One line under capacity, but keyed into a set it does not map to.
        l2.sets[wrong][line] = None  # deliberate corruption
        assert l2.set_occupancy(wrong) <= l2.ways
        expect_violation(machine, "set-bookkeeping")


class TestTLBInvariants:
    def test_capacity_overflow(self):
        machine, ctx, _ = trained_machine()
        tlb = machine.tlb
        for extra in range(machine.params.tlb_entries + 4):
            key = (ctx.space.asid, 0x7000_0000 + extra)
            tlb._entries[key] = extra  # repro: noqa[RL005] - deliberate corruption
        expect_violation(machine, "capacity")

    def test_lru_order_disagrees(self):
        """A global entry dropped from the LRU map but still marked global."""
        machine, _, _ = trained_machine()
        kernel_buf = machine.new_buffer(machine.kernel_space, PAGE_SIZE)
        machine.tlb.warm(machine.kernel_space, kernel_buf.page_line_addr(0, 0))
        key = (machine.kernel_space.asid, kernel_buf.page_line_addr(0, 0) // PAGE_SIZE)
        assert key in machine.tlb._global_keys
        del machine.tlb._entries[key]  # repro: noqa[RL005] - deliberate corruption
        expect_violation(machine, "lru-bookkeeping")

    def test_orphaned_global_key(self):
        machine, _, _ = trained_machine()
        machine.tlb._global_keys.add((999, 999))  # repro: noqa[RL005]
        expect_violation(machine, "lru-bookkeeping")

    def test_cached_frame_disagrees_with_page_table(self):
        machine, ctx, buf = trained_machine()
        key = (ctx.space.asid, buf.page_line_addr(0, 0) // PAGE_SIZE)
        assert key in machine.tlb._entries
        machine.tlb._entries[key] += 1  # repro: noqa[RL005] - deliberate corruption
        violation = expect_violation(machine, "page-table-agreement")
        assert violation.snapshot["asid"] == ctx.space.asid

    def test_stale_tlb_caught_during_load(self):
        machine, ctx, buf = trained_machine()
        key = (ctx.space.asid, buf.page_line_addr(0, 0) // PAGE_SIZE)
        machine.tlb._entries[key] += 1  # repro: noqa[RL005] - deliberate corruption
        with pytest.raises(InvariantViolation):
            # The full TLB/page-table cross-check runs on the switch path.
            machine.context_switch(machine.new_thread("other"))


class TestViolationStructure:
    def test_message_contains_component_and_state(self):
        machine, _, _ = trained_machine()
        machine.ip_stride.entries()[0].confidence = 9  # repro: noqa[RL005]
        violation = expect_violation(machine, "confidence-range")
        text = str(violation)
        assert "[ip-stride]" in text
        assert "confidence-range" in text
        assert "confidence = 9" in text

    def test_is_assertion_error(self):
        # `pytest.raises(AssertionError)` and bare `assert`-style tooling
        # both catch sanitizer failures.
        assert issubclass(InvariantViolation, AssertionError)
