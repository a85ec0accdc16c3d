"""Tests for the §8.2 defense options: each must stop the leak (or, for
the detector, demonstrably fail to see it) without breaking the owner."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gadget import TrainingGadget
from repro.core.variant1 import BranchLoadVictim, Variant1CrossProcess
from repro.cpu.machine import Machine
from repro.defenses.detector import PerformanceCounterDetector
from repro.defenses.oblivious import ObliviousBranchVictim
from repro.defenses.tagged_prefetcher import TaggedIPStridePrefetcher, harden_machine
from repro.defenses.toggles import disable_ip_stride_prefetcher
from repro.memsys.hierarchy import MemoryLevel
from repro.params import COFFEE_LAKE_I7_9700, PAGE_SIZE, IPStrideParams
from repro.prefetch.base import LoadEvent
from repro.prefetch.ip_stride import IPStridePrefetcher
from repro.utils.rng import make_rng


def quiet_machine(seed=70):
    return Machine(COFFEE_LAKE_I7_9700.quiet(), seed=seed)


class TestTaggedPrefetcher:
    def test_owner_still_gets_prefetches(self):
        machine = quiet_machine()
        harden_machine(machine)
        ctx = machine.new_thread("owner")
        machine.context_switch(ctx)
        buf = machine.new_buffer(ctx.space, PAGE_SIZE)
        machine.warm_buffer_tlb(ctx, buf)
        for i in range(4):
            machine.load(ctx, 0x400010, buf.line_addr(i * 7))
        target = buf.line_addr(4 * 7 + 7)
        machine.load(ctx, 0x400010, buf.line_addr(4 * 7))
        assert machine.is_cached(ctx, target)  # legitimate prefetch intact

    def test_low_bit_aliasing_defeated(self):
        """The full-IP tag kills the masquerading gadget."""
        machine = quiet_machine(71)
        tagged = harden_machine(machine)
        ctx = machine.new_thread("attacker")
        machine.context_switch(ctx)
        buf = machine.new_buffer(ctx.space, PAGE_SIZE)
        machine.warm_buffer_tlb(ctx, buf)
        for i in range(4):
            machine.load(ctx, 0x400010, buf.line_addr(i * 7))
        alias = 0x990010  # same low 8 bits, different full IP
        machine.clflush(ctx, buf.line_addr(40 + 7))
        machine.load(ctx, alias, buf.line_addr(40))
        assert not machine.is_cached(ctx, buf.line_addr(40 + 7))
        assert tagged.occupancy == 2  # two distinct entries, no sharing

    def test_cross_space_sharing_defeated(self):
        """The ASID tag isolates processes even for identical IPs."""
        machine = quiet_machine(72)
        harden_machine(machine)
        a = machine.new_thread("a")
        b = machine.new_thread("b")
        machine.context_switch(a)
        buf_a = machine.new_buffer(a.space, PAGE_SIZE)
        machine.warm_buffer_tlb(a, buf_a)
        for i in range(4):
            machine.load(a, 0x400010, buf_a.line_addr(i * 7))
        machine.context_switch(b)
        buf_b = machine.new_buffer(b.space, PAGE_SIZE)
        machine.warm_buffer_tlb(b, buf_b)
        machine.clflush(b, buf_b.line_addr(40 + 7))
        machine.load(b, 0x400010, buf_b.line_addr(40))  # same IP, other space
        assert not machine.is_cached(b, buf_b.line_addr(40 + 7))

    def test_variant1_fails_end_to_end(self):
        machine = quiet_machine(73)
        harden_machine(machine)
        attack = Variant1CrossProcess(machine)
        results = [attack.run_round(i % 2) for i in range(8)]
        assert all(r.inferred_bit is None for r in results)

    @pytest.mark.parametrize("next_page", [True, False])
    def test_hardened_machine_keeps_the_next_page_switch(self, next_page):
        """A confident pattern carries onto the next page only when the
        machine's next-page prefetcher is on, tagged table or not."""
        params = replace(COFFEE_LAKE_I7_9700.quiet(), enable_next_page_prefetcher=next_page)
        stock = Machine(params, seed=74).ip_stride
        tagged = harden_machine(Machine(params, seed=74))
        stride = 7 * 64
        base = 0x80_0000 + PAGE_SIZE - 4 * stride

        def event(addr):
            return LoadEvent(0x400010, addr, addr, MemoryLevel.DRAM)

        for table in (stock, tagged):
            for i in range(4):
                table.observe(event(base + i * stride), lambda v: v)
        on_next_page = event(base + 4 * stride)
        expected = stock.observe_tlb_miss(on_next_page)
        assert bool(expected) == next_page
        assert [r.paddr for r in tagged.observe_tlb_miss(on_next_page)] == [
            r.paddr for r in expected
        ]

    def test_duck_type_surface(self):
        tagged = TaggedIPStridePrefetcher()
        assert tagged.entry_for_ip(0x1234) is None
        tagged.clear()
        assert tagged.occupancy == 0


class _ScanningTagged(TaggedIPStridePrefetcher):
    """Reference victim choice: the linear confidence-0 scan that the
    tagged table's set of confidence-0 slots replaced."""

    def _victim_slot(self):
        for slot, entry in enumerate(self._slots):
            if entry is not None and entry.confidence == 0:
                return slot
        return self._policy.victim()


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=60),  # 0 is a clear
            st.integers(min_value=0, max_value=1),  # ASID
            st.integers(min_value=0, max_value=17),  # IP
            st.integers(min_value=0, max_value=2),  # line step
        ),
        min_size=1,
        max_size=300,
    )
)
def test_property_tagged_victims_match_linear_scan(ops):
    """The tagged table picks the same victims as the linear scan, starting
    from a table full of fresh (confidence-0) entries."""
    tagged, reference = TaggedIPStridePrefetcher(), _ScanningTagged()
    last = {}

    def feed(asid, ip, addr):
        event = LoadEvent(ip, addr, addr, MemoryLevel.DRAM, asid)
        return tagged.observe(event, lambda _v: None), reference.observe(event, lambda _v: None)

    for ip in range(24):
        last[0, 100 + ip] = 0x40_0000 + ip * PAGE_SIZE
        feed(0, 100 + ip, last[0, 100 + ip])
    for op, asid, ip, step in ops:
        if op == 0:
            tagged.clear()
            reference.clear()
        else:
            addr = last.get((asid, ip), 0x80_0000 + (asid * 32 + ip) * PAGE_SIZE) + step * 64
            last[asid, ip] = addr
            mine, theirs = feed(asid, ip, addr)
            assert mine == theirs
        if tagged.occupancy == tagged.params.n_entries:
            assert tagged._victim_slot() == reference._victim_slot()
        assert tagged.evictions == reference.evictions
        assert tagged._slots == reference._slots


@pytest.mark.parametrize("seed", range(30))
def test_tagged_table_matches_stock_table_without_aliasing(seed):
    """With one ASID and IPs that differ in their low 8 bits, the (asid,
    IP) key and the stock table's low-bit index pick the same entries, so
    both tables must issue the same prefetches and hold the same state."""
    rng = make_rng(seed)
    ips = [0x40_0000 + (k << 8) + int(low)
           for k, low in enumerate(rng.choice(256, size=40, replace=False))]
    strides = [int(rng.choice([64, 448, -192, 3000])) for _ in ips]
    base = 0x100_0000
    last = {ip: base for ip in ips}
    stock, tagged = IPStridePrefetcher(IPStrideParams()), TaggedIPStridePrefetcher()
    stock_targets, tagged_targets = [], []
    for _ in range(600):
        k = int(rng.integers(0, len(ips)))
        ip = ips[k]
        # Mostly the IP's own stride (wrapping inside the 3 pages), so
        # entries reach the trigger threshold; sometimes a random jump.
        if rng.random() < 0.7:
            addr = base + (last[ip] - base + strides[k]) % (3 * PAGE_SIZE)
        else:
            addr = base + int(rng.integers(0, 3 * PAGE_SIZE))
        last[ip] = addr
        event = LoadEvent(ip, addr, addr, MemoryLevel.DRAM)
        if rng.random() < 0.1:
            stock_targets += stock.observe_tlb_miss(event)
            tagged_targets += tagged.observe_tlb_miss(event)
        else:
            stock_targets += stock.observe(event, lambda v: v)
            tagged_targets += tagged.observe(event, lambda v: v)
    assert [r.paddr for r in tagged_targets] == [r.paddr for r in stock_targets]
    for ip in ips:
        mine, theirs = tagged.entry_for(0, ip), stock.entry_for_ip(ip)
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert (mine.last_paddr, mine.stride, mine.confidence) == (
                theirs.last_paddr, theirs.stride, theirs.confidence
            )


class TestDisabledPrefetcher:
    def test_no_prefetches_at_all(self):
        machine = quiet_machine(74)
        disable_ip_stride_prefetcher(machine)
        ctx = machine.new_thread("owner")
        machine.context_switch(ctx)
        buf = machine.new_buffer(ctx.space, PAGE_SIZE)
        machine.warm_buffer_tlb(ctx, buf)
        for i in range(6):
            machine.load(ctx, 0x400010, buf.line_addr(i * 7))
        assert not machine.is_cached(ctx, buf.line_addr(6 * 7))

    def test_attack_fails(self):
        machine = quiet_machine(75)
        disable_ip_stride_prefetcher(machine)
        attack = Variant1CrossProcess(machine)
        assert attack.run_round(1).inferred_bit is None


class TestObliviousVictim:
    def test_leak_is_information_free(self):
        """Both entries are disturbed every round, whatever the secret."""
        machine = quiet_machine(76)
        space = machine.new_address_space("victim")
        vctx = machine.new_thread("victim", space)
        actx = machine.new_thread("attacker")
        machine.context_switch(actx)
        data = machine.new_buffer(space, PAGE_SIZE)
        victim = ObliviousBranchVictim(machine, vctx, data)
        gadget = TrainingGadget(machine, actx, victim.if_ip, victim.else_ip)

        observations = []
        for bit in (0, 1, 0, 1):
            machine.context_switch(actx)
            gadget.train()
            machine.context_switch(vctx)
            victim.run(bit, 20)
            machine.context_switch(actx)
            observations.append(gadget.confidences())
        # Identical observation regardless of the secret: both clobbered.
        assert len(set(observations)) == 1
        assert observations[0] == (1, 1)

    def test_leaky_victim_differs_per_secret_for_contrast(self):
        machine = quiet_machine(77)
        space = machine.new_address_space("victim")
        vctx = machine.new_thread("victim", space)
        actx = machine.new_thread("attacker")
        machine.context_switch(actx)
        data = machine.new_buffer(space, PAGE_SIZE)
        victim = BranchLoadVictim(machine, vctx, data)
        gadget = TrainingGadget(machine, actx, victim.if_ip, victim.else_ip)

        observations = []
        for bit in (0, 1):
            machine.context_switch(actx)
            gadget.train()
            machine.context_switch(vctx)
            victim.run(bit, 20)
            machine.context_switch(actx)
            observations.append(gadget.confidences())
        assert observations[0] != observations[1]

    def test_oblivious_costs_more_cycles(self):
        machine = quiet_machine(78)
        ctx = machine.new_thread("victim")
        machine.context_switch(ctx)
        data = machine.new_buffer(ctx.space, PAGE_SIZE)
        leaky = BranchLoadVictim(machine, ctx, data)
        before = machine.cycles
        leaky.run(1, 10)
        leaky_cost = machine.cycles - before

        machine2 = quiet_machine(78)
        ctx2 = machine2.new_thread("victim")
        machine2.context_switch(ctx2)
        data2 = machine2.new_buffer(ctx2.space, PAGE_SIZE)
        oblivious = ObliviousBranchVictim(machine2, ctx2, data2)
        before = machine2.cycles
        oblivious.run(1, 10)
        oblivious_cost = machine2.cycles - before
        assert oblivious_cost > leaky_cost


class TestDetector:
    def _run_attack_round(self, machine, attack, detector):
        attack.run_round(1)
        detector.poll()

    def test_realistic_sampling_cannot_separate_attack_from_benign(self):
        """§8.1: at a realistic PMU sampling period, the attack's 3-load
        training is indistinguishable from background kernel churn — no
        threshold separates the two allocation-rate distributions."""

        def allocation_rate(run_workload) -> float:
            machine = Machine(COFFEE_LAKE_I7_9700, seed=79)
            workload = run_workload(machine)
            for _ in range(3):
                workload()  # reach steady state
            detector = PerformanceCounterDetector(machine, sampling_period_cycles=300_000)
            start = machine.cycles
            for _ in range(20):
                workload()
                detector.poll()
            report = detector.finish()
            total = sum(delta for _cycles, delta in report.samples)
            return total / (machine.cycles - start) * 300_000  # allocs per sample

        def attack_workload(machine):
            attack = Variant1CrossProcess(machine)
            return lambda: attack.run_round(1)

        def benign_workload(machine):
            """Two processes ping-ponging over a shared page (an IPC app)."""
            a = machine.new_thread("a")
            b = machine.new_thread("b")
            machine.context_switch(a)
            shared = machine.new_buffer(a.space, PAGE_SIZE)
            view = machine.share_buffer(shared, b.space)

            def round_trip():
                machine.context_switch(a)
                machine.warm_buffer_tlb(a, shared)
                for i in range(64):
                    machine.load(a, 0x500000, shared.line_addr(i))
                machine.context_switch(b)
                machine.warm_buffer_tlb(b, view)
                for i in range(64):
                    machine.load(b, 0x510000, view.line_addr(i))

            return round_trip

        attack_rate = allocation_rate(attack_workload)
        benign_rate = allocation_rate(benign_workload)
        # Less than 2x apart: any threshold either misses the attack or
        # false-positives on the benign IPC workload.
        assert attack_rate < 2 * benign_rate

    def test_unrealistically_fast_sampler_would_catch_ip_search(self):
        """Churn-heavy phases (the Variant-2 IP search re-allocating 24
        entries per attempt) are visible — if you could sample that fast."""
        import numpy as np

        machine = Machine(COFFEE_LAKE_I7_9700, seed=80)
        from repro.core.variant2 import Variant2UserKernel

        rng = make_rng(80)
        attack = Variant2UserKernel(machine, secret_source=lambda: int(rng.integers(0, 2)))
        detector = PerformanceCounterDetector(
            machine, sampling_period_cycles=3_000, threshold_allocations_per_sample=20
        )
        attack.searcher._test_group(list(range(24)), demand_line=20)
        detector.poll()
        report = detector.finish()
        assert report.fired

    def test_period_validation(self):
        machine = quiet_machine(81)
        with pytest.raises(ValueError):
            PerformanceCounterDetector(machine, sampling_period_cycles=0)
