"""Tests for the Machine: load path, TLB integration, switches, mitigation."""

import gc
import weakref

import numpy as np
import pytest

from repro.attacks import attack_names, run_trials
from repro.cpu.machine import SWITCH_NOISE_PAGES, Machine
from repro.defenses.tagged_prefetcher import harden_machine
from repro.memsys.hierarchy import MemoryLevel
from repro.mmu.address_space import AddressSpace
from repro.params import COFFEE_LAKE_I7_9700, LINES_PER_PAGE, PAGE_SIZE
from repro.utils.rng import derive_rng, make_rng


class TestLoadPath:
    def test_cold_load_pays_dram_and_walk(self, quiet_machine, user_context):
        m, ctx = quiet_machine, user_context
        buf = m.new_buffer(ctx.space, PAGE_SIZE)
        latency = m.load(ctx, 0x400000, buf.base)
        assert latency == m.params.dram_latency + m.params.page_walk_latency

    def test_warm_load_hits_l1(self, quiet_machine, user_context):
        m, ctx = quiet_machine, user_context
        buf = m.new_buffer(ctx.space, PAGE_SIZE)
        m.load(ctx, 0x400000, buf.base)
        assert m.load(ctx, 0x400000, buf.base) == m.params.l1d.latency

    def test_tlb_miss_skips_prefetcher(self, quiet_machine, user_context):
        m, ctx = quiet_machine, user_context
        buf = m.new_buffer(ctx.space, 2 * PAGE_SIZE)
        m.load(ctx, 0x400000, buf.base)  # TLB miss: invisible
        assert m.ip_stride.entry_for_ip(0x400000) is None
        m.load(ctx, 0x400000, buf.base + 64)  # TLB hit: visible
        assert m.ip_stride.entry_for_ip(0x400000) is not None

    def test_training_and_trigger_through_machine(self, quiet_machine, user_context):
        m, ctx = quiet_machine, user_context
        buf = m.new_buffer(ctx.space, PAGE_SIZE)
        m.warm_buffer_tlb(ctx, buf)
        for i in range(4):
            m.load(ctx, 0x400010, buf.line_addr(i * 7))
        target = buf.line_addr(4 * 7 + 7)
        # Entry confident: next access prefetches current + stride.
        m.load(ctx, 0x400010, buf.line_addr(4 * 7))
        assert m.cached_level(ctx, target) is MemoryLevel.L2

    def test_fenced_load_invisible_to_prefetchers(self, quiet_machine, user_context):
        m, ctx = quiet_machine, user_context
        buf = m.new_buffer(ctx.space, PAGE_SIZE)
        m.warm_buffer_tlb(ctx, buf)
        for i in range(6):
            m.load(ctx, 0x400010, buf.line_addr(i), fenced=True)
        assert m.ip_stride.entry_for_ip(0x400010) is None
        # Sequential fenced loads must not wake the DCU/streamer either.
        assert m.hierarchy.prefetch_fills == 0

    def test_cycles_accumulate(self, quiet_machine, user_context):
        m, ctx = quiet_machine, user_context
        buf = m.new_buffer(ctx.space, PAGE_SIZE)
        before = m.cycles
        m.load(ctx, 0x400000, buf.base)
        assert m.cycles > before
        m.advance(100)
        assert ctx.cpu_cycles > 0

    def test_advance_rejects_negative(self, quiet_machine):
        with pytest.raises(ValueError):
            quiet_machine.advance(-1)


class TestClflush:
    def test_clflush_evicts(self, quiet_machine, user_context):
        m, ctx = quiet_machine, user_context
        buf = m.new_buffer(ctx.space, PAGE_SIZE)
        m.load(ctx, 0x400000, buf.base)
        m.clflush(ctx, buf.base)
        assert not m.is_cached(ctx, buf.base)

    def test_flush_buffer(self, quiet_machine, user_context):
        m, ctx = quiet_machine, user_context
        buf = m.new_buffer(ctx.space, PAGE_SIZE)
        for line in range(8):
            m.load(ctx, 0x400000 + line, buf.line_addr(line))
        m.flush_buffer(ctx, buf)
        assert all(not m.is_cached(ctx, addr) for addr in buf.lines())


class TestContextSwitching:
    def test_cross_space_switch_flushes_tlb(self, quiet_machine):
        m = quiet_machine
        a = m.new_thread("a")
        b = m.new_thread("b")
        m.context_switch(a)
        buf = m.new_buffer(a.space, PAGE_SIZE)
        m.warm_tlb(a, buf.base)
        m.context_switch(b)
        assert not m.tlb.is_resident(a.space, buf.base)

    def test_same_space_switch_keeps_tlb(self, quiet_machine):
        m = quiet_machine
        a = m.new_thread("a")
        b = m.new_thread("b", space=a.space)
        m.context_switch(a)
        buf = m.new_buffer(a.space, PAGE_SIZE)
        m.warm_tlb(a, buf.base)
        m.context_switch(b)
        assert m.tlb.is_resident(a.space, buf.base)

    def test_switch_to_self_is_noop(self, quiet_machine):
        m = quiet_machine
        a = m.new_thread("a")
        m.context_switch(a)
        switches = m.context_switches
        m.context_switch(a)
        assert m.context_switches == switches

    def test_prefetcher_survives_switch(self, quiet_machine):
        """Observation 1/2 of the paper: entries persist across switches."""
        m = quiet_machine
        a = m.new_thread("a")
        b = m.new_thread("b")
        m.context_switch(a)
        buf = m.new_buffer(a.space, PAGE_SIZE)
        m.warm_buffer_tlb(a, buf)
        for i in range(4):
            m.load(a, 0x400020, buf.line_addr(i * 7))
        m.context_switch(b)
        entry = m.ip_stride.entry_for_ip(0x400020)
        assert entry is not None
        assert entry.confidence == 3

    def test_kernel_pages_survive_cross_space_switch(self, quiet_machine):
        m = quiet_machine
        a = m.new_thread("a")
        b = m.new_thread("b")
        kctx = m.kernel_context()
        m.context_switch(a)
        kbuf = m.new_buffer(m.kernel_space, PAGE_SIZE, locked=True)
        m.warm_tlb(kctx, kbuf.base)
        m.context_switch(b)
        assert m.tlb.is_resident(m.kernel_space, kbuf.base)


class TestMitigation:
    def test_flush_on_switch_clears_prefetcher(self, quiet_machine):
        m = quiet_machine
        m.flush_prefetcher_on_switch = True
        a = m.new_thread("a")
        b = m.new_thread("b")
        m.context_switch(a)
        buf = m.new_buffer(a.space, PAGE_SIZE)
        m.warm_buffer_tlb(a, buf)
        for i in range(4):
            m.load(a, 0x400020, buf.line_addr(i * 7))
        m.context_switch(b)
        assert m.ip_stride.occupancy == 0

    def test_clear_instruction_costs_cycles(self, quiet_machine):
        m = quiet_machine
        before = m.cycles
        m.run_prefetcher_clear()
        assert m.cycles - before == m.params.prefetcher.n_entries


class TestPrefetcherSwap:
    """A table swapped into ``machine.ip_stride`` reaches every path that
    reads it: the load path, the switch and timer noise, and the clear."""

    def test_switch_and_tick_noise_feed_the_swapped_table(self):
        m = Machine(COFFEE_LAKE_I7_9700, seed=5)
        original = m.ip_stride
        tagged = harden_machine(m)
        kernel_asid = m.kernel_space.asid

        m.advance(m.timer_period_cycles)
        m.maybe_tick()
        assert m.timer_interrupts == 1
        assert [e.asid for e in tagged._slots if e is not None] == [kernel_asid]

        a, b = m.new_thread("a"), m.new_thread("b")
        m.context_switch(a)
        after_tick = tagged.occupancy
        m.context_switch(b)  # cross-space: the variable-IP mm-switch path
        assert tagged.occupancy > after_tick
        assert {e.asid for e in tagged._slots if e is not None} == {kernel_asid}
        assert original.occupancy == 0

    def test_flush_on_switch_clears_the_swapped_table(self, quiet_machine):
        m = quiet_machine
        a = m.new_thread("a")
        buf = m.new_buffer(a.space, PAGE_SIZE)
        m.warm_buffer_tlb(a, buf)
        original = m.ip_stride
        m.load(a, 0x400020, buf.line_addr(0))
        tagged = harden_machine(m)
        m.load(a, 0x400020, buf.line_addr(1))
        assert (original.occupancy, tagged.occupancy) == (1, 1)
        m.flush_prefetcher_on_switch = True
        m.context_switch(a)
        assert (original.occupancy, tagged.occupancy) == (1, 0)


class TestNoiseInjection:
    def test_noisy_switch_pollutes_prefetcher(self):
        m = Machine(COFFEE_LAKE_I7_9700, seed=5)
        a = m.new_thread("a")
        b = m.new_thread("b")
        m.context_switch(a)
        before = m.ip_stride.allocations
        m.context_switch(b)
        assert m.ip_stride.allocations > before

    def test_switch_and_tick_noise_make_no_page_walk(self, monkeypatch):
        """The noise paths translate through the switch-noise frame table:
        no ``AddressSpace.translate`` call, and every noise load's paddr is
        the page table's translation of its vaddr."""
        m = Machine(COFFEE_LAKE_I7_9700, seed=5)
        a, b = m.new_thread("a"), m.new_thread("b")
        events = []
        observe = m.ip_stride.observe

        def recording_observe(event, translate):
            events.append(event)
            return observe(event, translate)

        monkeypatch.setattr(m.ip_stride, "observe", recording_observe)
        walks = [0]
        translate = AddressSpace.translate

        def counting_translate(space, vaddr):
            walks[0] += 1
            return translate(space, vaddr)

        monkeypatch.setattr(AddressSpace, "translate", counting_translate)
        accesses = m.hierarchy.demand_accesses
        for ctx in (a, b, a):
            m.context_switch(ctx)
        m.advance(2 * m.timer_period_cycles)
        m.maybe_tick()
        assert m.timer_interrupts == 1
        assert m.hierarchy.demand_accesses > accesses
        assert walks[0] == 0
        assert events and all(event.asid == m.kernel_space.asid for event in events)
        for event in events:
            assert translate(m.kernel_space, event.vaddr) == event.paddr

    def test_timer_interrupts_fire_on_long_runs(self):
        m = Machine(COFFEE_LAKE_I7_9700, seed=5)
        ctx = m.new_thread("a")
        m.context_switch(ctx)
        buf = m.new_buffer(ctx.space, PAGE_SIZE)
        m.warm_buffer_tlb(ctx, buf)
        for i in range(3000):
            m.load(ctx, 0x500000, buf.line_addr(i % 64), fenced=True)
            m.clflush(ctx, buf.line_addr(i % 64))
        assert m.timer_interrupts > 0

    def test_quiet_machine_takes_no_timer_interrupts(self, quiet_machine, user_context):
        m, ctx = quiet_machine, user_context
        buf = m.new_buffer(ctx.space, PAGE_SIZE)
        m.warm_buffer_tlb(ctx, buf)
        for i in range(3000):
            m.load(ctx, 0x500000, buf.line_addr(i % 64), fenced=True)
        assert m.timer_interrupts == 0

    def test_seconds_conversion(self, quiet_machine):
        quiet_machine.advance(int(quiet_machine.params.frequency_hz))
        assert quiet_machine.seconds() == pytest.approx(1.0)

    def test_determinism_per_seed(self):
        latencies = []
        for _ in range(2):
            m = Machine(COFFEE_LAKE_I7_9700, seed=77)
            ctx = m.new_thread("a")
            m.context_switch(ctx)
            buf = m.new_buffer(ctx.space, PAGE_SIZE)
            m.warm_buffer_tlb(ctx, buf)
            latencies.append([m.load(ctx, 0x1234, buf.line_addr(i)) for i in range(32)])
        assert latencies[0] == latencies[1]


class TestBatchedNoiseDraws:
    """The OS noise paths draw ``k`` values with one ``integers(size=k)`` call.

    That is only equivalent to the ``k`` scalar draws it replaced while
    NumPy's bounded ``int64`` draws stay unbuffered; this pins it directly.
    """

    @pytest.mark.parametrize("bound", [SWITCH_NOISE_PAGES * LINES_PER_PAGE, 1 << 30])
    @pytest.mark.parametrize("k", [1, 2, 7, 8, 13, 96])
    def test_batch_equals_scalar_draws(self, bound, k):
        for seed in range(20):
            batched = derive_rng(make_rng(seed), "os")
            scalar = derive_rng(make_rng(seed), "os")
            drawn = batched.integers(0, bound, size=k).tolist()
            expected = [int(scalar.integers(0, bound)) for _ in range(k)]
            message = (
                f"numpy {np.__version__}: integers(0, {bound}, size={k}) no longer "
                f"matches {k} scalar draws (seed {seed}); the batched OS-noise draws "
                f"in repro.cpu.machine would change every golden trace"
            )
            assert drawn == expected, message
            assert int(batched.integers(0, bound)) == int(scalar.integers(0, bound)), message


class TestLifetime:
    @pytest.mark.parametrize("name", attack_names())
    def test_dropped_machine_is_freed_by_reference_counting(self, name):
        # ~17k cache sets and the page tables per machine: a reference cycle
        # anywhere would keep them alive until a gen-2 collection, so with
        # the cyclic collector off they must die as soon as the run returns.
        refs = []

        def remember(machine):
            refs.extend((weakref.ref(machine.hierarchy), weakref.ref(machine.kernel_space)))

        enabled = gc.isenabled()
        gc.disable()
        try:
            run_trials(name, seed=7, rounds=1, trace=False, sanitize=False, configure=remember)
            assert len(refs) == 2
            assert [ref() for ref in refs] == [None, None], f"{name}: the machine outlived its run"
        finally:
            if enabled:
                gc.enable()

    def test_dropped_sanitized_machine_is_freed_by_reference_counting(self):
        # The sanitizer reads the machine's clock and tracer, and the machine
        # holds the sanitizer: only a weak back-reference keeps that from
        # being a cycle.
        enabled = gc.isenabled()
        gc.disable()
        try:
            machine = Machine(COFFEE_LAKE_I7_9700, seed=7, sanitize=True)
            victim, spy = machine.new_thread("victim"), machine.new_thread("spy")
            buf = machine.new_buffer(victim.space, 4 * PAGE_SIZE)
            machine.warm_buffer_tlb(victim, buf)
            machine.context_switch(victim)
            for line in range(LINES_PER_PAGE):
                machine.load(victim, 0x40_1000, buf.page_line_addr(0, line))
            machine.context_switch(spy)
            machine.sanitizer.check_all()
            refs = [
                weakref.ref(obj) for obj in (machine, machine.sanitizer, machine.hierarchy)
            ]
            del machine, victim, spy, buf
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()
