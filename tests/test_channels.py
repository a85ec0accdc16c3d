"""Tests for the secret-extraction channels."""

import dataclasses

import pytest

from repro.channels.eviction_sets import EvictionSet, EvictionSetBuilder
from repro.channels.flush_flush import FLUSH_THRESHOLD, FlushFlush
from repro.channels.flush_reload import FlushReload
from repro.channels.prime_probe import PrimeProbe
from repro.channels.psc import PrefetcherStatusCheck
from repro.channels.thresholds import classify_hit
from repro.cpu.machine import Machine
from repro.mmu.address_space import AddressSpace
from repro.params import (
    CACHE_LINE_SIZE,
    COFFEE_LAKE_I7_9700,
    HASWELL_I7_4770,
    LINES_PER_PAGE,
    PAGE_SIZE,
)


@pytest.fixture
def setup(quiet_machine):
    ctx = quiet_machine.new_thread("attacker")
    quiet_machine.context_switch(ctx)
    shared = quiet_machine.new_buffer(ctx.space, PAGE_SIZE, name="shared")
    quiet_machine.warm_buffer_tlb(ctx, shared)
    return quiet_machine, ctx, shared


class TestClassifyHit:
    def test_threshold(self):
        assert classify_hit(50, 120)
        assert not classify_hit(120, 120)
        assert not classify_hit(250, 120)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify_hit(0, 120)


class TestFlushReload:
    def test_untouched_lines_miss(self, setup):
        machine, ctx, shared = setup
        fr = FlushReload(machine, ctx, shared, reload_ip=0x700000)
        fr.flush()
        assert fr.hit_lines() == []

    def test_touched_line_hits(self, setup):
        machine, ctx, shared = setup
        fr = FlushReload(machine, ctx, shared, reload_ip=0x700000)
        fr.flush()
        machine.load(ctx, 0x400044, shared.line_addr(17))
        hits = set(fr.hit_lines())
        assert 17 in hits
        # Only the demand line and (possibly) its adjacent-prefetch buddy.
        assert hits <= {16, 17}

    def test_reload_is_destructive_but_repeatable(self, setup):
        machine, ctx, shared = setup
        fr = FlushReload(machine, ctx, shared, reload_ip=0x700000)
        fr.flush()
        machine.load(ctx, 0x400044, shared.line_addr(9))
        fr.reload()
        # Second reload without flush: everything now hits.
        assert len(fr.hit_lines()) == shared.n_lines

    def test_page_scoped_flush_and_reload(self, quiet_machine):
        ctx = quiet_machine.new_thread("attacker")
        quiet_machine.context_switch(ctx)
        shared = quiet_machine.new_buffer(ctx.space, 2 * PAGE_SIZE)
        quiet_machine.warm_buffer_tlb(ctx, shared)
        fr = FlushReload(quiet_machine, ctx, shared, reload_ip=0x700000)
        fr.flush(page=1)
        quiet_machine.load(ctx, 0x400044, shared.page_line_addr(1, 5))
        hits = fr.hit_lines(page=1)
        assert 64 + 5 in hits

    def test_reload_ip_must_not_alias_monitored_entries(self, setup):
        machine, ctx, shared = setup
        with pytest.raises(ValueError):
            FlushReload(machine, ctx, shared, reload_ip=0x7000AB, avoid_ip_indexes={0xAB})

    def test_reload_does_not_disturb_prefetcher(self, setup):
        machine, ctx, shared = setup
        fr = FlushReload(machine, ctx, shared, reload_ip=0x700000)
        train = machine.new_buffer(ctx.space, PAGE_SIZE)
        machine.warm_buffer_tlb(ctx, train)
        for i in range(4):
            machine.load(ctx, 0x400020, train.line_addr(i * 7))
        entry_before = machine.ip_stride.entry_for_ip(0x400020)
        state = (entry_before.stride, entry_before.confidence, entry_before.last_paddr)
        fr.reload()
        entry_after = machine.ip_stride.entry_for_ip(0x400020)
        assert (entry_after.stride, entry_after.confidence, entry_after.last_paddr) == state


class TestEvictionSets:
    def test_build_minimal_set(self, setup):
        machine, ctx, shared = setup
        builder = EvictionSetBuilder(machine, ctx)
        es = builder.build_for_address(ctx, shared.line_addr(0))
        assert len(es) == machine.params.llc.ways
        target = machine.hierarchy.llc_set_index(ctx.space.translate(shared.line_addr(0)))
        for vaddr in es.addresses:
            assert machine.hierarchy.llc_set_index(ctx.space.translate(vaddr)) == target

    def test_minimal_set_evicts_target(self, setup):
        machine, ctx, shared = setup
        builder = EvictionSetBuilder(machine, ctx)
        target = shared.line_addr(0)
        es = builder.build_for_address(ctx, target)
        machine.load(ctx, 0x700000, target)
        for vaddr in es.addresses:
            machine.warm_tlb(ctx, vaddr)
            machine.load(ctx, 0x700008, vaddr, fenced=True)
        assert not machine.is_cached(ctx, target)

    def test_pool_too_small_raises(self, setup):
        machine, ctx, shared = setup
        builder = EvictionSetBuilder(machine, ctx, pool_pages=64)
        with pytest.raises(RuntimeError) as reference:
            _reference_build(builder, ctx, shared.line_addr(0))
        with pytest.raises(RuntimeError, match=r"^pool of 64 pages yielded only \d+ of 12 "):
            builder.build_for_address(ctx, shared.line_addr(0))
        with pytest.raises(RuntimeError) as page:
            builder.build_for_page(ctx, shared.base)
        assert str(page.value) == str(reference.value)

    @pytest.mark.parametrize("params", [HASWELL_I7_4770, COFFEE_LAKE_I7_9700], ids=lambda p: p.name)
    @pytest.mark.parametrize("seed", [0, 7, 171])
    def test_page_scan_matches_reference(self, params, seed, monkeypatch):
        """``build_for_page`` returns the sets of the line-indexed scan it
        replaced (``_reference_build_for_page``).  Counting the builder's
        index, it walks each pool page once plus each victim line once,
        where the reference scans the pool for every line."""
        walks = _count_walks(monkeypatch)
        results = []
        for build in (_reference_build_for_page, EvictionSetBuilder.build_for_page):
            machine, ctx, victim = _victim_machine(params, seed)
            walks[0] = 0
            builder = EvictionSetBuilder(machine, ctx)
            index_walks = walks[0]
            sets = build(builder, ctx, victim.base)
            results.append((
                [(es.slice_id, es.set_index, es.addresses) for es in sets],
                index_walks,
                walks[0] - index_walks,
            ))
        (reference_sets, _, reference_walks), (sets, index_walks, page_walks) = results
        assert sets == reference_sets
        assert index_walks + page_walks < reference_walks
        assert index_walks + page_walks <= builder.pool.n_pages + LINES_PER_PAGE

    @pytest.mark.parametrize("params", [HASWELL_I7_4770, COFFEE_LAKE_I7_9700], ids=lambda p: p.name)
    def test_extra_ways_match_reference(self, params):
        machine, ctx, victim = _victim_machine(params, seed=7)
        builder = EvictionSetBuilder(machine, ctx)
        for line in (0, 17, 63):
            vaddr = victim.line_addr(line)
            es = builder.build_for_address(ctx, vaddr, extra_ways=3)
            assert len(es) == machine.params.llc.ways + 3
            assert es == _reference_build(builder, ctx, vaddr, extra_ways=3)

    def test_llc_sets_not_a_multiple_of_64_rejected(self):
        params = dataclasses.replace(
            COFFEE_LAKE_I7_9700, llc=dataclasses.replace(COFFEE_LAKE_I7_9700.llc, sets=32)
        )
        machine = Machine(params.quiet(), seed=0)
        ctx = machine.new_thread("attacker")
        with pytest.raises(ValueError, match="multiple of 64, got 32"):
            EvictionSetBuilder(machine, ctx)


def _count_walks(monkeypatch) -> list[int]:
    """Count ``AddressSpace.translate`` calls (page walks) into a one-item list."""
    walks = [0]
    translate = AddressSpace.translate

    def counting_translate(space, vaddr):
        walks[0] += 1
        return translate(space, vaddr)

    monkeypatch.setattr(AddressSpace, "translate", counting_translate)
    return walks


def _victim_machine(params, seed):
    machine = Machine(params.quiet(), seed=seed)
    ctx = machine.new_thread("attacker")
    victim = machine.new_buffer(ctx.space, PAGE_SIZE, name="victim")
    return machine, ctx, victim


def _reference_build_for_page(builder, ctx, page_base_vaddr):
    return [
        _reference_build(builder, ctx, page_base_vaddr + line * CACHE_LINE_SIZE)
        for line in range(LINES_PER_PAGE)
    ]


def _reference_build(builder, ctx, vaddr, extra_ways=0):
    """The pool scan as first written: one ``page_line_addr`` per pool page,
    one walk per scanned page and one per candidate line."""
    machine, pool, space = builder.machine, builder.pool, builder.ctx.space
    needed = machine.params.llc.ways + extra_ways
    slice_id, set_index = machine.hierarchy.llc_set_index(ctx.space.translate(vaddr))
    es = EvictionSet(slice_id=slice_id, set_index=set_index)
    for page in range(pool.n_pages):
        page_vaddr = pool.page_line_addr(page, 0)
        frame = space.translate(page_vaddr) // PAGE_SIZE
        line_in_page = (set_index - frame * LINES_PER_PAGE) % machine.params.llc.sets
        if line_in_page >= LINES_PER_PAGE:
            continue
        candidate = page_vaddr + line_in_page * CACHE_LINE_SIZE
        if machine.hierarchy.slice_hash.slice_of(space.translate(candidate)) == slice_id:
            es.addresses.append(candidate)
            if len(es) == needed:
                return es
    raise RuntimeError(
        f"pool of {pool.n_pages} pages yielded only {len(es)} of {needed} lines "
        f"for slice {slice_id} set {set_index}; increase pool_pages"
    )


class TestPrimeProbe:
    def test_probe_requires_prime(self, setup):
        machine, ctx, shared = setup
        builder = EvictionSetBuilder(machine, ctx)
        pp = PrimeProbe(machine, ctx, [builder.build_for_address(ctx, shared.base)], 0x700000)
        with pytest.raises(RuntimeError):
            pp.probe()

    def test_idle_set_low_delta(self, setup):
        machine, ctx, shared = setup
        builder = EvictionSetBuilder(machine, ctx)
        es = builder.build_for_address(ctx, shared.base)
        for vaddr in es.addresses:
            machine.warm_tlb(ctx, vaddr)
        pp = PrimeProbe(machine, ctx, [es], 0x700000)
        pp.prime()
        samples = pp.probe()
        assert abs(samples[0].delta) < 100

    def test_victim_access_visible(self, setup):
        machine, ctx, shared = setup
        builder = EvictionSetBuilder(machine, ctx)
        es = builder.build_for_address(ctx, shared.base)
        for vaddr in es.addresses:
            machine.warm_tlb(ctx, vaddr)
        pp = PrimeProbe(machine, ctx, [es], 0x700000)
        pp.prime()
        machine.load(ctx, 0x400077, shared.base)  # the "victim"
        samples = pp.probe()
        assert samples[0].delta > 500

    def test_empty_sets_rejected(self, setup):
        machine, ctx, _shared = setup
        with pytest.raises(ValueError):
            PrimeProbe(machine, ctx, [], 0x700000)


class TestFlushFlush:
    def test_cached_line_flushes_slower(self, setup):
        machine, ctx, shared = setup
        ff = FlushFlush(machine, ctx, shared)
        machine.load(ctx, 0x400044, shared.line_addr(4))
        cached_sample = ff.flush_timed(4)
        uncached_sample = ff.flush_timed(4)  # now flushed out
        assert cached_sample.latency > uncached_sample.latency
        assert cached_sample.was_cached
        assert not uncached_sample.was_cached

    def test_threshold_separates(self):
        from repro.channels.flush_flush import FLUSH_HIT_CYCLES, FLUSH_MISS_CYCLES

        assert FLUSH_MISS_CYCLES < FLUSH_THRESHOLD < FLUSH_HIT_CYCLES


class TestPSC:
    def _make(self, machine, ctx, stride=7):
        buffer = machine.new_buffer(ctx.space, 8 * PAGE_SIZE, name="psc")
        train_ip = 0x680044
        return PrefetcherStatusCheck(machine, ctx, train_ip, buffer, stride)

    def test_undisturbed_checks_all_hit(self, setup):
        machine, ctx, _ = setup
        psc = self._make(machine, ctx)
        psc.train()
        for _ in range(20):
            assert psc.check().prefetcher_triggered

    def test_victim_execution_detected(self, setup):
        machine, ctx, _ = setup
        psc = self._make(machine, ctx)
        psc.train()
        assert psc.check().prefetcher_triggered
        # Victim load at an aliasing IP from an unrelated address.
        victim_buf = machine.new_buffer(ctx.space, PAGE_SIZE)
        machine.warm_tlb(ctx, victim_buf.base)
        machine.load(ctx, 0x990044, victim_buf.base)
        observation = psc.check()
        assert observation.victim_executed

    def test_two_misses_then_recovery(self, setup):
        """§7.4 / Figure 15: one more retraining step is needed."""
        machine, ctx, _ = setup
        psc = self._make(machine, ctx)
        psc.train()
        victim_buf = machine.new_buffer(ctx.space, PAGE_SIZE)
        machine.warm_tlb(ctx, victim_buf.base)
        machine.load(ctx, 0x990044, victim_buf.base)
        results = [psc.check().prefetcher_triggered for _ in range(4)]
        assert results == [False, False, True, True]

    def test_progression_survives_page_crossings(self, setup):
        machine, ctx, _ = setup
        psc = self._make(machine, ctx, stride=11)
        psc.train()
        # Enough checks to cross several pages and wrap the buffer.
        assert all(psc.check().prefetcher_triggered for _ in range(64))

    def test_probe_ip_must_not_alias(self, setup):
        machine, ctx, _ = setup
        buffer = machine.new_buffer(ctx.space, PAGE_SIZE)
        with pytest.raises(ValueError):
            PrefetcherStatusCheck(machine, ctx, 0x680044, buffer, 7, probe_ip=0x790044)

    def test_invalid_stride_rejected(self, setup):
        machine, ctx, _ = setup
        buffer = machine.new_buffer(ctx.space, PAGE_SIZE)
        with pytest.raises(ValueError):
            PrefetcherStatusCheck(machine, ctx, 0x680044, buffer, 0)

    def test_train_needs_three_iterations(self, setup):
        machine, ctx, _ = setup
        psc = self._make(machine, ctx)
        with pytest.raises(ValueError):
            psc.train(iterations=2)

    def test_large_stride_rejected(self, setup):
        """A stride that cannot fit a retrain + check in one page would
        run the progression off the buffer; the constructor refuses."""
        machine, ctx, _ = setup
        buffer = machine.new_buffer(ctx.space, PAGE_SIZE)
        with pytest.raises(ValueError):
            PrefetcherStatusCheck(machine, ctx, 0x680044, buffer, 31)

    def test_max_safe_stride_works(self, setup):
        machine, ctx, _ = setup
        buffer = machine.new_buffer(ctx.space, 4 * PAGE_SIZE)
        psc = PrefetcherStatusCheck(machine, ctx, 0x680044, buffer, 15)
        psc.train()
        assert all(psc.check().prefetcher_triggered for _ in range(16))
