"""One ``Machine.load`` calls each layer the benchmark counts a fixed number of times.

``perfbench/reference.json`` pins the benchmark's layer call counts
(``mmu.translate``, ``memsys.access``, ``cpu.timing``, ``prefetch.observe``
and the rest).  These tests pin the per-load shape behind those counts, so
a change that would move a pin fails the test suite before it reaches
``make perfbench-check``.
"""

from collections import Counter

import pytest

from repro.cpu.machine import Machine
from repro.cpu.timing import TimingModel
from repro.memsys.hierarchy import CacheHierarchy
from repro.mmu.tlb import TLB
from repro.params import COFFEE_LAKE_I7_9700, PAGE_SIZE

IP = 0x40_1000


def _count_calls(monkeypatch, machine: Machine) -> Counter:
    """Wrap every layer entry point a load can reach with a call counter."""
    calls: Counter = Counter()

    def wrap(owner: type, attr: str, label: str) -> None:
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    wrap(Machine, "maybe_tick", "maybe_tick")
    wrap(TLB, "translate", "translate")
    wrap(CacheHierarchy, "access", "access")
    wrap(TimingModel, "measured", "measured")
    ip_stride = type(machine.ip_stride)
    wrap(ip_stride, "observe", "observe:ip-stride")
    wrap(ip_stride, "observe_tlb_miss", "observe_tlb_miss:ip-stride")
    for prefetcher in machine.noise_prefetchers:
        wrap(type(prefetcher), "observe", f"observe:{prefetcher.name}")
    return calls


def _machine_and_line(params=COFFEE_LAKE_I7_9700, warm: bool = True):
    machine = Machine(params, seed=3)
    ctx = machine.new_thread("victim")
    buf = machine.new_buffer(ctx.space, 4 * PAGE_SIZE)
    if warm:
        machine.warm_buffer_tlb(ctx, buf)
    return machine, ctx, buf.page_line_addr(1, 3)


@pytest.mark.parametrize(
    "warm,fenced",
    [(True, False), (True, True), (False, False), (False, True)],
    ids=["tlb-hit", "tlb-hit-fenced", "tlb-miss", "tlb-miss-fenced"],
)
def test_one_load_calls_each_layer_once(monkeypatch, warm, fenced):
    machine, ctx, vaddr = _machine_and_line(warm=warm)
    assert machine.noise_prefetchers  # the default machine runs all three
    calls = _count_calls(monkeypatch, machine)
    machine.load(ctx, IP, vaddr, fenced=fenced)
    expected = Counter(translate=1, access=1, measured=1)
    if not fenced:
        if warm:
            # A TLB-resident load feeds every prefetcher once (§4.3).
            expected["observe:ip-stride"] = 1
            for prefetcher in machine.noise_prefetchers:
                expected[f"observe:{prefetcher.name}"] = 1
        else:
            # A TLB-missing load only offers the next-page carry-over.
            expected["observe_tlb_miss:ip-stride"] = 1
    # The timer tick is far from due on a fresh machine: not even entered.
    assert calls == expected


def test_tick_entered_only_when_due_or_quiet(monkeypatch):
    machine, ctx, vaddr = _machine_and_line()
    calls = _count_calls(monkeypatch, machine)
    machine.load(ctx, IP, vaddr)
    assert calls["maybe_tick"] == 0
    machine.advance(machine.timer_period_cycles)
    machine.load(ctx, IP, vaddr)
    assert calls["maybe_tick"] == 1
    assert machine.timer_interrupts == 1

    quiet, ctx, vaddr = _machine_and_line(COFFEE_LAKE_I7_9700.quiet())
    calls = _count_calls(monkeypatch, quiet)
    quiet.load(ctx, IP, vaddr)
    # A quiet machine re-arms its tick on every load and never fires it.
    assert calls["maybe_tick"] == 1
    assert quiet.timer_interrupts == 0
