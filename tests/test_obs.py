"""Tests for repro.obs: events, sinks, tracer, machine wiring, leakcheck.

The load-bearing test is the ground-truth replay: reconstructing the
IP-stride history table purely from ``TableTransition`` events must land
on exactly the live table of the machine that emitted them.
"""

import json

import pytest

from repro.cpu.kernel.core import SimKernel
from repro.cpu.machine import Machine
from repro.memsys.hierarchy import CacheHierarchy
from repro.obs.events import (
    EVENT_TYPES,
    ContextSwitch,
    EntrySnapshot,
    LoadTraced,
    PrefetchFill,
    PrefetchIssued,
    SanitizerViolation,
    SpanBegin,
    SpanEnd,
    TableTransition,
    TlbMiss,
)
from repro.obs.sinks import ChromeTraceSink, JsonlSink, RingBufferSink, event_json
from repro.obs.tracer import ENV_VAR, Tracer, resolve_tracer, trace_enabled
from repro.params import COFFEE_LAKE_I7_9700, PAGE_SIZE
from repro.prefetch.ip_stride import IPStridePrefetcher
from repro.sanitize import InvariantViolation


class TestEvents:
    def test_kinds_are_unique_and_named(self):
        kinds = [cls.kind for cls in EVENT_TYPES]
        assert len(set(kinds)) == len(kinds)
        assert "event" not in kinds  # every concrete type overrides the base

    def test_to_dict_carries_kind_and_fields(self):
        event = TlbMiss(cycle=7, asid=1, vaddr=0x1000, vpage=1)
        payload = event.to_dict()
        assert payload == {"kind": "TlbMiss", "cycle": 7, "asid": 1, "vaddr": 0x1000, "vpage": 1}

    def test_table_transition_nests_snapshots(self):
        snap = EntrySnapshot(index=3, last_vaddr=64, last_paddr=64, stride=64, confidence=2)
        event = TableTransition(
            cycle=1, transition="update", index=3, slot=0, before=snap, after=snap, triggered=True
        )
        payload = event.to_dict()
        assert payload["before"]["stride"] == 64
        assert payload["after"]["confidence"] == 2
        assert payload["triggered"] is True

    def test_events_are_frozen(self):
        event = PrefetchFill(cycle=0, paddr=128)
        with pytest.raises(AttributeError):
            event.paddr = 256

    def test_entry_snapshot_of_duck_types(self):
        class FakeEntry:
            index, last_vaddr, last_paddr, stride, confidence = 1, 2, 3, 4, 0

        snap = EntrySnapshot.of(FakeEntry)
        assert (snap.index, snap.stride) == (1, 4)

    def test_event_json_is_canonical(self):
        event = PrefetchIssued(cycle=9, source="ip-stride", paddr=4160, trigger_ip=0x40)
        text = event_json(event)
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert json.loads(text)["kind"] == "PrefetchIssued"


class TestRingBufferSink:
    def test_bounded_keeps_most_recent(self):
        sink = RingBufferSink(capacity=3)
        for cycle in range(5):
            sink.emit(PrefetchFill(cycle=cycle, paddr=cycle))
        assert [e.cycle for e in sink.events()] == [2, 3, 4]
        assert len(sink) == 3

    def test_unbounded_and_kind_filter(self):
        sink = RingBufferSink(capacity=None)
        sink.emit(PrefetchFill(cycle=0, paddr=0))
        sink.emit(TlbMiss(cycle=1, asid=0, vaddr=0, vpage=0))
        assert len(sink.events("TlbMiss")) == 1
        assert len(sink.events()) == 2
        sink.clear()
        assert len(sink) == 0


class TestJsonlSink:
    def test_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        sink.emit(PrefetchFill(cycle=0, paddr=64))
        sink.emit(TlbMiss(cycle=1, asid=0, vaddr=0, vpage=0))
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "PrefetchFill"
        assert sink.events_written == 2

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "x.jsonl"))
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError):
            sink.emit(PrefetchFill(cycle=0, paddr=0))


class TestChromeTraceSink:
    def test_produces_valid_trace_event_json(self, tmp_path):
        path = tmp_path / "run.trace.json"
        sink = ChromeTraceSink(str(path), cycles_per_us=2.0)
        sink.emit(SpanBegin(cycle=10, name="train"))
        sink.emit(PrefetchFill(cycle=12, paddr=64))
        sink.emit(SpanEnd(cycle=20, name="train", cycles=10))
        sink.close()
        data = json.loads(path.read_text())
        records = data["traceEvents"]
        assert records[0]["ph"] == "M"  # process_name metadata
        begin = next(r for r in records if r["ph"] == "B")
        end = next(r for r in records if r["ph"] == "E")
        assert begin["name"] == end["name"] == "train"
        assert begin["ts"] == 5.0  # 10 cycles at 2 cycles/us
        instant = next(r for r in records if r["ph"] == "i")
        assert instant["args"]["kind"] == "PrefetchFill"

    def test_rejects_bad_rate_and_emit_after_close(self, tmp_path):
        with pytest.raises(ValueError):
            ChromeTraceSink(str(tmp_path / "x.json"), cycles_per_us=0)
        sink = ChromeTraceSink(str(tmp_path / "y.json"))
        sink.close()
        with pytest.raises(ValueError):
            sink.emit(PrefetchFill(cycle=0, paddr=0))

    def test_two_machines_get_labeled_lanes(self, tmp_path):
        """Two machines on one tracer land in two labeled process lanes."""
        path = tmp_path / "two.trace.json"
        sink = ChromeTraceSink(str(path))
        tracer = Tracer([sink])
        first = Machine(COFFEE_LAKE_I7_9700, seed=1, trace=tracer)
        second = Machine(COFFEE_LAKE_I7_9700, seed=2, trace=tracer)
        for machine in (first, second):
            ctx = machine.new_thread("t")
            machine.context_switch(ctx)
            buffer = machine.new_buffer(ctx.space, PAGE_SIZE)
            machine.load(ctx, 0x40_0000, buffer.base)
        tracer.close()
        records = json.loads(path.read_text())["traceEvents"]
        names = {
            r["args"]["name"]
            for r in records
            if r["ph"] == "M" and r["name"] == "process_name"
        }
        assert names == {"i7-9700 #1", "i7-9700 #2"}
        # stable, distinct pids per lane, allocated from 1
        pids = sorted(
            {r["pid"] for r in records if r["ph"] == "M" and r["name"] == "process_name"}
        )
        assert pids == [1, 2]
        thread_names = {
            r["args"]["name"]
            for r in records
            if r["ph"] == "M" and r["name"] == "thread_name"
        }
        assert "simulated core" in thread_names


class TestSpanExceptionSafety:
    """Regression: SpanEnd must go out even when the span body raises."""

    def balance(self, tracer: Tracer) -> tuple[list[str], list[str]]:
        begins = [e.name for e in tracer.events("SpanBegin")]
        ends = [e.name for e in tracer.events("SpanEnd")]
        return begins, ends

    def test_span_end_emitted_on_raise(self):
        machine = Machine(COFFEE_LAKE_I7_9700, seed=1, trace=True)
        with pytest.raises(RuntimeError):
            with machine.span("train"):
                ctx = machine.new_thread("t")
                machine.context_switch(ctx)
                buffer = machine.new_buffer(ctx.space, PAGE_SIZE)
                machine.load(ctx, 0x40_0000, buffer.base)
                raise RuntimeError("attack body blew up")
        begins, ends = self.balance(machine.tracer)
        assert begins == ends == ["train"]
        assert machine.profile.spans["train"].count == 1

    def test_nested_spans_unwind_through_exception(self):
        machine = Machine(COFFEE_LAKE_I7_9700, seed=1, trace=True)
        with pytest.raises(ValueError):
            with machine.span("outer"):
                with machine.span("inner"):
                    raise ValueError("innermost failure")
        begins, ends = self.balance(machine.tracer)
        assert begins == ["outer", "inner"]
        # LIFO unwinding: the inner span closes before the outer one
        assert ends == ["inner", "outer"]
        assert machine.profile.spans["inner"].count == 1
        assert machine.profile.spans["outer"].count == 1


class TestSpanTable:
    """The span table's shares are of the machine's simulated cycles."""

    @staticmethod
    def rows(text: str) -> dict[str, tuple[int, float]]:
        """span name -> (cycles, share %) parsed from the rendered table."""
        rows = {}
        for line in text.splitlines()[1:]:
            name, cycles, share, *_rest = line.split()
            rows[name] = (int(cycles.replace(",", "")), float(share.rstrip("%")))
        return rows

    def test_phase_rows_plus_unattributed_sum_to_the_machine_cycles(self):
        from repro.attacks.registry import run_on_machine

        machine = Machine(COFFEE_LAKE_I7_9700, seed=3)
        run_on_machine("variant1", machine, seed=3, rounds=2)
        rows = self.rows(machine.profile.render_text(machine.cycles))
        total = rows.pop("total")
        assert total == (machine.cycles, 100.0)
        assert rows["unattributed"][0] > 0  # round setup outside every phase
        assert sum(cycles for cycles, _share in rows.values()) == machine.cycles
        assert sum(share for _cycles, share in rows.values()) == pytest.approx(100.0, abs=0.5)

    def test_without_an_outer_span_everything_else_is_unattributed(self):
        machine = Machine(COFFEE_LAKE_I7_9700, seed=1)
        ctx = machine.new_thread("t")
        buffer = machine.new_buffer(ctx.space, PAGE_SIZE)
        machine.context_switch(ctx)
        with machine.span("train"):
            machine.load(ctx, 0x40_0000, buffer.base)
        machine.load(ctx, 0x40_0010, buffer.base + 64)
        rows = self.rows(machine.profile.render_text(machine.cycles))
        assert set(rows) == {"train", "unattributed"}
        assert rows["train"][0] + rows["unattributed"][0] == machine.cycles


class TestTracer:
    def test_default_sink_is_ring_buffer(self):
        tracer = Tracer()
        tracer.emit(PrefetchFill(cycle=0, paddr=0))
        assert len(tracer.events()) == 1

    def test_resolve_tracer(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_tracer(None) is None
        assert resolve_tracer(False) is None
        assert isinstance(resolve_tracer(True), Tracer)
        custom = Tracer()
        assert resolve_tracer(custom) is custom

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert not trace_enabled(None)
        monkeypatch.setenv(ENV_VAR, "1")
        assert trace_enabled(None)
        assert not trace_enabled(False)  # explicit beats environment
        machine = Machine(COFFEE_LAKE_I7_9700, seed=1)
        assert isinstance(machine.tracer, Tracer)

    def test_machine_defaults_to_null_tracer(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        machine = Machine(COFFEE_LAKE_I7_9700, seed=1, sanitize=False)
        assert machine.tracer is None
        assert machine.kernel.tracer is None


def _strided_run(machine):
    """A deterministic little workload touching every hook."""
    ctx = machine.new_thread("walker")
    machine.context_switch(ctx)
    buffer = machine.new_buffer(ctx.space, 4 * PAGE_SIZE, name="walk")
    ip = 0x0040_1230
    for i in range(8):
        vaddr = buffer.line_addr(3 * i)
        machine.warm_tlb(ctx, vaddr)
        machine.load(ctx, ip, vaddr)
    machine.clflush(ctx, buffer.line_addr(0))
    return ctx, buffer


class TestMachineWiring:
    def test_traced_run_emits_every_core_kind(self):
        machine = Machine(COFFEE_LAKE_I7_9700, seed=3, trace=True)
        with machine.span("walk"):
            _strided_run(machine)
        kinds = {event.kind for event in machine.tracer.events()}
        assert {
            "LoadTraced",
            "TableTransition",
            "PrefetchIssued",
            "PrefetchFill",
            "ContextSwitch",
            "Clflush",
            "SpanBegin",
            "SpanEnd",
        } <= kinds

    def test_events_cycle_stamped_monotonically(self):
        machine = Machine(COFFEE_LAKE_I7_9700, seed=3, trace=True)
        _strided_run(machine)
        cycles = [event.cycle for event in machine.tracer.events()]
        assert cycles == sorted(cycles)
        assert cycles[-1] <= machine.cycles

    def test_load_traced_latency_matches_return(self):
        machine = Machine(COFFEE_LAKE_I7_9700.quiet(), seed=4, trace=True)
        ctx = machine.new_thread("t")
        machine.context_switch(ctx)
        buffer = machine.new_buffer(ctx.space, PAGE_SIZE)
        machine.warm_tlb(ctx, buffer.base)
        latency = machine.load(ctx, 0x40_0000, buffer.base)
        event = machine.tracer.events("LoadTraced")[-1]
        assert event.latency == latency
        assert event.vaddr == buffer.base

    def test_table_transitions_replay_to_live_table(self):
        """Acceptance check: the event stream IS the table's history."""
        machine = Machine(COFFEE_LAKE_I7_9700, seed=2023, trace=True)
        _strided_run(machine)
        replayed: dict[int, EntrySnapshot] = {}
        for event in machine.tracer.events("TableTransition"):
            if event.transition == "clear":
                replayed.clear()
            elif event.after is None:  # evict
                del replayed[event.index]
            else:  # allocate / update
                replayed[event.index] = event.after
        live = {
            entry.index: EntrySnapshot.of(entry) for entry in machine.ip_stride.entries()
        }
        assert replayed == live
        assert replayed  # the workload trained at least one entry

    def test_prefetch_issue_precedes_fill(self):
        machine = Machine(COFFEE_LAKE_I7_9700.quiet(), seed=5, trace=True)
        _strided_run(machine)
        events = machine.tracer.events()
        filled = [e.paddr for e in events if isinstance(e, PrefetchFill)]
        assert filled
        for paddr in filled:
            order = [
                e.kind
                for e in events
                if (isinstance(e, PrefetchIssued) or isinstance(e, PrefetchFill))
                and e.paddr == paddr
            ]
            assert order.index("PrefetchIssued") < order.index("PrefetchFill")

    def test_span_events_only_when_traced(self):
        machine = Machine(COFFEE_LAKE_I7_9700, seed=1)
        with machine.span("quiet"):
            pass
        assert "quiet" in machine.profile.spans
        traced = Machine(COFFEE_LAKE_I7_9700, seed=1, trace=True)
        with traced.span("loud"):
            pass
        names = [e.name for e in traced.tracer.events("SpanEnd")]
        assert names == ["loud"]


class TestOneObservationPath:
    """Every trace event reaches the machine's one tracer, and the load and
    switch paths emit their event before the sanitizer audits them."""

    def test_component_events_reach_the_tracer_stamped_from_the_kernel_clock(self):
        tracer = Tracer()
        kernel = SimKernel(tracer)
        kernel.clock.cycles = 42
        hierarchy = CacheHierarchy(COFFEE_LAKE_I7_9700, kernel=kernel)
        hierarchy.insert_prefetch(0x1000)
        prefetcher = IPStridePrefetcher(COFFEE_LAKE_I7_9700.prefetcher, kernel=kernel)
        prefetcher.clear()
        assert tracer.events() == [
            PrefetchFill(cycle=42, paddr=0x1000),
            TableTransition(
                cycle=42, transition="clear", index=-1, slot=-1, before=None, after=None
            ),
        ]

    def test_sanitizer_violation_is_traced_before_the_raise(self):
        machine = Machine(COFFEE_LAKE_I7_9700, seed=11, trace=True, sanitize=True)
        _strided_run(machine)
        machine.ip_stride.entries()[0].confidence = -1  # repro: noqa[RL005]
        with pytest.raises(InvariantViolation) as excinfo:
            machine.sanitizer.check_all()
        last = machine.tracer.events()[-1]
        assert isinstance(last, SanitizerViolation)
        assert last.invariant == excinfo.value.invariant
        assert last.cycle == machine.cycles

    @staticmethod
    def _corrupted_machine():
        """A traced, sanitized, quiet machine with one corrupted IP-stride
        entry (the walker's); the quiet preset keeps the switch and IRQ
        paths from touching the table."""
        machine = Machine(COFFEE_LAKE_I7_9700.quiet(), seed=11, trace=True, sanitize=True)
        ctx, buffer = _strided_run(machine)
        (entry,) = machine.ip_stride.entries()
        entry.confidence = -1  # repro: noqa[RL005] - deliberate corruption
        return machine, ctx, buffer

    def _assert_traced_then_audited(self, machine, excinfo, kind):
        *_, traced, violation = machine.tracer.events()
        assert isinstance(traced, kind)
        assert isinstance(violation, SanitizerViolation)
        assert violation.invariant == excinfo.value.invariant == "confidence-range"
        assert traced.cycle == violation.cycle == machine.cycles
        return traced

    def test_load_is_traced_then_audited(self):
        machine, ctx, buffer = self._corrupted_machine()
        ip = 0x0040_1777  # another entry: the corrupted one is not retrained
        with pytest.raises(InvariantViolation) as excinfo:
            machine.load(ctx, ip, buffer.line_addr(1))
        traced = self._assert_traced_then_audited(machine, excinfo, LoadTraced)
        assert (traced.ip, traced.fenced) == (ip, False)

    def test_switch_is_traced_then_audited(self):
        machine, _, _ = self._corrupted_machine()
        other = machine.new_thread("other")
        with pytest.raises(InvariantViolation) as excinfo:
            machine.context_switch(other)
        traced = self._assert_traced_then_audited(machine, excinfo, ContextSwitch)
        assert (traced.to_ctx, traced.cross_space) == ("other", True)
