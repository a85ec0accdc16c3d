"""Overhead and determinism guarantees of the observability layer.

Two contracts:

* **Disabled means free** — an untraced machine must not construct a
  single trace event, with or without the sanitizer (structural test with
  raising event stubs: the sanitizer is called with plain values); and a
  fixed covert run must stay within 5 % of the
  wall clock of a fully-traced run of the same workload (best of three
  interleaved pairs; tracing serializes thousands of events, so a
  disabled path that secretly pays the tracing cost shows up here).
* **Traced means deterministic** — two same-seed traced runs serialize to
  byte-identical JSONL, and tracing plus sanitizing leaves every attack's
  wall-clock-free aggregate unchanged (both only observe).
"""

from time import perf_counter  # repro: noqa[RL003] — measuring the host is the point

import pytest

import repro.cpu.machine as machine_mod
import repro.memsys.hierarchy as hierarchy_mod
import repro.mmu.tlb as tlb_mod
import repro.obs.profiler as profiler_mod
import repro.prefetch.ip_stride as ip_stride_mod
import repro.sanitize.sanitizer as sanitizer_mod
from repro.attacks import attack_names, run_on_machine, run_trials
from repro.cpu.machine import Machine
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer

ROUNDS = 12
SEED = 7


def _covert_run(trace=None, seed=SEED, rounds=ROUNDS):
    """Run covert on a fresh machine; returns the machine after the run."""
    machine = Machine(seed=seed, trace=trace)
    run_on_machine("covert", machine, seed=seed, rounds=rounds)
    return machine


class _Exploding:
    """Event stand-in that detonates if the disabled path constructs it."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("event constructed while tracing is disabled")


#: (module, attribute) of every event class a hook site instantiates.  Each
#: module imports its event classes at load time, so patching the name
#: there reaches every site.
_HOOK_EVENT_SITES = [
    # The machine's own load, prefetch-dispatch, clflush and switch events.
    (machine_mod, "LoadTraced"),
    (machine_mod, "PrefetchIssued"),
    (machine_mod, "Clflush"),
    (machine_mod, "ContextSwitch"),
    # Trace events the model publishes through its kernel.
    (ip_stride_mod, "TableTransition"),
    (ip_stride_mod, "EntrySnapshot"),
    (tlb_mod, "TlbMiss"),
    (hierarchy_mod, "PrefetchFill"),
    (profiler_mod, "SpanBegin"),
    (profiler_mod, "SpanEnd"),
    (sanitizer_mod, "SanitizerViolation"),
]


class TestDisabledPath:
    def test_no_event_constructed_when_disabled(self, monkeypatch):
        for module, name in _HOOK_EVENT_SITES:
            monkeypatch.setattr(module, name, _Exploding)
        # No tracer and no sanitizer: no stub may be touched.
        batch = run_trials("covert", seed=SEED, rounds=ROUNDS, sanitize=False)
        assert batch.quality > 0.5

    def test_no_trace_event_constructed_when_only_sanitized(self, monkeypatch):
        # The sanitizer is called with plain values: a sanitized, untraced
        # machine must build no event at all.
        for module, name in _HOOK_EVENT_SITES:
            monkeypatch.setattr(module, name, _Exploding)
        batch = run_trials("covert", seed=SEED, rounds=ROUNDS, sanitize=True)
        assert batch.quality > 0.5

    def test_null_tracer_overhead_under_five_percent(self, tmp_path):
        # Interleaved pairs of (untraced run, fully-traced JSONL run) on
        # the fixed covert workload.  The disabled path must, in its best
        # pair, stay within 5 % of the traced run — the traced arm pays
        # per-event construction plus JSONL serialization, so this fails
        # if the disabled path starts doing tracing work.  Best-of-3
        # pairwise ratios filter scheduler noise.
        _covert_run()  # warm caches/imports outside the measurement
        ratios = []
        for i in range(3):
            start = perf_counter()
            _covert_run()
            disabled = perf_counter() - start
            tracer = Tracer([JsonlSink(str(tmp_path / f"run{i}.jsonl"))])
            start = perf_counter()
            _covert_run(trace=tracer)
            traced = perf_counter() - start
            tracer.close()
            ratios.append(disabled / traced)
        assert min(ratios) <= 1.05, f"untraced run slower than traced run: {ratios}"


class TestDeterminism:
    def test_same_seed_traced_runs_byte_identical(self, tmp_path):
        paths = []
        for label in ("a", "b"):
            path = tmp_path / f"run_{label}.jsonl"
            tracer = Tracer([JsonlSink(str(path))])
            _covert_run(trace=tracer)
            tracer.close()
            paths.append(path)
        first, second = (path.read_bytes() for path in paths)
        assert first == second
        assert first  # the runs actually traced something

    def test_different_seeds_diverge(self, tmp_path):
        streams = []
        for seed in (1, 2):
            path = tmp_path / f"seed_{seed}.jsonl"
            tracer = Tracer([JsonlSink(str(path))])
            _covert_run(trace=tracer, seed=seed, rounds=6)
            tracer.close()
            streams.append(path.read_bytes())
        assert streams[0] != streams[1]

    def test_simulated_cycles_identical_across_runs(self):
        assert _covert_run().cycles == _covert_run().cycles

    @pytest.mark.parametrize("name", attack_names())
    def test_taps_do_not_change_aggregates(self, name):
        # The tracer and the sanitizer observe; they must not perturb.
        def aggregate(observed: bool) -> dict:
            batch = run_trials(name, seed=SEED, rounds=1, trace=observed, sanitize=observed)
            return batch.wall_clock_free_dict()

        assert aggregate(True) == aggregate(False)
