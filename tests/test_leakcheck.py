"""Tests for repro.leakcheck: abstract-table fidelity against the concrete
prefetcher, victim verdicts under the defense matrix, trace validation,
report rendering, and the CLI."""

import json

import pytest

from repro.leakcheck import analyze, get_victim, victim_names
from repro.leakcheck.analyzer import ATTACKER_CODE_BASE, canary_plan, region_bases
from repro.leakcheck.cli import main as leakcheck_main
from repro.leakcheck.report import render_json, render_text
from repro.leakcheck.table import AbstractTable
from repro.leakcheck.trace import TraceLoad, VictimSpec
from repro.memsys.hierarchy import MemoryLevel
from repro.params import CACHE_LINE_SIZE, PAGE_SIZE, IPStrideParams
from repro.prefetch.base import LoadEvent
from repro.prefetch.ip_stride import IPStridePrefetcher
from repro.utils.bits import low_bits
from repro.utils.rng import make_rng

PARAMS = IPStrideParams()


# --------------------------------------------------------------------- #
# Abstract table vs. concrete prefetcher                                 #
# --------------------------------------------------------------------- #


def _random_stream(seed, n_events):
    """A load stream exercising aliasing, eviction, stride caps and
    page crossings."""
    rng = make_rng(seed)
    # More distinct indexes than table entries forces evictions; a couple
    # of deliberate aliases (same low byte, different high bits).
    ips = [0x40_0000 + int(o) for o in rng.integers(0, 1 << 12, 40)]
    ips.append(ips[0] + (1 << PARAMS.index_bits))
    bases = [0x100_0000 + i * 4 * PAGE_SIZE for i in range(len(ips))]
    events = []
    for _ in range(n_events):
        k = int(rng.integers(0, len(ips)))
        # Mostly small strides; occasionally a >2 KiB jump (stride cap) or
        # a page hop (boundary drop).
        offset = int(rng.integers(0, 3 * PAGE_SIZE))
        events.append((ips[k], bases[k] + offset))
    return events


class TestAbstractTableFidelity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_concrete_prefetcher(self, seed):
        concrete = IPStridePrefetcher(PARAMS)
        abstract = AbstractTable(PARAMS)
        concrete_targets = []
        for ip, paddr in _random_stream(seed, 400):
            event = LoadEvent(ip=ip, vaddr=paddr, paddr=paddr, hit_level=MemoryLevel.DRAM)
            concrete_targets.extend(r.paddr for r in concrete.observe(event, lambda v: v))
            abstract.load(ip, paddr)
        assert [p.target for p in abstract.prefetches] == concrete_targets
        concrete_state = {
            e.index: (e.last_paddr, e.stride, e.confidence) for e in concrete.entries()
        }
        abstract_state = {
            index: (e.last_paddr, e.stride, e.confidence)
            for index, e in abstract.live_entries().items()
        }
        assert abstract_state == concrete_state


class TestAbstractTableSemantics:
    def _trained(self, stride_lines=3):
        table = AbstractTable(PARAMS)
        stride = stride_lines * CACHE_LINE_SIZE
        for i in range(3):
            table.load(0x4013A7, 0x100_0000 + i * stride)
        return table, stride

    def test_training_reaches_threshold_and_issues(self):
        table, stride = self._trained()
        entry = table.live_entries()[0xA7]
        assert entry.confidence == PARAMS.prefetch_threshold
        assert entry.stride == stride
        assert table.prefetch_targets(0xA7) == {0x100_0000 + 3 * stride}

    def test_unconditional_trigger_before_stride_compare(self):
        # The "key component": a confident entry fires at its *old* stride
        # even when the triggering load breaks the pattern.
        table, stride = self._trained()
        paddr = 0x100_0000 + 9 * stride  # off-pattern but same page
        table.load(0x4013A7, paddr)
        assert paddr + stride in table.prefetch_targets(0xA7)
        entry = table.live_entries()[0xA7]
        assert entry.confidence == 1  # stride rewritten, confidence reset
        assert entry.stride != stride

    def test_stride_cap_suppresses_issue(self):
        table = AbstractTable(PARAMS)
        stride = PARAMS.max_stride_bytes + CACHE_LINE_SIZE
        base = 0x100_0000
        for i in range(4):
            table.load(0x4013A7, base + i * stride)
        assert table.live_entries()[0xA7].confidence >= PARAMS.prefetch_threshold
        assert table.prefetch_targets(0xA7) == frozenset()

    def test_page_boundary_drop(self):
        table = AbstractTable(PARAMS)
        stride = 8 * CACHE_LINE_SIZE
        # Walk up to the end of the page: the last trigger would cross.
        base = 0x100_0000 + PAGE_SIZE - 4 * stride
        for i in range(4):
            table.load(0x4013A7, base + i * stride)
        targets = table.prefetch_targets(0xA7)
        assert targets  # in-page triggers happened
        assert all(t // PAGE_SIZE == base // PAGE_SIZE for t in targets)

    def test_taint_accumulates_and_survives_rewrite(self):
        table, stride = self._trained()
        table.load(0x4013A7 + (1 << PARAMS.index_bits), 0x900_0000, frozenset({"secret"}))
        assert "secret" in table.taint_of(0xA7)
        # The aliased load triggered a prefetch carrying the taint.
        assert any("secret" in p.taint for p in table.prefetches)

    def test_pretrain_rejects_zero_stride(self):
        table = AbstractTable(PARAMS)
        with pytest.raises(ValueError):
            table.pretrain(0x4013A7, 0x100_0000, 0)

    def test_pretrain_installs_saturated_untainted_entry(self):
        table = AbstractTable(PARAMS)
        table.pretrain(0x4013A7, 0x100_0000, 7 * CACHE_LINE_SIZE)
        entry = table.live_entries()[0xA7]
        assert entry.confidence == PARAMS.confidence_max
        assert entry.stride == 7 * CACHE_LINE_SIZE
        assert table.taint_of(0xA7) == frozenset()

    def test_pretrained_canary_is_never_a_confidence0_victim(self):
        table = AbstractTable(PARAMS)
        table.pretrain(0x4013A7, 0x100_0000, 7 * CACHE_LINE_SIZE)
        fresh = [0x40_0000 + k for k in range(2 * PARAMS.n_entries)]
        for k, ip in enumerate(fresh):
            table.load(ip, 0x200_0000 + k * PAGE_SIZE)
        # Each fresh entry was seen once (confidence 0), so every eviction
        # past capacity takes one of them, never the canary.
        live = table.live_entries()
        assert table.evictions == len(fresh) - (PARAMS.n_entries - 1)
        assert live.pop(0xA7).confidence == PARAMS.confidence_max
        assert len(live) == PARAMS.n_entries - 1
        assert all(entry.confidence == 0 for entry in live.values())

    def test_capacity_eviction(self):
        table = AbstractTable(PARAMS)
        n = PARAMS.n_entries
        for k in range(n + 1):
            table.load(0x40_0000 + k, 0x100_0000 + k * PAGE_SIZE)
        assert len(table.live_entries()) == n


# --------------------------------------------------------------------- #
# Victim verdicts                                                        #
# --------------------------------------------------------------------- #


class TestVictimVerdicts:
    def test_rsa_square_multiply_leaks_every_bit(self):
        report = analyze(get_victim("rsa-square-multiply").spec)
        assert report.verdict == "leaky"
        assert report.severity == "high"
        assert report.leaky_bits == tuple(range(report.secret_bits))
        a, b = report.witness
        assert bin(a ^ b).count("1") == 1  # witness secrets differ in one bit

    def test_aes_ttable_leaks(self):
        report = analyze(get_victim("aes-ttable").spec)
        assert report.verdict == "leaky"
        assert report.leaky_bits  # key bits reach the table index
        assert any("ttable_lookup" in e.labels for e in report.entries)

    def test_oblivious_branch_is_safe(self):
        report = analyze(get_victim("oblivious-branch").spec)
        assert report.verdict == "safe"
        assert report.severity == "none"
        assert report.witness is None

    def test_defenses_flip_leaky_victims_to_safe(self):
        spec = get_victim("rsa-square-multiply").spec
        for defense in ("tagged", "flush-on-switch", "oblivious"):
            report = analyze(spec, defense=defense)
            assert report.verdict == "safe", defense

    def test_tagged_keeps_entries_but_marks_unreachable(self):
        report = analyze(get_victim("branch-load").spec, defense="tagged")
        assert report.verdict == "safe"
        assert report.entries  # divergence still exists...
        assert all(not e.reachable for e in report.entries)  # ...but unreachable
        assert all(e.attacker_ip is None for e in report.entries)

    def test_attacker_ip_aliases_victim_load(self):
        report = analyze(get_victim("branch-load").spec)
        for entry in report.entries:
            assert entry.attacker_ip is not None
            assert low_bits(entry.attacker_ip, PARAMS.index_bits) == entry.index

    def test_kernel_victims_leak(self):
        for name in ("kernel-bluetooth", "kernel-battery"):
            assert analyze(get_victim(name).spec).verdict == "leaky", name

    def test_full_expected_matrix(self):
        for name in victim_names():
            registered = get_victim(name)
            for defense, expected in registered.expected.items():
                verdict = analyze(registered.spec, defense=defense).verdict
                assert verdict == expected, f"{name} under {defense}"

    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError, match="unknown defense"):
            analyze(get_victim("branch-load").spec, defense="prayer")

    def test_oblivious_defense_needs_a_rewrite(self):
        spec = VictimSpec(
            name="no-rewrite",
            description="victim with no oblivious variant",
            secret_bits=1,
            labels={"load": 0x4013A7},
            region_pages={"data": 1},
            trace_fn=lambda s: [TraceLoad("load", "data", s * CACHE_LINE_SIZE)],
        )
        with pytest.raises(ValueError, match="oblivious"):
            analyze(spec, defense="oblivious")


# --------------------------------------------------------------------- #
# Trace and spec validation                                              #
# --------------------------------------------------------------------- #


def _tiny_spec(trace_fn):
    return VictimSpec(
        name="tiny",
        description="validation fixture",
        secret_bits=1,
        labels={"load": 0x4013A7},
        region_pages={"data": 1},
        trace_fn=trace_fn,
    )


class TestSpecValidation:
    def test_secret_out_of_range(self):
        spec = _tiny_spec(lambda s: [])
        with pytest.raises(ValueError):
            spec.trace(2)
        with pytest.raises(ValueError):
            spec.trace(-1)

    def test_unknown_label_rejected(self):
        spec = _tiny_spec(lambda s: [TraceLoad("mystery", "data", 0)])
        with pytest.raises(ValueError, match="mystery"):
            spec.trace(0)

    def test_unknown_region_rejected(self):
        spec = _tiny_spec(lambda s: [TraceLoad("load", "heap", 0)])
        with pytest.raises(ValueError, match="heap"):
            spec.trace(0)

    def test_offset_outside_region_rejected(self):
        spec = _tiny_spec(lambda s: [TraceLoad("load", "data", PAGE_SIZE)])
        with pytest.raises(ValueError):
            spec.trace(0)

    def test_default_taint_is_label(self):
        spec = _tiny_spec(lambda s: [TraceLoad("load", "data", 0)])
        assert spec.trace(0)[0].taint == frozenset({"load"})

    def test_default_witness_bases(self):
        spec = _tiny_spec(lambda s: [])
        assert spec.witness_bases == (0, 1)

    def test_region_bases_are_page_aligned_and_disjoint(self):
        spec = get_victim("rsa-square-multiply").spec
        bases = region_bases(spec)
        assert all(base % PAGE_SIZE == 0 for base in bases.values())
        assert len(set(bases.values())) == len(bases)

    def test_canary_plan_covers_every_victim_index(self):
        spec = get_victim("rsa-timing-constant").spec
        plan = canary_plan(spec, PARAMS)
        planned = {low_bits(train_ip, PARAMS.index_bits) for train_ip, _, _ in plan}
        assert planned == set(spec.indexes(PARAMS.index_bits))
        for train_ip, _, stride in plan:
            assert ATTACKER_CODE_BASE <= train_ip < ATTACKER_CODE_BASE + (1 << PARAMS.index_bits)
            assert 0 < stride <= PARAMS.max_stride_bytes


# --------------------------------------------------------------------- #
# Rendering and CLI                                                      #
# --------------------------------------------------------------------- #


class TestRendering:
    def test_text_report_names_entries_and_witness(self):
        report = analyze(get_victim("rsa-square-multiply").spec)
        text = render_text([report])
        assert "rsa-square-multiply" in text
        assert "leaky" in text
        assert "witness" in text
        assert "0x" in text

    def test_json_report_structure(self):
        reports = [
            analyze(get_victim("branch-load").spec),
            analyze(get_victim("oblivious-branch").spec),
        ]
        payload = json.loads(render_json(reports))
        assert payload["victims_checked"] == 2
        assert payload["leaky"] == 1
        leaky = next(r for r in payload["reports"] if r["verdict"] == "leaky")
        assert leaky["witness"] is not None
        assert leaky["entries"]


class TestLeakcheckCLI:
    def test_leaky_victim_exits_one(self, capsys):
        assert leakcheck_main(["rsa-square-multiply"]) == 1
        assert "leaky" in capsys.readouterr().out

    def test_safe_victim_exits_zero(self, capsys):
        assert leakcheck_main(["oblivious-branch"]) == 0
        assert "safe" in capsys.readouterr().out.lower()

    def test_defended_victim_exits_zero(self, capsys):
        assert leakcheck_main(["rsa-square-multiply", "--defense", "tagged"]) == 0
        capsys.readouterr()

    def test_unknown_victim_exits_two(self, capsys):
        assert leakcheck_main(["enigma"]) == 2
        assert "enigma" in capsys.readouterr().err

    def test_list_victims(self, capsys):
        assert leakcheck_main(["--list-victims"]) == 0
        out = capsys.readouterr().out
        for name in victim_names():
            assert name in out

    def test_json_format_parses(self, capsys):
        assert leakcheck_main(["branch-load", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["victim"] == "branch-load"

    def test_suite_all_verdicts_expected(self, capsys):
        assert leakcheck_main(["--suite"]) == 0
        out = capsys.readouterr().out
        assert "verdicts as expected" in out


class TestRegistry:
    def test_unknown_victim_error_lists_known(self):
        with pytest.raises(ValueError) as excinfo:
            get_victim("enigma")
        assert "rsa-square-multiply" in str(excinfo.value)

    def test_every_victim_has_full_expectation_matrix(self):
        from repro.leakcheck.analyzer import DEFENSES

        for name in victim_names():
            assert set(get_victim(name).expected) == set(DEFENSES), name
