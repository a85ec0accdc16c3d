"""The static victim front-end: domain, interpreter, builder, scan, CLI.

The differential check against the hand-written registry lives in
``tests/test_leakcheck_extract_differential.py``; this file covers the
machinery itself — symbolic shadows, secret-width inference, site
identity, determinism, oblivious synthesis, rejection reasons, and the
lint-shaped scan findings with their exit codes.
"""

import ast
import json

import pytest

from repro.leakcheck.analyzer import analyze
from repro.leakcheck.extract import fixtures
from repro.leakcheck.extract.builder import (
    Candidate,
    candidates,
    compile_candidate,
    compile_path,
    compile_source,
    module_info,
)
from repro.leakcheck.extract.domain import (
    AffineExpr,
    BitExpr,
    MixExpr,
    SecretExpr,
    bits_of,
    mask,
    mix,
    shift_right,
    taint_labels,
)
from repro.leakcheck.extract.interp import Interpreter, is_secret_param
from repro.leakcheck.extract.scan import (
    EXTRACT_CODES,
    render_scan_json,
    render_scan_text,
    scan_paths,
)
from repro.leakcheck.cli import main as leakcheck_main
from repro.lint.flow.callgraph import closure_defs, function_defs

FIXTURE_PATH = fixtures.__file__


def compile_one(source: str):
    """Compile the sole candidate in ``source`` and return its Extraction."""
    extractions = compile_source(source, "victim.py")
    assert len(extractions) == 1, [e.qualname for e in extractions]
    return extractions[0]


# --------------------------------------------------------------------- #
# symbolic domain                                                        #
# --------------------------------------------------------------------- #


class TestDomain:
    def test_shift_then_mask_isolates_one_bit(self):
        expr = mask(shift_right(SecretExpr(0), 3), 1)
        assert expr == BitExpr(3)
        assert bits_of(expr, 8) == frozenset({3})

    def test_mask_widens_to_bit_range(self):
        expr = mask(SecretExpr(2), 0x7)
        assert bits_of(expr, 16) == frozenset({2, 3, 4})

    def test_mix_of_bits_unions(self):
        expr = mix(BitExpr(1), BitExpr(5))
        assert isinstance(expr, MixExpr)
        assert bits_of(expr, 8) == frozenset({1, 5})

    def test_unknown_mix_depends_on_all_bits(self):
        assert bits_of(MixExpr(None), 4) == frozenset({0, 1, 2, 3})

    def test_affine_preserves_dependence(self):
        expr = AffineExpr(BitExpr(2), 64, 128)
        assert bits_of(expr, 8) == frozenset({2})

    def test_taint_labels_render(self):
        assert taint_labels(mix(BitExpr(0), BitExpr(3)), 8) == {"bit0", "bit3"}
        assert taint_labels(None, 8) == frozenset()

    def test_secret_param_stems(self):
        assert is_secret_param("secret")
        assert is_secret_param("secret_bit")
        assert is_secret_param("exponent")
        assert not is_secret_param("packet_type")
        assert not is_secret_param("secretive")


# --------------------------------------------------------------------- #
# shared call graph                                                      #
# --------------------------------------------------------------------- #


CALLGRAPH_SRC = """
def worker(x):
    return helper(x)

def helper(x):
    return x + 1

class A:
    def method(self):
        return self._inner()

    def _inner(self):
        return 0

class B:
    def _inner(self):
        return 1
"""


class TestCallgraph:
    def test_function_defs_groups_ambiguous_names(self):
        tree = ast.parse(CALLGRAPH_SRC)
        defs = function_defs(tree)
        assert len(defs["_inner"]) == 2
        assert len(defs["worker"]) == 1

    def test_closure_defs_follows_attribute_calls(self):
        tree = ast.parse(CALLGRAPH_SRC)
        defs = function_defs(tree)
        root = defs["method"][0]
        names = [d.name for d in closure_defs(defs, root)]
        assert names[0] == "method"
        assert names.count("_inner") == 2  # both ambiguous defs included


# --------------------------------------------------------------------- #
# builder: candidates, width inference, determinism                      #
# --------------------------------------------------------------------- #


class TestBuilder:
    def test_candidates_skip_dunders_and_unhinted_params(self):
        module = module_info(
            "class V:\n"
            "    def __init__(self, secret):\n"
            "        pass\n"
            "    def handle(self, packet_type):\n"
            "        pass\n"
            "    def run(self, secret):\n"
            "        pass\n",
            "victim.py",
        )
        found = candidates(module)
        assert [c.qualname for c in found] == ["V.run"]

    def test_secret_bits_from_mask(self):
        extraction = compile_one(
            "class V:\n"
            "    def run(self, secret):\n"
            "        row = secret & 0x3F\n"
            "        self.machine.load(self.ctx, self.ip, self.table.line_addr(row))\n"
        )
        assert extraction.error is None
        assert extraction.spec.secret_bits == 6

    def test_secret_bits_from_shift_loop(self):
        extraction = compile_one(
            "class V:\n"
            "    def run(self, exponent):\n"
            "        for i in range(12):\n"
            "            bit = (exponent >> i) & 1\n"
            "            if bit:\n"
            "                self.machine.load(self.ctx, self.ip, self.buf.line_addr(i))\n"
        )
        assert extraction.spec.secret_bits == 12

    def test_pure_function_is_skipped_not_failed(self):
        extraction = compile_one(
            "def fold(secret):\n"
            "    return (secret * 3 + 1) & 0xFF\n"
        )
        assert extraction.pure
        assert extraction.spec is None
        assert extraction.error is None

    def test_branch_arm_sites_distinct_via_ip_provenance(self):
        extraction = compile_one(
            "class V:\n"
            "    def run(self, secret_bit):\n"
            "        vaddr = self.data.line_addr(0)\n"
            "        if secret_bit:\n"
            "            self._go(self.if_ip, vaddr)\n"
            "        else:\n"
            "            self._go(self.else_ip, vaddr)\n"
            "    def _go(self, ip, vaddr):\n"
            "        self.machine.load(self.ctx, ip, vaddr)\n"
        )
        spec = extraction.spec
        assert spec.secret_bits == 1
        # One call expression, two sites: the IP argument's provenance
        # (self.if_ip vs self.else_ip) is part of site identity.
        assert len(spec.labels) == 2
        assert analyze(spec, defense="none").verdict == "leaky"

    def test_trace_fn_is_pure_and_deterministic(self):
        extraction = compile_one(
            "class V:\n"
            "    def run(self, secret):\n"
            "        row = secret & 0x3\n"
            "        self.machine.load(self.ctx, self.ip, self.t.line_addr(row))\n"
        )
        spec = extraction.spec
        first = spec.trace(2)
        again = spec.trace(2)
        assert first == again
        assert first[0].offset == 2 * 64
        assert "bit0" in first[0].taint and "bit1" in first[0].taint

    def test_compiling_twice_gives_identical_labels(self):
        source = (
            "class V:\n"
            "    def run(self, secret):\n"
            "        row = secret % 3\n"
            "        self.machine.load(self.ctx, self.case_ips[row], self.t.line_addr(row))\n"
        )
        one = compile_one(source).spec
        two = compile_one(source).spec
        assert one.labels == two.labels
        assert one.region_pages == two.region_pages

    def test_data_param_subscript_is_a_load_site(self):
        extraction = compile_one(
            "def pick(table, secret):\n"
            "    return table[secret & 0x7]\n"
        )
        spec = extraction.spec
        assert spec is not None
        assert spec.secret_bits == 3
        assert "table" in spec.region_pages
        assert analyze(spec, defense="none").verdict == "leaky"

    def test_victim_raise_truncates_trace(self):
        extraction = compile_one(
            "class V:\n"
            "    def run(self, secret):\n"
            "        self.machine.load(self.ctx, self.ip, self.t.line_addr(0))\n"
            "        if secret > 300:\n"
            "            raise ValueError('out of range')\n"
            "        self.machine.load(self.ctx, self.ip2, self.t.line_addr(1))\n"
        )
        assert extraction.error is None
        # 300 forces a 9-bit witness closure; secrets above 300 abort after
        # the first load, below keep both.
        spec = extraction.spec
        assert spec.secret_bits == 9
        assert len(spec.trace(0)) == 2
        assert len(spec.trace(301)) == 1

    def test_mutable_module_constant_keeps_trace_fn_pure(self):
        # STATE used to be handed out by shared reference, so probe-run
        # stores leaked into replays and trace_fn(0) drifted between calls.
        extraction = compile_one(
            "STATE = [0]\n"
            "\n"
            "class V:\n"
            "    def step(self, secret):\n"
            "        STATE[0] = STATE[0] + 1\n"
            "        vaddr = self.t.line_addr(STATE[0] + (secret & 1))\n"
            "        return self.machine.load(self.ctx, self.ip, vaddr)\n"
        )
        assert extraction.error is None
        assert extraction.spec.trace(0) == extraction.spec.trace(0)
        assert analyze(extraction.spec, defense="none").verdict == "leaky"

    def test_module_constant_counter_without_secret_dep_is_safe(self):
        # The impure-constant bug made this secret-independent counter
        # look leaky (every replay touched a new offset).
        extraction = compile_one(
            "STATE = [0]\n"
            "\n"
            "class V:\n"
            "    def step(self, secret):\n"
            "        STATE[0] = STATE[0] + 1\n"
            "        vaddr = self.t.line_addr(STATE[0])\n"
            "        return self.machine.load(self.ctx, self.ip, vaddr)\n"
        )
        assert extraction.error is None
        assert analyze(extraction.spec, defense="none").verdict == "safe"


class TestRejections:
    def test_super_is_dynamic_dispatch(self):
        extraction = compile_one(
            "class V:\n"
            "    def run(self, bit):\n"
            "        super().run(bit)\n"
            "        self.machine.load(self.ctx, self.ip, self.t.line_addr(0))\n"
        )
        assert extraction.spec is None
        assert "super()" in extraction.error

    def test_ambiguous_method_name_is_dynamic_dispatch(self):
        extraction = compile_source(
            "class A:\n"
            "    def run(self, bit):\n"
            "        self._step(bit)\n"
            "    def _step(self, bit):\n"
            "        self.machine.load(self.ctx, self.ip, self.t.line_addr(0))\n"
            "class B:\n"
            "    def _step(self, bit):\n"
            "        pass\n",
            "victim.py",
        )[0]
        assert extraction.spec is None
        assert "dynamic dispatch" in extraction.error

    def test_try_except_rejected(self):
        extraction = compile_one(
            "def run(secret, t):\n"
            "    try:\n"
            "        return t[secret & 1]\n"
            "    except KeyError:\n"
            "        return 0\n"
        )
        assert extraction.spec is None
        assert "try/except" in extraction.error

    def test_runaway_loop_hits_iteration_cap(self):
        # The CFG pre-check passes (the loop *can* exit), but the concrete
        # trip count blows the interpreter's iteration cap.
        extraction = compile_one(
            "def run(secret, t):\n"
            "    i = 0\n"
            "    while i < 10 ** 9:\n"
            "        i = i + 1\n"
            "        x = t[i & 0x3]\n"
        )
        assert extraction.spec is None
        assert "budget" in extraction.error or "iteration" in extraction.error

    def test_nonterminating_cfg_rejected_before_execution(self):
        # `while True:` with no break: the CFG exit is unreachable.
        extraction = compile_one(
            "def run(secret, t):\n"
            "    while True:\n"
            "        pass\n"
        )
        assert extraction.spec is None
        assert "exit" in extraction.error

    def test_secret_dependent_trip_count_blocks_oblivious_only(self):
        extraction = compile_one(
            "class V:\n"
            "    def run(self, secret):\n"
            "        for i in range(secret & 0x3):\n"
            "            self.machine.load(self.ctx, self.ip, self.t.line_addr(i))\n"
        )
        assert extraction.error is None
        spec = extraction.spec
        assert spec.oblivious_fn is None
        assert "trip count" in extraction.oblivious_note
        assert analyze(spec, defense="none").verdict == "leaky"
        with pytest.raises(ValueError):
            analyze(spec, defense="oblivious")


class TestObliviousSynthesis:
    def test_branch_rewrite_runs_both_arms(self):
        extraction = compile_one(
            "class V:\n"
            "    def run(self, secret_bit):\n"
            "        vaddr = self.data.line_addr(0)\n"
            "        if secret_bit:\n"
            "            self.machine.load(self.ctx, self.if_ip, vaddr)\n"
            "        else:\n"
            "            self.machine.load(self.ctx, self.else_ip, vaddr)\n"
        )
        rewrite = extraction.spec.oblivious()
        assert rewrite is not None
        assert len(rewrite.trace(0)) == 2
        assert rewrite.trace(0) == rewrite.trace(1)
        assert analyze(extraction.spec, defense="oblivious").verdict == "safe"

    def test_tainted_address_becomes_full_sweep(self):
        extraction = compile_one(
            "class V:\n"
            "    def run(self, secret):\n"
            "        row = secret & 0x3\n"
            "        self.machine.load(self.ctx, self.ip, self.t.line_addr(row))\n"
        )
        rewrite = extraction.spec.oblivious()
        offsets = sorted({load.offset for load in rewrite.trace(0)})
        assert offsets == list(range(0, 4096, 64))
        assert analyze(extraction.spec, defense="oblivious").verdict == "safe"

    def test_early_returning_arms_are_both_traced(self):
        # A _Return from the taken arm used to skip the sandboxed arm,
        # breaking the "execute both arms" guarantee.
        extraction = compile_one(
            "class V:\n"
            "    def run(self, secret_bit):\n"
            "        if secret_bit:\n"
            "            self.machine.load(self.ctx, self.if_ip, self.t.line_addr(0))\n"
            "            return 1\n"
            "        else:\n"
            "            self.machine.load(self.ctx, self.else_ip, self.t.line_addr(1))\n"
            "            return 0\n"
        )
        rewrite = extraction.spec.oblivious()
        assert rewrite is not None, extraction.oblivious_note
        assert len(rewrite.trace(0)) == 2
        assert analyze(extraction.spec, defense="oblivious").verdict == "safe"

    def test_untaken_arm_in_place_mutation_is_discarded(self):
        # The sandbox snapshot used to be shallow: the untaken arm's
        # subscript store on a concrete list survived the restore and
        # contaminated the rest of the oblivious trace.
        module = module_info(
            "class V:\n"
            "    def run(self, secret_bit):\n"
            "        acc = [1]\n"
            "        if secret_bit:\n"
            "            acc[0] = 5\n"
            "        self.machine.load(self.ctx, self.ip, self.t.line_addr(acc[0]))\n",
            "victim.py",
        )
        candidate = candidates(module)[0]
        interp = Interpreter(
            module,
            candidate.func,
            secret_param=candidate.secret_param,
            mode="oblivious",
        )
        offsets = [load.offset for load in interp.run(0).loads]
        assert offsets == [64]  # acc[0] is still 1 after the sandboxed arm

    def test_lost_taint_downgrades_the_rewrite(self):
        # sum() drops element shadows, so the swept-address synthesis
        # misses this load; the closure diff must refuse to claim "safe
        # under oblivious" instead of shipping a false verdict.
        extraction = compile_one(
            "class V:\n"
            "    def pick(self, secret):\n"
            "        parts = [secret & 1, (secret >> 1) & 1]\n"
            "        idx = sum(parts)\n"
            "        vaddr = self.t.line_addr(idx)\n"
            "        return self.machine.load(self.ctx, self.ip, vaddr)\n"
        )
        assert extraction.error is None
        assert extraction.spec.oblivious_fn is None
        assert "diverges" in extraction.oblivious_note
        assert analyze(extraction.spec, defense="none").verdict == "leaky"

    def test_secret_chosen_config_ip_collapses_to_one_site(self):
        # The kernel-switch pattern: the IP itself is picked by the
        # secret.  The rewrite models a secret-independent instruction
        # choice (one canonical site), mirroring the hand-written
        # all-arms oblivious specs.
        extraction = compile_one(
            "class V:\n"
            "    def read(self, secret):\n"
            "        slot = secret % 4\n"
            "        vaddr = self.values.line_addr(slot)\n"
            "        self.machine.load(self.ctx, self.case_ips[slot], vaddr)\n"
        )
        rewrite = extraction.spec.oblivious()
        assert rewrite is not None, extraction.oblivious_note
        assert rewrite.trace(0) == rewrite.trace(3)
        assert analyze(extraction.spec, defense="oblivious").verdict == "safe"


# --------------------------------------------------------------------- #
# scan + CLI                                                             #
# --------------------------------------------------------------------- #


class TestScan:
    def test_fixture_positive_control(self):
        result = scan_paths([FIXTURE_PATH])
        codes = [finding.code for finding in result.findings]
        assert "EX001" in codes
        assert result.exit_code == 1
        assert result.pure == 1  # fold_bits has no loads
        ex001 = next(f for f in result.findings if f.code == "EX001")
        assert ex001.qualname == "PlantedGadgetFixture.lookup"

    def test_fixture_safe_under_every_static_defense(self):
        result = scan_paths([FIXTURE_PATH])
        row = next(
            v for v in result.victims if v.qualname == "PlantedGadgetFixture.lookup"
        )
        assert row.verdicts["none"] == "leaky"
        assert row.verdicts["tagged"] == "safe"
        assert row.verdicts["flush-on-switch"] == "safe"
        assert row.verdicts["oblivious"] == "safe"

    def test_json_payload_shape(self):
        result = scan_paths([FIXTURE_PATH])
        payload = json.loads(render_scan_json(result))
        assert payload["schema_version"] >= 2
        assert payload["mode"] == "extract-scan"
        assert payload["summary"]["leaky"] == 1
        assert set(payload["codes"]) == set(EXTRACT_CODES)
        assert payload["timings"]  # per-victim timings present

    def test_text_render_mentions_slowest_victim(self):
        result = scan_paths([FIXTURE_PATH])
        text = render_scan_text(result)
        assert "slowest victim:" in text
        assert "EX001" in text

    def test_analysis_errors_fold_into_ex003(self, monkeypatch):
        # A spec that compiles but blows up inside analyze() must become
        # a per-candidate EX003 finding, not abort (or silently pass) the
        # whole scan run.
        import repro.leakcheck.extract.scan as scan_module

        def explode(spec, defense="none"):
            raise ValueError("offset 0x1000 outside region 'table'")

        monkeypatch.setattr(scan_module, "analyze", explode)
        result = scan_paths([FIXTURE_PATH])
        assert result.exit_code == 0  # no verified EX001, no crash
        assert result.compiled == 0
        assert result.failed == 1
        assert any(
            finding.code == "EX003"
            and "analysis of the extracted spec failed" in finding.message
            for finding in result.findings
        )

    def test_scan_finds_repo_gadgets(self):
        result = scan_paths(["src/repro/core/variant1.py", "src/repro/crypto/rsa.py"])
        leaky = {f.qualname for f in result.findings if f.code == "EX001"}
        assert "BranchLoadVictim.run" in leaky
        assert "MontgomeryLadderVictim._consume_bit" in leaky
        # super() in the timing-constant override is a documented EX003.
        ex003 = {f.qualname for f in result.findings if f.code == "EX003"}
        assert "TimingConstantLadderVictim._consume_bit" in ex003


class TestCli:
    def test_extract_exit_code_and_text(self, capsys):
        rc = leakcheck_main(["--extract", FIXTURE_PATH])
        out = capsys.readouterr().out
        assert rc == 1
        assert "EX001" in out

    def test_scan_json_mode(self, capsys):
        rc = leakcheck_main(["--scan", FIXTURE_PATH, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["summary"]["candidates"] == 2

    def test_victims_and_scan_are_exclusive(self, capsys):
        rc = leakcheck_main(["branch-load", "--scan", FIXTURE_PATH])
        assert rc == 2

    def test_internal_scan_crash_exits_3(self, capsys, monkeypatch):
        # Exit 3, not 1: the Makefile/CI gates tolerate 1 ("gadgets
        # found"), so a crashed scan must not alias that code.
        import repro.leakcheck.cli as cli_module

        def explode(paths):
            raise RuntimeError("synthetic scan crash")

        monkeypatch.setattr(cli_module, "scan_paths", explode)
        rc = leakcheck_main(["--scan", FIXTURE_PATH])
        err = capsys.readouterr().err
        assert rc == 3
        assert "internal error" in err
        assert "synthetic scan crash" in err

    def test_registry_mode_reports_timings(self, capsys):
        rc = leakcheck_main(["branch-load", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["schema_version"] >= 2
        assert "branch-load" in payload["timings"]

    def test_registry_text_mode_names_slowest_victim(self, capsys):
        leakcheck_main(["branch-load", "oblivious-branch"])
        out = capsys.readouterr().out
        assert "slowest victim:" in out


def test_compile_path_matches_compile_source():
    by_path = compile_path(FIXTURE_PATH)
    with open(FIXTURE_PATH, encoding="utf-8") as handle:
        by_source = compile_source(handle.read(), FIXTURE_PATH)
    assert [e.qualname for e in by_path] == [e.qualname for e in by_source]


def test_compile_candidate_reports_position():
    module = module_info(
        "class V:\n    def run(self, secret):\n        pass\n", "victim.py"
    )
    candidate = candidates(module)[0]
    assert isinstance(candidate, Candidate)
    extraction = compile_candidate(module, candidate)
    assert extraction.path == "victim.py"
    assert extraction.line == 2
    assert extraction.secret_param == "secret"
