"""Tests for the flow rules RL014–RL018 and the flow-aware upgrades.

Each fixture is a small program with a *known* dataflow fact — a taint
that must reach a sink, a worker that must reach a global — plus the
matching negative fixture where the flow is broken (rebinding, sorted(),
local shadowing) and no finding may fire.  A parametrized property test
then asserts every flow rule goes through the same noqa-suppression and
JSON-rendering machinery as the syntactic rules.
"""

import json

import pytest

from repro.lint.engine import Finding, lint_source, render_json

#: Non-test paths the flow rules' applies_to accepts.
ATTACKS_PATH = "src/repro/attacks/example.py"
CORE_PATH = "src/repro/core/example.py"
TEST_PATH = "tests/test_example.py"


def lint(source: str, path: str = ATTACKS_PATH):
    return lint_source(source, path)


def rule_ids(findings) -> list[str]:
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------- #
# RL014 — determinism taint into Trial/TrialBatch/trace payloads         #
# --------------------------------------------------------------------- #

#: The ISSUE's acceptance fixture: an unseeded-RNG draw flowing into a
#: Trial field through an intermediate variable.
UNSEEDED_RNG_INTO_TRIAL = '''
import numpy as np
from repro.attacks.trial import Trial

def run_one():
    rng = np.random.default_rng()  # repro: noqa[RL002]
    outcome = int(rng.integers(0, 2))
    return Trial(attack="covert", machine="i7", seed=1, params={},
                 duration_cycles=10, outcome={"bit": outcome})
'''


class TestDeterminismTrialTaint:
    def test_unseeded_rng_draw_reaching_trial_is_flagged(self):
        assert "RL014" in rule_ids(lint(UNSEEDED_RNG_INTO_TRIAL))

    def test_wallclock_through_arithmetic_into_trialbatch(self):
        source = (
            "import time\n"
            "def run():\n"
            "    t0 = time.time()  # repro: noqa[RL003]\n"
            "    elapsed = time.time() - t0  # repro: noqa[RL003]\n"
            "    return TrialBatch(trials=[], wall=elapsed)\n"
        )
        assert "RL014" in rule_ids(lint(source))

    def test_set_iteration_order_into_trace_emit(self):
        source = (
            "def emit_all(tracer, names):\n"
            "    order = list({n for n in names})\n"
            "    tracer.emit(order)\n"
        )
        assert "RL014" in rule_ids(lint(source))

    def test_tainted_field_published_through_the_kernel(self):
        source = (
            "import time\n"
            "def observe(kernel, index, slot):\n"
            "    stamp = int(time.perf_counter())  # repro: noqa[RL003]\n"
            "    kernel.publish(TableTransition, stamp, 'update', index, slot, None, None)\n"
        )
        findings = [f for f in lint(source) if f.rule == "RL014"]
        assert [f.line for f in findings] == [4]
        assert ".publish() argument 2" in findings[0].message

    def test_sorted_launders_set_order(self):
        source = (
            "def emit_all(tracer, names):\n"
            "    order = sorted({n for n in names})\n"
            "    tracer.emit(order)\n"
        )
        assert "RL014" not in rule_ids(lint(source))

    def test_rebinding_with_clean_value_clears_the_taint(self):
        source = (
            "import time\n"
            "def run():\n"
            "    v = time.time()  # repro: noqa[RL003]\n"
            "    v = 0\n"
            "    return Trial(attack='x', machine='m', seed=1, params={},\n"
            "                 duration_cycles=v, outcome={})\n"
        )
        assert "RL014" not in rule_ids(lint(source))

    def test_taint_inside_comprehension_building_trials(self):
        source = (
            "import numpy as np\n"
            "def run(n):\n"
            "    draws = np.random.default_rng().integers(0, 2, n)  # repro: noqa[RL002]\n"
            "    return [Trial(attack='x', machine='m', seed=1, params={},\n"
            "                  duration_cycles=1, outcome={'bit': d}) for d in draws]\n"
        )
        assert "RL014" in rule_ids(lint(source))

    def test_seeded_rng_is_clean(self):
        source = (
            "from repro.utils.rng import make_rng\n"
            "def run(seed):\n"
            "    rng = make_rng(seed)\n"
            "    return Trial(attack='x', machine='m', seed=seed, params={},\n"
            "                 duration_cycles=1, outcome={'bit': int(rng.integers(0, 2))})\n"
        )
        assert "RL014" not in rule_ids(lint(source))

    def test_rule_does_not_run_on_tests(self):
        assert "RL014" not in rule_ids(lint(UNSEEDED_RNG_INTO_TRIAL, path=TEST_PATH))


# --------------------------------------------------------------------- #
# RL015 — determinism taint into seed / content-hash inputs              #
# --------------------------------------------------------------------- #


class TestSeedTaint:
    def test_wallclock_into_make_rng(self):
        source = (
            "import time\n"
            "from repro.utils.rng import make_rng\n"
            "def go():\n"
            "    s = int(time.time())  # repro: noqa[RL003]\n"
            "    return make_rng(s)\n"
        )
        assert "RL015" in rule_ids(lint(source))

    def test_id_into_seed_keyword(self):
        source = (
            "def go(obj, machine):\n"
            "    return machine.reset(seed=id(obj))\n"
        )
        assert "RL015" in rule_ids(lint(source))

    def test_os_entropy_into_hashlib(self):
        source = (
            "import hashlib\n"
            "import os\n"
            "def key():\n"
            "    return hashlib.sha256(os.urandom(8)).hexdigest()\n"
        )
        assert "RL015" in rule_ids(lint(source))

    def test_declared_coordinates_are_clean(self):
        source = (
            "from repro.utils.rng import stable_seed\n"
            "def go(attack, machine):\n"
            "    return stable_seed(f'{attack}:{machine}')\n"
        )
        assert "RL015" not in rule_ids(lint(source))


# --------------------------------------------------------------------- #
# RL018 — spans and sinks must close on every path                       #
# --------------------------------------------------------------------- #


class TestSpanSinkPairing:
    def test_span_open_on_early_return_path_is_flagged(self):
        source = (
            "def run(tracer, fast):\n"
            "    tracer.emit(SpanBegin(cycle=0, name='train'))\n"
            "    if fast:\n"
            "        return 1\n"
            "    tracer.emit(SpanEnd(cycle=9, name='train', cycles=9))\n"
            "    return 0\n"
        )
        assert "RL018" in rule_ids(lint(source))

    def test_published_span_open_on_early_return_path_is_flagged(self):
        source = (
            "def run(kernel, fast):\n"
            "    kernel.publish(SpanBegin, 0, 'train')\n"
            "    if fast:\n"
            "        return 1\n"
            "    kernel.publish(SpanEnd, 9, 'train', 9)\n"
            "    return 0\n"
        )
        findings = [f for f in lint(source) if f.rule == "RL018"]
        assert [f.line for f in findings] == [2]

    def test_published_span_end_in_finally_discharges(self):
        source = (
            "def run(kernel, body):\n"
            "    kernel.publish(SpanBegin, 0, 'train')\n"
            "    try:\n"
            "        body()\n"
            "    finally:\n"
            "        kernel.publish(SpanEnd, 9, 'train', 9)\n"
        )
        assert "RL018" not in rule_ids(lint(source))

    def test_span_closed_on_every_path_is_clean(self):
        source = (
            "def run(tracer, fast):\n"
            "    tracer.emit(SpanBegin(cycle=0, name='train'))\n"
            "    if fast:\n"
            "        tracer.emit(SpanEnd(cycle=1, name='train', cycles=1))\n"
            "        return 1\n"
            "    tracer.emit(SpanEnd(cycle=9, name='train', cycles=9))\n"
            "    return 0\n"
        )
        assert "RL018" not in rule_ids(lint(source))

    def test_span_end_in_finally_discharges(self):
        source = (
            "def run(tracer, body):\n"
            "    tracer.emit(SpanBegin(cycle=0, name='train'))\n"
            "    try:\n"
            "        body()\n"
            "    finally:\n"
            "        tracer.emit(SpanEnd(cycle=9, name='train', cycles=9))\n"
        )
        assert "RL018" not in rule_ids(lint(source))

    def test_dynamic_span_end_name_closes_everything(self):
        source = (
            "def run(tracer, name):\n"
            "    tracer.emit(SpanBegin(cycle=0, name='train'))\n"
            "    tracer.emit(SpanEnd(cycle=1, name=name, cycles=1))\n"
        )
        assert "RL018" not in rule_ids(lint(source))

    def test_unclosed_sink_is_flagged(self):
        source = (
            "def dump(events, path):\n"
            "    sink = JsonlSink(path)\n"
            "    for event in events:\n"
            "        sink.emit(event)\n"
        )
        assert "RL018" in rule_ids(lint(source))

    def test_close_on_one_branch_only_is_flagged(self):
        source = (
            "def dump(path, ok):\n"
            "    sink = ChromeTraceSink(path)\n"
            "    if ok:\n"
            "        sink.close()\n"
        )
        assert "RL018" in rule_ids(lint(source))

    def test_with_managed_sink_is_clean(self):
        source = (
            "def dump(events, path):\n"
            "    sink = JsonlSink(path)\n"
            "    with sink:\n"
            "        for event in events:\n"
            "            sink.emit(event)\n"
        )
        assert "RL018" not in rule_ids(lint(source))

    def test_close_in_finally_discharges(self):
        source = (
            "def dump(events, path):\n"
            "    sink = JsonlSink(path)\n"
            "    try:\n"
            "        for event in events:\n"
            "            sink.emit(event)\n"
            "    finally:\n"
            "        sink.close()\n"
        )
        assert "RL018" not in rule_ids(lint(source))

    def test_returned_sink_transfers_the_obligation(self):
        source = (
            "def make_sink(path):\n"
            "    sink = JsonlSink(path)\n"
            "    return sink\n"
        )
        assert "RL018" not in rule_ids(lint(source))

    def test_handing_the_sink_to_a_call_transfers_ownership(self):
        source = (
            "def trace_machine(path, params):\n"
            "    sink = ChromeTraceSink(path)\n"
            "    tracer = Tracer(sinks=[sink])\n"
            "    return Machine(params, trace=tracer)\n"
        )
        assert "RL018" not in rule_ids(lint(source))

    def test_storing_the_sink_on_self_transfers_ownership(self):
        source = (
            "class Owner:\n"
            "    def open(self, path):\n"
            "        sink = JsonlSink(path)\n"
            "        self._sink = sink\n"
        )
        assert "RL018" not in rule_ids(lint(source))

    def test_profiler_span_halves_are_exempt(self):
        source = (
            "class Span:\n"
            "    def __enter__(self):\n"
            "        self.machine.kernel.publish(SpanBegin, 0, 'train')\n"
            "        return self\n"
            "    def __exit__(self, *exc):\n"
            "        self.machine.kernel.publish(SpanEnd, 1, 'train', 1)\n"
        )
        assert "RL018" not in rule_ids(lint(source, path="src/repro/obs/profiler.py"))

    def test_enter_exit_scopes_are_exempt(self):
        source = (
            "class Span:\n"
            "    def __enter__(self):\n"
            "        self.tracer.emit(SpanBegin(cycle=0, name='train'))\n"
            "        return self\n"
            "    def __exit__(self, *exc):\n"
            "        self.tracer.emit(SpanEnd(cycle=1, name='train', cycles=1))\n"
        )
        assert "RL018" not in rule_ids(lint(source))

    def test_test_paths_are_exempt(self):
        source = (
            "def dump(path):\n"
            "    sink = JsonlSink(path)\n"
        )
        assert "RL018" not in rule_ids(lint(source, path=TEST_PATH))


# --------------------------------------------------------------------- #
# Flow-aware upgrades of the syntactic rules                             #
# --------------------------------------------------------------------- #


class TestFlowAwareUpgrades:
    def test_rl003_alias_call_is_caught_with_flow(self):
        source = (
            "import time\n"
            "def f():\n"
            "    t = time.perf_counter\n"
            "    return t()\n"
        )
        assert "RL003" in rule_ids(lint(source, path=CORE_PATH))

    def test_rl008_alias_call_is_caught_with_flow(self):
        source = "def f(x):\n    h = hash\n    return h(x)\n"
        assert "RL008" in rule_ids(lint(source, path=CORE_PATH))

    def test_rl001_dynamic_import_is_caught_with_flow(self):
        source = "def f():\n    mod = __import__('random')\n    return mod.random()\n"
        assert "RL001" in rule_ids(lint(source, path=CORE_PATH))

    def test_dead_branch_finding_is_filtered_with_flow(self):
        source = (
            "import time\n"
            "def f():\n"
            "    if False:\n"
            "        return time.time()\n"
            "    return 0\n"
        )
        assert "RL003" not in rule_ids(lint(source, path=CORE_PATH))

    def test_code_after_return_is_filtered_with_flow(self):
        source = (
            "def f(x):\n"
            "    return x\n"
            "    return hash(x)\n"
        )
        assert "RL008" not in rule_ids(lint(source, path=CORE_PATH))

    def test_live_findings_survive_the_filter(self):
        source = "def f(x):\n    return hash(x)\n"
        assert "RL008" in rule_ids(lint(source, path=CORE_PATH))


# --------------------------------------------------------------------- #
# Property: flow findings ride the same noqa/JSON machinery              #
# --------------------------------------------------------------------- #

#: (rule id, fixture, 0-based index of the line the finding lands on).
FLOW_FIXTURES = [
    (
        "RL014",
        "import time\n"
        "def run():\n"
        "    v = time.time()  # repro: noqa[RL003]\n"
        "    return Trial(attack='x', machine='m', seed=1, params={},\n"
        "                 duration_cycles=v, outcome={})\n",
        3,
    ),
    (
        "RL015",
        "import time\n"
        "from repro.utils.rng import make_rng\n"
        "def go():\n"
        "    s = time.time()  # repro: noqa[RL003]\n"
        "    return make_rng(int(s))\n",
        4,
    ),
    (
        "RL018",
        "def run(tracer, fast):\n"
        "    tracer.emit(SpanBegin(cycle=0, name='train'))\n"
        "    if fast:\n"
        "        return 1\n"
        "    tracer.emit(SpanEnd(cycle=9, name='train', cycles=9))\n"
        "    return 0\n",
        1,
    ),
]


@pytest.mark.parametrize("rule_id,source,flagged_line", FLOW_FIXTURES, ids=lambda v: v if isinstance(v, str) and v.startswith("RL") else "")
class TestFlowFindingsAreFirstClass:
    def find(self, source):
        return [f for f in lint(source) if f.rule in {r for r, _s, _l in FLOW_FIXTURES}]

    def test_fixture_fires(self, rule_id, source, flagged_line):
        findings = [f for f in lint(source) if f.rule == rule_id]
        assert findings, f"{rule_id} fixture did not fire"
        assert findings[0].line == flagged_line + 1

    def test_targeted_noqa_suppresses(self, rule_id, source, flagged_line):
        lines = source.splitlines()
        lines[flagged_line] += f"  # repro: noqa[{rule_id}]"
        assert rule_id not in rule_ids(lint("\n".join(lines) + "\n"))

    def test_bare_noqa_suppresses(self, rule_id, source, flagged_line):
        lines = source.splitlines()
        # The fixture line may already carry a targeted noqa; replace it.
        base = lines[flagged_line].split("#")[0].rstrip()
        lines[flagged_line] = base + "  # repro: noqa"
        assert rule_id not in rule_ids(lint("\n".join(lines) + "\n"))

    def test_unrelated_noqa_does_not_suppress(self, rule_id, source, flagged_line):
        lines = source.splitlines()
        base = lines[flagged_line].split("#")[0].rstrip()
        lines[flagged_line] = base + "  # repro: noqa[RL999]"
        assert rule_id in rule_ids(lint("\n".join(lines) + "\n"))

    def test_json_rendering_round_trips(self, rule_id, source, flagged_line):
        findings = [f for f in lint(source) if f.rule == rule_id]
        payload = json.loads(render_json(findings, 1))
        [rendered] = payload["findings"]
        assert rendered["rule"] == rule_id
        assert rendered["line"] == flagged_line + 1
        assert rendered["path"] == ATTACKS_PATH
        assert {"col", "message", "hint"} <= set(rendered)
        # The rule itself appears in the catalogue section.
        assert rule_id in {entry["id"] for entry in payload["rules"]}

    def test_select_isolates_the_rule(self, rule_id, source, flagged_line):
        from repro.lint.engine import _make_rules

        findings = lint_source(source, ATTACKS_PATH, _make_rules([rule_id]))
        assert rule_ids(findings) == [rule_id] * len(findings) and findings


# --------------------------------------------------------------------- #
# --changed: lint only files changed vs HEAD                             #
# --------------------------------------------------------------------- #


class TestChangedFlag:
    @pytest.fixture()
    def scratch_repo(self, tmp_path, monkeypatch):
        import subprocess

        def git(*argv):
            subprocess.run(
                ["git", "-C", str(tmp_path), *argv],
                check=True,
                capture_output=True,
            )

        git("init", "-q")
        git("config", "user.email", "lint@test")
        git("config", "user.name", "lint test")
        src = tmp_path / "src"
        src.mkdir()
        (src / "clean.py").write_text("X = 1\n")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_no_changes_exits_clean_with_zero_files(self, scratch_repo, capsys):
        from repro.lint.cli import main

        assert main(["src", "--changed"]) == 0
        assert "0 files" in capsys.readouterr().out

    def test_modified_file_is_linted(self, scratch_repo, capsys):
        from repro.lint.cli import main

        (scratch_repo / "src" / "clean.py").write_text("import random\n")
        assert main(["src", "--changed"]) == 1
        assert "RL001" in capsys.readouterr().out

    def test_untracked_file_is_linted(self, scratch_repo, capsys):
        from repro.lint.cli import main

        (scratch_repo / "src" / "fresh.py").write_text("def f(x):\n    return hash(x)\n")
        assert main(["src", "--changed"]) == 1
        assert "RL008" in capsys.readouterr().out

    def test_changes_outside_requested_paths_are_ignored(self, scratch_repo, capsys):
        from repro.lint.cli import main

        (scratch_repo / "elsewhere.py").write_text("import random\n")
        assert main(["src", "--changed"]) == 0

    def test_outside_a_repo_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        from repro.lint.cli import main

        empty = tmp_path / "not-a-repo"
        empty.mkdir()
        monkeypatch.chdir(empty)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        assert main([".", "--changed"]) == 2
        assert "git" in capsys.readouterr().err


def test_timings_cover_every_selected_rule():
    timings: dict = {}
    lint_source("x = 1\n", ATTACKS_PATH, timings=timings)
    from repro.lint.rules import ALL_RULES

    applicable = {
        cls.rule_id for cls in ALL_RULES if cls().applies_to(ATTACKS_PATH)
    }
    assert applicable <= set(timings)
    assert "flow-build" in timings


# --------------------------------------------------------------------- #
# One finding per call: the alias scan and the syntactic check           #
# --------------------------------------------------------------------- #


class TestFlowSyntacticDedup:
    #: ``hash`` rebound to the builtin then called: the call is spelled
    #: ``hash(...)``, so only the syntactic RL008 check reports it.
    SHADOWED_HASH = "def f(x):\n    hash = hash\n    return hash(x)\n"

    def test_overlap_is_reported_once(self):
        findings = lint(self.SHADOWED_HASH, path=CORE_PATH)
        assert [(f.rule, f.line) for f in findings if f.rule == "RL008"] == [
            ("RL008", 3)
        ]

    def test_distinct_lines_are_not_collapsed(self):
        source = (
            "def f(x):\n"
            "    h = hash\n"
            "    y = h(x)\n"
            "    return hash(x)\n"
        )
        findings = [f for f in lint(source, path=CORE_PATH) if f.rule == "RL008"]
        assert sorted(f.line for f in findings) == [3, 4]


def test_cli_and_library_report_the_same_findings(tmp_path, capsys):
    """``python -m repro.lint`` and :func:`lint_paths` run one pass: the
    flow rule fires and the dead-branch call is dropped on both."""
    from repro.lint import lint_paths
    from repro.lint.cli import main

    path = tmp_path / "src" / "repro" / "attacks" / "example.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        UNSEEDED_RNG_INTO_TRIAL
        + "\n"
        "import time  # repro: noqa[RL003]\n"
        "def never():\n"
        "    if False:\n"
        "        return time.time()\n"
        "    return 0\n"
    )
    findings, n_files = lint_paths([path])
    assert n_files == 1
    assert [f.rule for f in findings] == ["RL014"]

    assert main([str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [Finding(**entry) for entry in payload["findings"]] == findings
