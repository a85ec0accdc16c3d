"""Fixture tests for every repro.lint rule.

Each rule gets at least one *bad* snippet that must produce its finding and
one *good* snippet that must stay clean, exercised through the public
``lint_source`` API, plus JSON-rendering assertions, suppression handling,
and path-scoping checks.
"""

import json

import pytest

from repro.lint import ALL_RULES, lint_paths, lint_source, main, render_json
from repro.lint.engine import SYNTAX_RULE_ID

#: A path inside the model packages, where every rule applies.
MODEL_PATH = "src/repro/prefetch/example.py"
#: A path outside the model/core packages (analysis helpers etc.).
UTIL_PATH = "src/repro/analysis/example.py"
#: A test path (exempt from the magic-number rule).
TEST_PATH = "tests/test_example.py"


def rule_ids(findings):
    return [finding.rule for finding in findings]


def lint(source, path=MODEL_PATH):
    return lint_source(source, path)


# --------------------------------------------------------------------- #
# RL001 — stdlib random                                                  #
# --------------------------------------------------------------------- #


class TestStdlibRandom:
    def test_import_flagged(self):
        assert "RL001" in rule_ids(lint("import random\n"))

    def test_from_import_flagged(self):
        assert "RL001" in rule_ids(lint("from random import choice\n"))

    def test_seeded_numpy_clean(self):
        source = "from repro.utils.rng import make_rng\nrng = make_rng(7)\n"
        assert lint(source) == []


# --------------------------------------------------------------------- #
# RL002 — direct numpy RNG construction                                  #
# --------------------------------------------------------------------- #


class TestNumpyRng:
    def test_default_rng_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng(3)\n"
        assert "RL002" in rule_ids(lint(source))

    def test_legacy_seed_flagged(self):
        source = "import numpy as np\nnp.random.seed(3)\n"
        assert "RL002" in rule_ids(lint(source))

    def test_from_import_flagged(self):
        source = "from numpy.random import default_rng\n"
        assert "RL002" in rule_ids(lint(source))

    def test_make_rng_clean(self):
        source = "from repro.utils.rng import make_rng\nrng = make_rng(3)\n"
        assert lint(source) == []


# --------------------------------------------------------------------- #
# RL003 — wall-clock calls                                               #
# --------------------------------------------------------------------- #


class TestWallClock:
    @pytest.mark.parametrize(
        "call",
        ["time.time()", "time.perf_counter()", "time.monotonic_ns()", "time.process_time()"],
    )
    def test_time_calls_flagged(self, call):
        source = f"import time\nt = {call}\n"
        assert "RL003" in rule_ids(lint(source))

    def test_datetime_now_flagged(self):
        source = "import datetime\nnow = datetime.datetime.now()\n"
        assert "RL003" in rule_ids(lint(source))

    def test_from_time_import_flagged(self):
        assert "RL003" in rule_ids(lint("from time import perf_counter\n"))

    def test_time_sleep_clean(self):
        # Only clock *reads* are banned; the module itself is fine.
        assert lint("import time\n") == []


# --------------------------------------------------------------------- #
# RL004 — float equality                                                 #
# --------------------------------------------------------------------- #


class TestFloatEquality:
    def test_equality_flagged(self):
        source = "def f(latency):\n    return latency == 120.0\n"
        assert "RL004" in rule_ids(lint(source))

    def test_inequality_flagged(self):
        source = "def f(x):\n    return x != 0.5\n"
        assert "RL004" in rule_ids(lint(source))

    def test_assert_exempt(self):
        # Asserting an exactly-configured value is the test's point.
        assert lint("assert compute() == 9.0\n") == []

    def test_ordering_clean(self):
        assert lint("def f(x):\n    return x < 120.0\n") == []


# --------------------------------------------------------------------- #
# RL005 — cross-component private mutation                               #
# --------------------------------------------------------------------- #


class TestPrivateMutation:
    def test_foreign_store_flagged(self):
        source = "def f(tlb):\n    tlb._entries = {}\n"
        assert "RL005" in rule_ids(lint(source))

    def test_foreign_augassign_flagged(self):
        source = "def f(pf):\n    pf._occupancy += 1\n"
        assert "RL005" in rule_ids(lint(source))

    def test_foreign_subscript_flagged(self):
        source = "def f(pf):\n    pf._slots[0] = None\n"
        assert "RL005" in rule_ids(lint(source))

    def test_foreign_mutator_call_flagged(self):
        source = "def f(tlb):\n    tlb._order.append((0, 0))\n"
        assert "RL005" in rule_ids(lint(source))

    def test_self_mutation_clean(self):
        source = "class C:\n    def f(self):\n        self._state = 1\n"
        assert lint(source) == []

    def test_foreign_read_clean(self):
        source = "def f(pf):\n    return len(pf._slots)\n"
        assert lint(source) == []


# --------------------------------------------------------------------- #
# RL006 — magic paper constants                                          #
# --------------------------------------------------------------------- #


class TestMagicNumber:
    def test_page_size_flagged_anywhere(self):
        source = "def f(addr):\n    return addr // 4096\n"
        assert "RL006" in rule_ids(lint(source, path=UTIL_PATH))

    def test_stride_cap_flagged(self):
        source = "def f(stride):\n    return abs(stride) > 2048\n"
        assert "RL006" in rule_ids(lint(source, path=UTIL_PATH))

    def test_n_entries_flagged_in_core_packages(self):
        source = "def f():\n    return list(range(24))\n"
        assert "RL006" in rule_ids(lint(source, path=MODEL_PATH))

    def test_n_entries_clean_outside_core_packages(self):
        # 24 is too common a number to ban repo-wide (indices, sizes...).
        source = "def f():\n    return list(range(24))\n"
        assert lint(source, path=UTIL_PATH) == []

    def test_tests_exempt(self):
        source = "def f(addr):\n    return addr // 4096\n"
        assert lint(source, path=TEST_PATH) == []

    def test_assert_exempt(self):
        assert lint("assert size == 4096\n", path=UTIL_PATH) == []

    def test_hex_spelling_exempt(self):
        # 0x40 is deliberate address arithmetic, not CACHE_LINE_SIZE.
        source = "def f(ip):\n    return ip + 0x40\n"
        assert lint(source, path=MODEL_PATH) == []

    def test_named_constant_definition_exempt(self):
        assert lint("PAGE_SIZE = 4096\n", path=UTIL_PATH) == []


# --------------------------------------------------------------------- #
# RL007 — dataclass slots hygiene                                        #
# --------------------------------------------------------------------- #


class TestSlots:
    BAD = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class LoadEvent:\n"
        "    ip: int\n"
    )
    GOOD = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True, slots=True)\n"
        "class LoadEvent:\n"
        "    ip: int\n"
    )

    def test_missing_slots_flagged_in_model_code(self):
        assert "RL007" in rule_ids(lint(self.BAD, path=MODEL_PATH))

    def test_slots_true_clean(self):
        assert lint(self.GOOD, path=MODEL_PATH) == []

    def test_rule_scoped_to_model_packages(self):
        assert lint(self.BAD, path=UTIL_PATH) == []


# --------------------------------------------------------------------- #
# RL008 — builtin hash on the seed path                                  #
# --------------------------------------------------------------------- #


class TestUnstableHash:
    def test_hash_call_flagged(self):
        source = "def f(seed, name):\n    return seed ^ hash(name)\n"
        assert "RL008" in rule_ids(lint(source))

    def test_stable_seed_clean(self):
        source = (
            "from repro.utils.rng import stable_seed\n"
            "def f(seed, name):\n"
            "    return seed ^ stable_seed(name)\n"
        )
        assert lint(source) == []


# --------------------------------------------------------------------- #
# RL009 — mutable default arguments                                      #
# --------------------------------------------------------------------- #


class TestMutableDefault:
    def test_list_literal_flagged(self):
        source = "def f(xs=[]):\n    return xs\n"
        assert "RL009" in rule_ids(lint(source))

    def test_dict_literal_flagged(self):
        source = "def f(table={}):\n    return table\n"
        assert "RL009" in rule_ids(lint(source))

    def test_constructor_call_flagged(self):
        source = "def f(xs=list()):\n    return xs\n"
        assert "RL009" in rule_ids(lint(source))

    def test_kwonly_default_flagged(self):
        source = "def f(*, xs=set()):\n    return xs\n"
        assert "RL009" in rule_ids(lint(source))

    def test_lambda_default_flagged(self):
        source = "g = lambda xs=[]: xs\n"
        assert "RL009" in rule_ids(lint(source))

    def test_comprehension_default_flagged(self):
        source = "def f(xs=[i for i in range(3)]):\n    return xs\n"
        assert "RL009" in rule_ids(lint(source))

    def test_none_sentinel_clean(self):
        source = (
            "def f(xs=None):\n"
            "    if xs is None:\n"
            "        xs = []\n"
            "    return xs\n"
        )
        assert lint(source) == []

    def test_immutable_defaults_clean(self):
        source = "def f(xs=(), name='x', n=0, mask=frozenset()):\n    return xs\n"
        assert lint(source) == []

    def test_flagged_in_tests_too(self):
        source = "def f(xs=[]):\n    return xs\n"
        assert "RL009" in rule_ids(lint(source, path=TEST_PATH))


# --------------------------------------------------------------------- #
# RL010 — assert used for input validation                               #
# --------------------------------------------------------------------- #


class TestAssertValidation:
    def test_assert_on_parameter_flagged(self):
        source = "def f(stride):\n    assert stride > 0\n    return stride\n"
        assert "RL010" in rule_ids(lint(source))

    def test_assert_on_kwonly_parameter_flagged(self):
        source = "def f(*, n_bits):\n    assert n_bits <= 8\n"
        assert "RL010" in rule_ids(lint(source))

    def test_message_names_parameter(self):
        findings = lint("def f(stride):\n    assert stride > 0\n")
        messages = [f.message for f in findings if f.rule == "RL010"]
        assert messages and "stride" in messages[0]

    def test_raise_clean(self):
        source = (
            "def f(stride):\n"
            "    if stride <= 0:\n"
            "        raise ValueError('stride must be positive')\n"
            "    return stride\n"
        )
        assert lint(source) == []

    def test_assert_on_local_clean(self):
        source = (
            "def f(label):\n"
            "    entry = lookup(label)\n"
            "    assert entry is not None\n"
            "    return entry\n"
        )
        assert lint(source) == []

    def test_assert_on_self_attribute_clean(self):
        source = (
            "class C:\n"
            "    def f(self):\n"
            "        assert self.ready\n"
        )
        assert lint(source) == []

    def test_module_level_assert_clean(self):
        assert lint("assert True\n") == []

    def test_exempt_in_tests(self):
        source = "def test_f(quiet_machine):\n    assert quiet_machine.cycles == 0\n"
        assert lint(source, path=TEST_PATH) == []

    def test_noqa_suppresses(self):
        source = "def f(stride):\n    assert stride > 0  # repro: noqa[RL010]\n"
        assert lint(source) == []


# --------------------------------------------------------------------- #
# Engine behaviour: suppression, syntax errors, JSON, CLI                #
# --------------------------------------------------------------------- #


class TestEngine:
    def test_noqa_bare_suppresses(self):
        source = "import random  # repro: noqa\n"
        assert lint(source) == []

    def test_noqa_with_matching_id_suppresses(self):
        source = "import random  # repro: noqa[RL001]\n"
        assert lint(source) == []

    def test_noqa_with_other_id_does_not_suppress(self):
        source = "import random  # repro: noqa[RL006]\n"
        assert "RL001" in rule_ids(lint(source))

    def test_syntax_error_reported_as_rl000(self):
        findings = lint("def broken(:\n")
        assert rule_ids(findings) == [SYNTAX_RULE_ID]

    def test_finding_has_location_and_hint(self):
        (finding,) = lint("import random\n")
        assert finding.line == 1
        assert finding.path == MODEL_PATH
        assert finding.hint

    def test_json_rendering_round_trips(self):
        findings = lint("import random\nimport numpy as np\nnp.random.default_rng(1)\n")
        payload = json.loads(render_json(findings, n_files=1))
        assert payload["files_checked"] == 1
        reported = {item["rule"] for item in payload["findings"]}
        assert {"RL001", "RL002"} <= reported
        catalogued = {item["id"] for item in payload["rules"]}
        assert catalogued == {rule.rule_id for rule in ALL_RULES}

    def test_at_least_six_distinct_rules(self):
        assert len({rule.rule_id for rule in ALL_RULES}) >= 6

    def test_lint_paths_on_fixture_tree(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "prefetch" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        (tmp_path / "src" / "repro" / "prefetch" / "good.py").write_text("x = 1\n")
        findings, n_files = lint_paths([tmp_path / "src"])
        assert n_files == 2
        assert rule_ids(findings) == ["RL001"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        assert main([str(tmp_path / "missing.py")]) == 2
        capsys.readouterr()

    def test_cli_select_restricts_rules(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main([str(dirty), "--select", "RL006"]) == 0
        assert main([str(dirty), "--select", "RL001"]) == 1
        capsys.readouterr()

    def test_cli_unknown_select_id_rejected(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main([str(dirty), "--select", "RL999"]) == 2
        assert "unknown rule id(s): RL999" in capsys.readouterr().err

    def test_cli_json_format(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main([str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "RL001"


# --------------------------------------------------------------------- #
# RL011 — print() in library code                                        #
# --------------------------------------------------------------------- #


class TestPrint:
    def test_print_in_library_flagged(self):
        assert "RL011" in rule_ids(lint("print('hello')\n"))

    def test_print_in_function_flagged(self):
        source = "def f():\n    print('debug')\n"
        assert "RL011" in rule_ids(lint(source, path=UTIL_PATH))

    def test_cli_module_exempt(self):
        assert lint("print('usage')\n", path="src/repro/lint/cli.py") == []

    def test_dunder_main_exempt(self):
        assert lint("print('usage')\n", path="src/repro/lint/__main__.py") == []

    def test_tests_exempt(self):
        assert lint("print('debug')\n", path=TEST_PATH) == []

    def test_outside_repro_package_exempt(self):
        assert lint("print('demo')\n", path="examples/quickstart.py") == []

    def test_method_named_print_not_flagged(self):
        assert lint("class R:\n    def go(self, out):\n        out.print('x')\n") == []

    def test_returning_string_clean(self):
        assert lint("def render():\n    return 'hello'\n") == []


# --------------------------------------------------------------------- #
# RL012 — unregistered attack class in repro/core                        #
# --------------------------------------------------------------------- #

CORE_PATH = "src/repro/core/example.py"


class TestUnregisteredAttack:
    def test_unregistered_run_round_flagged(self):
        source = "class NovelAttack:\n    def run_round(self):\n        pass\n"
        assert "RL012" in rule_ids(lint(source, path=CORE_PATH))

    def test_each_entry_point_method_flagged(self):
        for method in ("run_round", "transmit", "recover_key_bits", "track"):
            source = f"class NovelAttack:\n    def {method}(self):\n        pass\n"
            assert "RL012" in rule_ids(lint(source, path=CORE_PATH)), method

    def test_registered_class_clean(self):
        # Variant1CrossProcess is in the `covers` of the "variant1" spec.
        source = "class Variant1CrossProcess:\n    def run_round(self):\n        pass\n"
        assert lint(source, path=CORE_PATH) == []

    def test_private_class_exempt(self):
        source = "class _Helper:\n    def run_round(self):\n        pass\n"
        assert lint(source, path=CORE_PATH) == []

    def test_victim_run_method_exempt(self):
        source = "class SomeVictim:\n    def run(self, secret):\n        pass\n"
        assert lint(source, path=CORE_PATH) == []

    def test_outside_core_exempt(self):
        source = "class NovelAttack:\n    def run_round(self):\n        pass\n"
        assert lint(source, path=UTIL_PATH) == []

    def test_noqa_suppresses(self):
        source = (
            "class NovelAttack:  # repro: noqa[RL012] - registered next PR\n"
            "    def run_round(self):\n"
            "        pass\n"
        )
        assert lint(source, path=CORE_PATH) == []

    def test_core_tree_is_clean(self):
        # The real repro/core modules must all be covered by the registry.
        import pathlib

        core = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "core"
        for module in sorted(core.glob("*.py")):
            findings = lint_source(module.read_text(), f"src/repro/core/{module.name}")
            assert [f for f in findings if f.rule == "RL012"] == [], module.name
