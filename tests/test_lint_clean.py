"""Guard: the repository's own tree must lint clean.

This is the pytest-side equivalent of running ``python -m repro.lint`` in
CI — any convention regression (an unseeded RNG, a re-typed paper
constant, a slotless hot dataclass...) fails tier-1 immediately, with the
offending findings in the assertion message.
"""

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every tree the repo ships; examples/ rides along because its snippets
#: get copy-pasted into experiments.
LINTED_TREES = ("src", "tests", "benchmarks", "examples")


def test_repository_lints_clean():
    paths = [REPO_ROOT / tree for tree in LINTED_TREES if (REPO_ROOT / tree).is_dir()]
    # The tree must pass every rule, the CFG/dataflow ones (RL014, RL015,
    # RL018 and the alias-aware RL001/RL003/RL008 upgrades) included.
    findings, n_files = lint_paths(paths)
    assert n_files > 100, f"lint walked only {n_files} files — wrong repo root?"
    rendered = "\n".join(finding.render() for finding in findings)
    assert not findings, f"repro.lint found violations:\n{rendered}"
