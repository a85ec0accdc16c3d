"""Guard: every ``afterimage <word>`` the docs show names a real subcommand.

A retired subcommand that lingers in README.md, DESIGN.md, EXPERIMENTS.md,
``docs/*.md`` or the ``repro.cli`` docstring sends readers to a usage
error.  CHANGES.md is history, so it stays out.
"""

import argparse
import re
from pathlib import Path

import repro.cli
from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "DESIGN.md",
    REPO_ROOT / "EXPERIMENTS.md",
    *sorted((REPO_ROOT / "docs").glob("*.md")),
]

#: ``afterimage`` followed by a word: the subcommand a reader would type.
_COMMAND_RE = re.compile(r"\bafterimage ([a-z][a-z0-9-]*)")


def subcommands() -> set[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices)


def test_documented_commands_exist():
    known = subcommands()
    sources = {str(path.relative_to(REPO_ROOT)): path.read_text() for path in DOCS}
    sources["repro.cli docstring"] = repro.cli.__doc__ or ""
    stale = sorted(
        f"{where}: afterimage {word}"
        for where, text in sources.items()
        for word in _COMMAND_RE.findall(text)
        if word not in known
    )
    assert not stale, f"docs name subcommands build_parser() lacks: {stale}"
