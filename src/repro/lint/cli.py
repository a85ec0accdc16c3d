"""Command-line front end for the lint pass.

Split from :mod:`repro.lint.engine` so the engine stays a pure library —
RL011 (no ``print()`` in library code) applies to the engine itself; all
terminal output lives here, in a ``cli.py`` the rule exempts.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.lint.engine import lint_paths, render_json, render_text
from repro.lint.rules import ALL_RULES


def changed_files(paths: Sequence[str]) -> list[str]:
    """Python files changed vs HEAD (tracked diff + untracked), restricted
    to the requested ``paths``.

    Raises ``RuntimeError`` when git is unavailable or the tree is not a
    repository — callers map that to the usage exit code.
    """
    commands = (
        ["git", "rev-parse", "--show-toplevel"],
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    outputs: list[list[str]] = []
    for command in commands:
        try:
            result = subprocess.run(
                command, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError) as error:
            raise RuntimeError(f"--changed needs a git checkout: {error}") from error
        outputs.append([line.strip() for line in result.stdout.splitlines() if line.strip()])
    # git reports paths relative to the repo root, not the cwd.
    repo_root = Path(outputs[0][0])
    names = outputs[1] + outputs[2]
    roots = [Path(p).resolve() for p in paths]
    selected: list[str] = []
    for name in sorted(set(names)):
        path = repo_root / name
        if path.suffix != ".py" or not path.is_file():
            continue
        resolved = path.resolve()
        if any(resolved == root or root in resolved.parents for root in roots):
            selected.append(str(path))
    return selected


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.lint`` / ``afterimage lint``."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Static-analysis pass enforcing this repo's modelling conventions.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--select",
        metavar="RLxxx[,RLxxx...]",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed vs HEAD (git diff + untracked), "
        "restricted to the given paths",
    )
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_cls in ALL_RULES:
            print(f"{rule_cls.rule_id}  {rule_cls.title}")
        return 0

    paths = list(args.paths)
    if args.changed:
        try:
            paths = changed_files(paths)
        except RuntimeError as error:
            print(f"repro.lint: {error}", file=sys.stderr)
            return 2
        if not paths:
            print(render_text([], 0))
            return 0

    only = args.select.split(",") if args.select else None
    timings: dict[str, float] = {}
    try:
        findings, n_files = lint_paths(paths, only=only, timings=timings)
    except (FileNotFoundError, ValueError) as error:
        print(f"repro.lint: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings, n_files, timings=timings))
    else:
        print(render_text(findings, n_files))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
