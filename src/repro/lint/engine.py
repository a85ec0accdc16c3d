"""Lint driver: file discovery, AST contexts, suppression, rendering.

Every linted file gets one pass: its AST and its CFG/dataflow context
(:class:`~repro.lint.flow.FlowContext`) are built once, and every rule,
syntactic or flow, reads the same :class:`FileContext`.

The engine is deliberately dependency-free (stdlib ``ast`` only) so the
``lint`` extra installs nothing: the same container that runs the simulator
can gate its own CI.
"""

from __future__ import annotations

import ast
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter  # repro: noqa[RL003] — lint timing, not model code

from repro.lint.flow import DEAD_CODE_FILTERED_RULES, FlowContext
from repro.lint.rules import ALL_RULES, Rule

#: ``# repro: noqa`` or ``# repro: noqa[RL001]`` / ``[RL001, RL006]``.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")

#: Rule id used for files that fail to parse at all.
SYNTAX_RULE_ID = "RL000"


@dataclass(frozen=True, slots=True)
class Finding:
    """One lint finding, stable across text and JSON renderings."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message} [hint: {self.hint}]"


class FileContext:
    """Parsed source plus the helpers rules need (paths, parents, lines,
    and the file's CFG/dataflow state in ``flow``)."""

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        timings: dict[str, float] | None = None,
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        started = perf_counter()
        self.flow = FlowContext(tree)
        if timings is not None:
            timings["flow-build"] = timings.get("flow-build", 0.0) + (
                perf_counter() - started
            )
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def finding(self, rule: Rule, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule.rule_id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=rule.hint,
        )

    def suppressed(self, finding: Finding) -> bool:
        """True when the finding's line carries a matching noqa marker."""
        if not 1 <= finding.line <= len(self.lines):
            return False
        match = _NOQA_RE.search(self.lines[finding.line - 1])
        if match is None:
            return False
        listed = match.group(1)
        if listed is None:
            return True
        rule_ids = {rule_id.strip().upper() for rule_id in listed.split(",")}
        return finding.rule.upper() in rule_ids


def _make_rules(only: Iterable[str] | None = None) -> list[Rule]:
    selected = {rule_id.strip().upper() for rule_id in only} if only is not None else None
    if selected is not None:
        known = {rule_cls.rule_id for rule_cls in ALL_RULES}
        unknown = sorted(selected - known)
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(unknown)} (known: {', '.join(sorted(known))})"
            )
    rules = []
    for rule_cls in ALL_RULES:
        if selected is None or rule_cls.rule_id in selected:
            rules.append(rule_cls())
    return rules


def lint_source(
    source: str,
    path: str,
    rules: Sequence[Rule] | None = None,
    *,
    timings: dict[str, float] | None = None,
) -> list[Finding]:
    """Lint one source string presented as ``path`` (rules scope by path).

    A :class:`~repro.lint.flow.context.FlowContext` (CFGs + taint
    fixpoints) is built once for the file and shared by every rule;
    findings of the dead-code-filtered rules landing on CFG-unreachable
    lines are dropped.  ``timings``, when given, is updated in place with
    cumulative per-rule wall seconds (plus a ``"flow-build"`` entry for
    CFG/fixpoint construction).
    """
    normalized = Path(path).as_posix()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                rule=SYNTAX_RULE_ID,
                path=normalized,
                line=error.lineno or 1,
                col=error.offset or 0,
                message=f"file does not parse: {error.msg}",
                hint="fix the syntax error; nothing else was checked",
            )
        ]
    ctx = FileContext(normalized, source, tree, timings)
    findings: list[Finding] = []
    for rule in rules if rules is not None else _make_rules():
        if not rule.applies_to(ctx.path):
            continue
        started = perf_counter()
        raw = list(rule.check(ctx))
        if timings is not None:
            timings[rule.rule_id] = timings.get(rule.rule_id, 0.0) + (
                perf_counter() - started
            )
        for finding in raw:
            if ctx.suppressed(finding):
                continue
            if (
                finding.rule in DEAD_CODE_FILTERED_RULES
                and finding.line in ctx.flow.dead_lines
            ):
                continue  # the flagged call sits in a CFG-dead branch
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            yield path
        else:
            raise FileNotFoundError(f"no such python file or directory: {raw}")


def lint_paths(
    paths: Sequence[str | Path],
    only: Iterable[str] | None = None,
    *,
    timings: dict[str, float] | None = None,
) -> tuple[list[Finding], int]:
    """Lint files/trees; return (findings, files_checked)."""
    rules = _make_rules(only)
    findings: list[Finding] = []
    n_files = 0
    for file_path in iter_python_files(paths):
        n_files += 1
        findings.extend(
            lint_source(file_path.read_text(), str(file_path), rules, timings=timings)
        )
    return findings, n_files


def render_text(findings: Sequence[Finding], n_files: int) -> str:
    lines = [finding.render() for finding in findings]
    noun = "file" if n_files == 1 else "files"
    if findings:
        lines.append(f"{len(findings)} finding(s) in {n_files} {noun}")
    else:
        lines.append(f"clean: 0 findings in {n_files} {noun}")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    n_files: int,
    timings: dict[str, float] | None = None,
) -> str:
    payload = {
        "files_checked": n_files,
        "findings": [asdict(finding) for finding in findings],
        "rules": [rule_cls.describe() for rule_cls in ALL_RULES],
    }
    if timings is not None:
        payload["timings"] = {
            key: round(seconds, 6) for key, seconds in sorted(timings.items())
        }
    return json.dumps(payload, indent=2)

