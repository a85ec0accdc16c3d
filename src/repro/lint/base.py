"""Shared lint primitives: the Rule base class and path/AST helpers.

This module exists so both rule families can import the same base
without a cycle: the syntactic rules (:mod:`repro.lint.rules`) and the
flow rules (:mod:`repro.lint.flow.rules`) depend on it, and
``repro.lint.rules`` then aggregates both into ``ALL_RULES``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import FileContext, Finding

#: Packages holding per-cycle model state (the sanitizer's subjects).
MODEL_PACKAGES = ("repro/prefetch", "repro/memsys", "repro/mmu", "repro/cpu")

#: Packages where even the small paper constants (24 entries, 64-byte
#: lines) are load-bearing and must come from :mod:`repro.params`.
CORE_MODEL_PACKAGES = MODEL_PACKAGES + ("repro/channels", "repro/revng")

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {"append", "add", "clear", "discard", "extend", "insert", "pop", "popitem",
     "remove", "setdefault", "sort", "update", "reverse"}
)


def _in_package(path: str, package: str) -> bool:
    return f"/{package}/" in path or path.startswith(f"{package}/")


def _in_any_package(path: str, packages: tuple[str, ...]) -> bool:
    return any(_in_package(path, package) for package in packages)


def _is_test_path(path: str) -> bool:
    return "tests" in path.split("/")[:-1]


def _dotted(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


class Rule:
    """One lint rule.  Subclasses set the class attributes and ``check``."""

    rule_id: ClassVar[str]
    title: ClassVar[str]
    hint: ClassVar[str]

    def applies_to(self, path: str) -> bool:
        """Whether the rule runs on ``path`` (posix-style, repo-relative)."""
        return True

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> dict[str, str]:
        return {"id": cls.rule_id, "title": cls.title, "hint": cls.hint}
