"""Per-file flow state shared by every flow rule.

Building CFGs and running taint fixpoints is the expensive part of the
flow pass, so it happens once per file: the engine attaches a
:class:`FlowContext` to the :class:`~repro.lint.engine.FileContext` and
every rule reads from it.  A :class:`Scope` is one CFG-owning body —
the module, a class body, or a function — with its taint fixpoint
computed lazily and cached.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.flow.cfg import CFG, build_cfg, unreachable_lines
from repro.lint.flow.solver import solve_forward
from repro.lint.flow.taint import (
    KIND_ALIAS_HASH,
    KIND_ALIAS_WALLCLOCK,
    Env,
    TaintAnalysis,
    taint_of,
    _comp_target_names,
)

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Scope:
    """One CFG-owning body: module, class body, or function."""

    def __init__(self, kind: str, name: str, node: ast.AST, body: list[ast.stmt]) -> None:
        self.kind = kind
        self.name = name
        self.node = node
        self.cfg: CFG = build_cfg(body)
        self._items_with_env: list[tuple[ast.AST, Env]] | None = None

    def items_with_env(self) -> list[tuple[ast.AST, Env]]:
        """Every reachable item paired with the taint env *before* it."""
        if self._items_with_env is None:
            analysis = TaintAnalysis()
            in_facts, _out = solve_forward(self.cfg, analysis)
            pairs: list[tuple[ast.AST, Env]] = []
            for block in self.cfg.blocks:
                if not block.reachable:
                    continue
                env = in_facts[block.index]
                for item in block.items:
                    pairs.append((item, env))
                    env = analysis.transfer_item(item, env)
            self._items_with_env = pairs
        return self._items_with_env


def iter_calls_with_env(item: ast.AST, env: Env) -> Iterator[tuple[ast.Call, Env]]:
    """Call sites inside one item, each with the env its args see.

    Walks the item's *expressions* only — nested ``def``/``class`` bodies
    belong to their own scopes, lambda bodies run later under a different
    env, and comprehension bodies get the env extended with the
    comprehension targets bound to the taint of their iterables (so a
    ``Trial(...)`` built inside a list comprehension still sees the taint
    of the list being iterated).
    """
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
        roots: list[ast.expr] = list(item.decorator_list)
        roots.extend(d for d in item.args.defaults)
        roots.extend(d for d in item.args.kw_defaults if d is not None)
    elif isinstance(item, ast.ClassDef):
        roots = list(item.decorator_list) + list(item.bases) + [
            keyword.value for keyword in item.keywords
        ]
    elif isinstance(item, (ast.For, ast.AsyncFor)):
        roots = [item.iter]
    elif isinstance(item, (ast.With, ast.AsyncWith)):
        roots = [with_item.context_expr for with_item in item.items]
    elif isinstance(item, ast.ExceptHandler):
        roots = [item.type] if item.type is not None else []
    elif isinstance(item, ast.expr):
        roots = [item]
    elif isinstance(item, ast.stmt):
        roots = [child for child in ast.iter_child_nodes(item) if isinstance(child, ast.expr)]
    else:
        roots = []
    for root in roots:
        yield from _walk_expr(root, env)


def _walk_expr(node: ast.expr, env: Env) -> Iterator[tuple[ast.Call, Env]]:
    if isinstance(node, ast.Lambda):
        return
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)):
        inner = dict(env)
        for generator in node.generators:
            yield from _walk_expr(generator.iter, inner)
            iter_labels = taint_of(generator.iter, inner)
            for name in _comp_target_names(generator.target):
                inner[name] = iter_labels
            for condition in generator.ifs:
                yield from _walk_expr(condition, inner)
        if isinstance(node, ast.DictComp):
            yield from _walk_expr(node.key, inner)
            yield from _walk_expr(node.value, inner)
        else:
            yield from _walk_expr(node.elt, inner)
        return
    if isinstance(node, ast.Call):
        yield node, env
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr):
            yield from _walk_expr(child, env)
        elif isinstance(child, ast.keyword):
            yield from _walk_expr(child.value, env)


def _dynamic_random_import(call: ast.Call) -> bool:
    """``__import__("random")`` / ``importlib.import_module("random")``."""
    func = call.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name not in ("__import__", "import_module"):
        return False
    if not call.args or not isinstance(call.args[0], ast.Constant):
        return False
    value = call.args[0].value
    return isinstance(value, str) and (value == "random" or value.startswith("random."))


class FlowContext:
    """Everything the flow rules need about one parsed file."""

    def __init__(self, tree: ast.Module) -> None:
        self.tree = tree
        self.scopes: list[Scope] = [Scope("module", "<module>", tree, tree.body)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.scopes.append(Scope("function", node.name, node, node.body))
            elif isinstance(node, ast.ClassDef):
                self.scopes.append(Scope("class", node.name, node, node.body))
        self.dead_lines: set[int] = set()
        for scope in self.scopes:
            self.dead_lines.update(unreachable_lines(scope.cfg))
        self._alias_calls: list[tuple[str, ast.Call]] | None = None

    def function_scopes(self) -> list[Scope]:
        return [scope for scope in self.scopes if scope.kind == "function"]

    def module_scope(self) -> Scope:
        return self.scopes[0]

    def alias_calls(self) -> list[tuple[str, ast.Call]]:
        """Calls through aliases of banned functions, plus dynamic random
        imports: ("wall-clock"|"hash"|"random-import", call node).

        A call spelled ``hash(...)`` is left to RL008's syntactic check,
        which flags it whatever ``hash`` is bound to, so no call is
        reported twice."""
        if self._alias_calls is None:
            found: list[tuple[str, ast.Call]] = []
            for scope in self.scopes:
                for item, env in scope.items_with_env():
                    for call, call_env in iter_calls_with_env(item, env):
                        if _dynamic_random_import(call):
                            found.append(("random-import", call))
                        if not isinstance(call.func, ast.Name):
                            continue
                        labels = call_env.get(call.func.id, frozenset())
                        kinds = {kind for kind, _line in labels}
                        if KIND_ALIAS_WALLCLOCK in kinds:
                            found.append(("wall-clock", call))
                        if KIND_ALIAS_HASH in kinds and call.func.id != "hash":
                            found.append(("hash", call))
            self._alias_calls = found
        return self._alias_calls
