"""The module-local call graph the ``leakcheck.extract`` inliner walks.

The static victim front-end (:mod:`repro.leakcheck.extract`) inlines
callee bodies at call sites, where method calls (``self._helper(...)``)
must resolve as well as bare ones.  The graph is name-based (no type
inference), module-local (imports are opaque), and deterministic
(closures are discovered in call-site order).
"""

from __future__ import annotations

import ast

from repro.lint.flow.taint import dotted

#: The AST nodes that define a function body.
FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def function_defs(
    tree: ast.Module,
) -> dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Every ``def`` in the module — top-level functions *and* class
    methods — grouped by bare name.

    A name maps to more than one definition when several classes define
    the same method (e.g. three ``_consume_bit`` overrides); callers that
    need unambiguous resolution must treat those as dynamic dispatch.
    """
    defs: dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]] = {}
    for node in ast.walk(tree):
        if isinstance(node, FUNC_NODES):
            defs.setdefault(node.name, []).append(node)
    return defs


def called_names(func: ast.AST) -> list[str]:
    """Names this body calls, in source order: a bare ``name(...)`` call
    and the last element of an attribute-call chain (``self._helper()``
    contributes ``_helper``) alike."""
    names: list[str] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            chain = dotted(node.func)
            if chain is not None:
                names.append(chain[-1])
    return names


def closure_defs(
    defs: dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]],
    root: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """The extractor's inlining closure: every definition reachable from
    ``root`` by (bare- or attribute-) called name, root first, then in
    discovery order.

    Ambiguously named callees contribute *all* their definitions — the
    closure over-approximates; the interpreter rejects the ambiguous call
    itself if it is ever actually taken.
    """
    out = [root]
    seen = {id(root)}
    queue = [root]
    while queue:
        current = queue.pop(0)
        for name in called_names(current):
            for candidate in defs.get(name, []):
                if id(candidate) not in seen:
                    seen.add(id(candidate))
                    out.append(candidate)
                    queue.append(candidate)
    return out
