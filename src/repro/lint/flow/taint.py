"""Label-propagation taint analysis for the flow rules.

The abstract state at every program point is an *environment* mapping
variable names to sets of labels, each label a ``(kind, source_line)``
pair.  :func:`taint_of` evaluates an expression under an environment and
returns the labels of its value; :class:`TaintAnalysis` is the forward
analysis that pushes environments through a scope's CFG.

The **determinism kinds** — wall-clock reads, unseeded RNG draws,
``id()``, OS entropy (``os.urandom``/``secrets``/``uuid.uuid4``), and set
iteration order — propagate *broadly*: through arithmetic, containers,
attribute access and calls (``rng.integers(...)`` on a tainted generator
yields a tainted draw).  ``sorted(...)`` strips the set-order kind —
ordering is exactly what it repairs.

Two extra alias kinds power the flow-aware RL003/RL008 upgrades: a bare
(uncalled) reference to ``time.perf_counter`` or builtin ``hash`` labels
the name it lands in, and calling through that alias is then flagged by
the syntactic rule's flow extension.  They propagate only through
aliasing shapes (plain name binding, containers, conditionals): a call's
result or an attribute of the alias is not the function itself.
"""

from __future__ import annotations

import ast

from repro.lint.flow.cfg import BasicBlock

#: One taint label: (kind, line of the source expression).
Label = tuple[str, int]
#: The abstract state: variable name -> labels of its value.
Env = dict[str, frozenset[Label]]

KIND_WALLCLOCK = "wall-clock"
KIND_UNSEEDED_RNG = "unseeded-rng"
KIND_ID = "id()"
KIND_URANDOM = "os-entropy"
KIND_SET_ORDER = "set-order"
KIND_ALIAS_WALLCLOCK = "alias:wall-clock-fn"
KIND_ALIAS_HASH = "alias:hash-fn"

#: Kinds that make a value nondeterministic across runs/processes.
DETERMINISM_KINDS = frozenset(
    {KIND_WALLCLOCK, KIND_UNSEEDED_RNG, KIND_ID, KIND_URANDOM, KIND_SET_ORDER}
)
#: Function-alias kinds (flow-aware RL003/RL008).
ALIAS_KINDS = frozenset({KIND_ALIAS_WALLCLOCK, KIND_ALIAS_HASH})

_WALLCLOCK_FNS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)
#: Wall-clock functions unambiguous even as bare names (``from time
#: import perf_counter``); bare ``time`` is excluded — too common a local.
_BARE_WALLCLOCK_FNS = _WALLCLOCK_FNS - {"time"}


def dotted(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


def _source_kinds(node: ast.Call) -> list[str]:
    """Taint kinds a call introduces by itself (independent of operands)."""
    kinds: list[str] = []
    chain = dotted(node.func)
    name = chain[-1] if chain else None
    if chain is None:
        return kinds
    if len(chain) == 2 and chain[0] == "time" and chain[1] in _WALLCLOCK_FNS:
        kinds.append(KIND_WALLCLOCK)
    elif len(chain) == 1 and name in _BARE_WALLCLOCK_FNS:
        kinds.append(KIND_WALLCLOCK)
    elif name in ("now", "utcnow") and "datetime" in chain:
        kinds.append(KIND_WALLCLOCK)
    elif chain[0] == "random" and len(chain) > 1:
        kinds.append(KIND_UNSEEDED_RNG)
    elif chain[0] in ("np", "numpy") and len(chain) >= 3 and chain[1] == "random":
        if not (name == "default_rng" and (node.args or node.keywords)):
            kinds.append(KIND_UNSEEDED_RNG)
    elif name == "default_rng" and not node.args and not node.keywords:
        kinds.append(KIND_UNSEEDED_RNG)
    elif name == "urandom" or chain[0] == "secrets":
        kinds.append(KIND_URANDOM)
    elif chain == ("uuid", "uuid4") or name == "uuid4":
        kinds.append(KIND_URANDOM)
    elif len(chain) == 1 and name == "id" and len(node.args) == 1:
        kinds.append(KIND_ID)
    elif name in ("set", "frozenset") and len(chain) == 1:
        kinds.append(KIND_SET_ORDER)
    return kinds


def _reference_labels(node: ast.expr) -> frozenset[Label]:
    """Labels of a bare (uncalled) reference to a flagged function."""
    chain = dotted(node)
    if chain is None:
        return frozenset()
    line = getattr(node, "lineno", 0)
    if len(chain) == 2 and chain[0] == "time" and chain[1] in _WALLCLOCK_FNS:
        return frozenset({(KIND_ALIAS_WALLCLOCK, line)})
    if chain == ("hash",):
        return frozenset({(KIND_ALIAS_HASH, line)})
    return frozenset()


def _strip(labels: frozenset[Label], kinds: frozenset[str]) -> frozenset[Label]:
    return frozenset(label for label in labels if label[0] not in kinds)


def taint_of(node: ast.expr | None, env: Env) -> frozenset[Label]:
    """Labels of the value ``node`` evaluates to under ``env``.

    ``env`` is updated in place for walrus (``:=``) bindings encountered
    during evaluation.
    """
    if node is None:
        return frozenset()
    if isinstance(node, ast.Name):
        return env.get(node.id, frozenset()) | _reference_labels(node)
    if isinstance(node, ast.Constant):
        return frozenset()
    if isinstance(node, ast.NamedExpr):
        labels = taint_of(node.value, env)
        env[node.target.id] = labels
        return labels
    if isinstance(node, ast.Call):
        labels: frozenset[Label] = frozenset()
        func_labels = taint_of(node.func, env)
        for arg in node.args:
            inner = arg.value if isinstance(arg, ast.Starred) else arg
            labels |= taint_of(inner, env)
        for keyword in node.keywords:
            labels |= taint_of(keyword.value, env)
        line = getattr(node, "lineno", 0)
        chain = dotted(node.func)
        name = chain[-1] if chain else None
        if name == "sorted":
            labels = _strip(labels, frozenset({KIND_SET_ORDER}))
        # A call's result is data, not the function alias itself.
        labels = _strip(labels | func_labels, ALIAS_KINDS)
        # ...unless the call *is* a nondeterminism source.
        labels |= frozenset((kind, line) for kind in _source_kinds(node))
        # Calling through an alias of a wall-clock function reads the clock.
        if any(kind == KIND_ALIAS_WALLCLOCK for kind, _line in func_labels):
            labels |= frozenset({(KIND_WALLCLOCK, line)})
        return labels
    if isinstance(node, ast.Attribute):
        ref = _reference_labels(node)
        if ref:
            return ref
        return _strip(taint_of(node.value, env), ALIAS_KINDS)
    if isinstance(node, (ast.BinOp,)):
        return taint_of(node.left, env) | taint_of(node.right, env)
    if isinstance(node, ast.UnaryOp):
        return taint_of(node.operand, env)
    if isinstance(node, ast.BoolOp):
        labels = frozenset()
        for value in node.values:
            labels |= taint_of(value, env)
        return labels
    if isinstance(node, ast.Compare):
        labels = taint_of(node.left, env)
        for comparator in node.comparators:
            labels |= taint_of(comparator, env)
        return labels
    if isinstance(node, ast.IfExp):
        taint_of(node.test, env)  # walrus side effects only
        return taint_of(node.body, env) | taint_of(node.orelse, env)
    if isinstance(node, ast.Subscript):
        return taint_of(node.value, env) | _strip(
            taint_of(node.slice, env), ALIAS_KINDS
        )
    if isinstance(node, ast.Starred):
        return taint_of(node.value, env)
    if isinstance(node, (ast.Tuple, ast.List)):
        labels = frozenset()
        for element in node.elts:
            labels |= taint_of(element, env)
        return labels
    if isinstance(node, ast.Set):
        labels = frozenset({(KIND_SET_ORDER, getattr(node, "lineno", 0))})
        for element in node.elts:
            labels |= taint_of(element, env)
        return labels
    if isinstance(node, ast.Dict):
        labels = frozenset()
        for key in node.keys:
            if key is not None:
                labels |= taint_of(key, env)
        for value in node.values:
            labels |= taint_of(value, env)
        return labels
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)):
        inner = dict(env)
        labels: frozenset[Label] = frozenset()
        for generator in node.generators:
            iter_labels = taint_of(generator.iter, inner)
            for name in _comp_target_names(generator.target):
                inner[name] = iter_labels
            for condition in generator.ifs:
                taint_of(condition, inner)
        if isinstance(node, ast.DictComp):
            labels |= taint_of(node.key, inner) | taint_of(node.value, inner)
        else:
            labels |= taint_of(node.elt, inner)
        if isinstance(node, ast.SetComp):
            labels |= frozenset({(KIND_SET_ORDER, getattr(node, "lineno", 0))})
        return labels
    if isinstance(node, ast.JoinedStr):
        labels = frozenset()
        for value in node.values:
            labels |= taint_of(value, env)
        return labels
    if isinstance(node, ast.FormattedValue):
        return taint_of(node.value, env)
    if isinstance(node, ast.Await):
        return taint_of(node.value, env)
    if isinstance(node, ast.Lambda):
        return frozenset()
    return frozenset()


def _comp_target_names(target: ast.expr) -> list[str]:
    names: list[str] = []
    if isinstance(target, ast.Name):
        names.append(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names.extend(_comp_target_names(element))
    elif isinstance(target, ast.Starred):
        names.extend(_comp_target_names(target.value))
    return names


def _bind(env: Env, target: ast.expr, labels: frozenset[Label]) -> None:
    """Bind an assignment target (flattening tuples) to ``labels``."""
    if isinstance(target, ast.Name):
        if labels:
            env[target.id] = labels
        else:
            env.pop(target.id, None)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind(env, element, labels)
    elif isinstance(target, ast.Starred):
        _bind(env, target.value, labels)
    # Attribute/subscript stores don't rebind a tracked name.


class TaintAnalysis:
    """Forward taint propagation over one scope's CFG."""

    def bottom(self) -> Env:
        return {}

    def initial(self) -> Env:
        return {}

    def join(self, left: Env, right: Env) -> Env:
        if not right:
            return left
        if not left:
            return dict(right)
        merged = dict(left)
        for name, labels in right.items():
            merged[name] = merged.get(name, frozenset()) | labels
        return merged

    def transfer_item(self, item: ast.AST, env: Env) -> Env:
        """Apply one item to a *copy* of ``env`` and return it."""
        env = dict(env)
        if isinstance(item, ast.Assign):
            labels = taint_of(item.value, env)
            for target in item.targets:
                _bind(env, target, labels)
        elif isinstance(item, ast.AnnAssign):
            if item.value is not None:
                _bind(env, item.target, taint_of(item.value, env))
        elif isinstance(item, ast.AugAssign):
            extra = taint_of(item.value, env)
            if isinstance(item.target, ast.Name):
                combined = env.get(item.target.id, frozenset()) | extra
                if combined:
                    env[item.target.id] = combined
        elif isinstance(item, (ast.For, ast.AsyncFor)):
            _bind(env, item.target, taint_of(item.iter, env))
        elif isinstance(item, (ast.With, ast.AsyncWith)):
            for with_item in item.items:
                labels = taint_of(with_item.context_expr, env)
                if with_item.optional_vars is not None:
                    _bind(env, with_item.optional_vars, labels)
        elif isinstance(item, (ast.Import, ast.ImportFrom)):
            for alias in item.names:
                env.pop(alias.asname or alias.name.split(".")[0], None)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            env.pop(item.name, None)
        elif isinstance(item, ast.ExceptHandler):
            if item.name:
                env.pop(item.name, None)
        elif isinstance(item, ast.Delete):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(item, ast.Expr):
            taint_of(item.value, env)  # walrus bindings
        elif isinstance(item, ast.Return):
            taint_of(item.value, env)
        elif isinstance(item, ast.expr):  # a branch test
            taint_of(item, env)
        return env

    def transfer_block(self, block: BasicBlock, env: Env) -> Env:
        for item in block.items:
            env = self.transfer_item(item, env)
        return env
