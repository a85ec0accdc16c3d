"""Flow rules RL014–RL019: determinism taint, fork safety, span/sink
pairing, kernel component isolation.

These rules consume the per-file :class:`~repro.lint.flow.context.FlowContext`
the engine attaches when the flow pass is enabled.  They are registered in
``ALL_RULES`` like every syntactic rule — same noqa suppression, same JSON
rendering, same ``--select`` handling — but carry ``requires_flow`` and are
skipped when the flow pass is off.

* **RL014/RL015 (determinism taint)** — values originating from
  wall-clock reads, unseeded RNG construction, ``id()``, OS entropy and
  set iteration order are tracked through assignments, calls, containers
  and comprehensions; RL014 fires when one reaches a ``Trial``/
  ``TrialBatch``/trace-event payload (a constructor, an ``emit`` or a
  ``kernel.publish``), RL015 when one reaches a seed or content-hash
  input.  Both bug classes silently break the repo's
  headline invariants (byte-identical crash-healed aggregates,
  same-seed trace equality) without failing any behavioural test.
* **RL016/RL017 (fork safety)** — task callables dispatched through a
  worker pool (``pool.map``-family calls, ``run_cell_fn=`` injection)
  must not reach module-level mutable globals (RL016: a forked copy
  diverges silently; a future persistent worker shares it for real),
  and dispatch sites must not smuggle open file handles/locks across
  the pool boundary or mutate objects already submitted (RL017).
* **RL018 (span/sink pairing)** — an explicit span begin
  (``publish(SpanBegin, ...)`` or ``emit(SpanBegin(...))``) must reach a
  matching ``SpanEnd``, and a constructed
  ``JsonlSink``/``ChromeTraceSink``/``Tracer`` must reach ``close()``
  (or be handed off / returned / ``with``-managed), on **every** CFG
  path out of the scope — an unbalanced span corrupts nesting-aware
  trace consumers, an unclosed sink drops buffered events.
* **RL019 (kernel component isolation)** — classes deriving from the
  simulation kernel's ``Component`` base may only reach kernel state
  through the bus API (``kernel.publish``/``clock_of`` and wired
  ``*_port`` callables); ``self.machine`` back-references,
  ``component_of()`` sibling grabs and private-kernel pokes re-create
  the hidden coupling the kernel refactor removed.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING, ClassVar

from repro.lint.flow.callgraph import module_functions, reachable_from
from repro.lint.flow.context import FlowContext, Scope, iter_calls_with_env
from repro.lint.flow.solver import assigned_names
from repro.lint.flow.taint import (
    DETERMINISM_KINDS,
    RESOURCE_KINDS,
    Env,
    Label,
    dotted,
    taint_of,
)
from repro.lint.base import Rule, _MUTATOR_METHODS, _is_test_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import FileContext, Finding


class FlowRule(Rule):
    """A rule that needs the CFG/dataflow pass (skipped when flow is off)."""

    requires_flow: ClassVar[bool] = True

    def flow(self, ctx: "FileContext") -> FlowContext | None:
        return getattr(ctx, "flow", None)


def _describe_labels(labels: frozenset[Label]) -> str:
    """``wall-clock (line 3), set-order (line 7)`` — stable ordering."""
    best: dict[str, int] = {}
    for kind, line in labels:
        if kind not in best or line < best[kind]:
            best[kind] = line
    return ", ".join(f"{kind} (line {line})" for kind, line in sorted(best.items()))


def _determinism_labels(expr: ast.expr, env: Env) -> frozenset[Label]:
    return frozenset(
        label for label in taint_of(expr, dict(env)) if label[0] in DETERMINISM_KINDS
    )


def _call_args(call: ast.Call) -> Iterator[tuple[str, ast.expr]]:
    for position, arg in enumerate(call.args):
        node = arg.value if isinstance(arg, ast.Starred) else arg
        yield f"argument {position + 1}", node
    for keyword in call.keywords:
        label = f"keyword `{keyword.arg}`" if keyword.arg else "**kwargs"
        yield label, keyword.value


# ---------------------------------------------------------------------- #
# RL014 — determinism taint into Trial/TrialBatch/trace payloads          #
# ---------------------------------------------------------------------- #

#: Constructor names whose instances are persisted/compared byte-for-byte.
_RESULT_CTORS = frozenset({"Trial", "TrialBatch"})
#: The trace-event dataclasses of repro.obs.events (payloads must replay
#: byte-identically for the same seed).
_EVENT_CTORS = frozenset(
    {
        "TraceEvent",
        "LoadTraced",
        "TlbMiss",
        "PrefetchIssued",
        "PrefetchFill",
        "TableTransition",
        "ContextSwitch",
        "Clflush",
        "SanitizerViolation",
        "SpanBegin",
        "SpanEnd",
    }
)


def _trial_sink(call: ast.Call) -> str | None:
    chain = dotted(call.func)
    name = chain[-1] if chain else None
    if name in _RESULT_CTORS or name in _EVENT_CTORS:
        return f"{name}()"
    if isinstance(call.func, ast.Attribute) and call.func.attr in ("emit", "publish"):
        return f".{call.func.attr}()"
    return None


class DeterminismTrialTaintRule(FlowRule):
    """RL014 — a nondeterministic value reaches a persisted result object.

    Trial/TrialBatch fields and trace-event payloads are exactly the data
    the campaign store content-addresses and the same-seed trace-equality
    tests compare: a wall-clock read, an unseeded draw, an ``id()`` or a
    set-iteration artifact flowing into one reproduces differently on
    every run while every behavioural test keeps passing.
    """

    rule_id = "RL014"
    title = "nondeterministic value flows into a Trial/TrialBatch/trace-event field"
    hint = "derive it from the trial seed (make_rng/derive_rng) or record simulated cycles, not host state"

    def applies_to(self, path: str) -> bool:
        return not _is_test_path(path)

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        flow = self.flow(ctx)
        if flow is None:
            return
        for scope in flow.scopes:
            for item, env in scope.items_with_env():
                for call, call_env in iter_calls_with_env(item, env):
                    sink = _trial_sink(call)
                    if sink is None:
                        continue
                    for where, expr in _call_args(call):
                        labels = _determinism_labels(expr, call_env)
                        if labels:
                            yield ctx.finding(
                                self, call,
                                f"{sink} {where} carries nondeterministic taint: "
                                f"{_describe_labels(labels)}",
                            )


# ---------------------------------------------------------------------- #
# RL015 — determinism taint into seed / content-hash inputs               #
# ---------------------------------------------------------------------- #

_SEED_FNS = frozenset({"stable_seed", "make_rng", "derive_rng", "cell_seed"})
_SEED_KEYWORDS = frozenset({"seed", "base_seed"})
_HASH_CTORS = frozenset({"sha256", "sha1", "sha512", "md5", "blake2b", "blake2s"})


def _seed_sink(call: ast.Call) -> str | None:
    chain = dotted(call.func)
    name = chain[-1] if chain else None
    if name in _SEED_FNS:
        return f"{name}()"
    if chain and (chain[0] == "hashlib" or (len(chain) == 1 and name in _HASH_CTORS)):
        return f"{'.'.join(chain)}()"
    return None


class SeedTaintRule(FlowRule):
    """RL015 — a nondeterministic value reaches a seed or content hash.

    Seeds and cell content hashes are the roots of the reproducibility
    tree: everything downstream replays from them.  A tainted seed makes
    *every* derived stream differ per run; a tainted content-hash input
    makes the trial store mint a fresh key per run, silently disabling
    caching and crash-healed resumption.
    """

    rule_id = "RL015"
    title = "nondeterministic value flows into a seed or content-hash input"
    hint = "seeds/cell keys must be pure functions of declared coordinates (see cell_seed)"

    def applies_to(self, path: str) -> bool:
        return not _is_test_path(path)

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        flow = self.flow(ctx)
        if flow is None:
            return
        for scope in flow.scopes:
            for item, env in scope.items_with_env():
                for call, call_env in iter_calls_with_env(item, env):
                    sink = _seed_sink(call)
                    if sink is not None:
                        for where, expr in _call_args(call):
                            labels = _determinism_labels(expr, call_env)
                            if labels:
                                yield ctx.finding(
                                    self, call,
                                    f"{sink} {where} carries nondeterministic taint: "
                                    f"{_describe_labels(labels)}",
                                )
                        continue
                    for keyword in call.keywords:
                        if keyword.arg in _SEED_KEYWORDS:
                            labels = _determinism_labels(keyword.value, call_env)
                            if labels:
                                yield ctx.finding(
                                    self, call,
                                    f"`{keyword.arg}=` carries nondeterministic taint: "
                                    f"{_describe_labels(labels)}",
                                )


# ---------------------------------------------------------------------- #
# Worker-dispatch discovery (shared by RL016/RL017)                       #
# ---------------------------------------------------------------------- #

#: ``pool.<method>(callable, iterable...)`` shapes that ship work to
#: other processes.  ``run`` is deliberately absent here
#: (``CampaignRunner.run`` takes a *spec*, not a callable) — it
#: participates only in the post-dispatch-mutation check below.
_DISPATCH_METHODS = frozenset(
    {"map", "imap", "imap_unordered", "starmap", "starmap_async", "map_async",
     "apply", "apply_async", "submit"}
)
#: Methods whose arguments count as "submitted to the pool" for the
#: post-dispatch-mutation check (superset of the above).
_SUBMIT_METHODS = _DISPATCH_METHODS | {"run"}
#: Keyword arguments that inject a worker callable.
_CALLABLE_KEYWORDS = frozenset({"run_cell_fn"})
_POOLISH_MARKERS = ("pool", "executor", "runner")
_POOLISH_CTORS = frozenset(
    {"Pool", "CampaignRunner", "ProcessPoolExecutor", "ThreadPoolExecutor"}
)


def _poolish_receiver(expr: ast.expr) -> bool:
    """Does this receiver look like a worker pool / executor / runner?"""
    chain = dotted(expr)
    if chain is not None:
        lowered = [part.lower() for part in chain]
        return any(marker in part for part in lowered for marker in _POOLISH_MARKERS)
    if isinstance(expr, ast.Call):
        ctor = dotted(expr.func)
        return ctor is not None and ctor[-1] in _POOLISH_CTORS
    return False


def _dispatch_callables(call: ast.Call) -> list[ast.expr]:
    """Callable expressions this call dispatches to workers, if any."""
    callables: list[ast.expr] = []
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in _DISPATCH_METHODS
        and _poolish_receiver(call.func.value)
        and call.args
    ):
        callables.append(call.args[0])
    for keyword in call.keywords:
        if keyword.arg in _CALLABLE_KEYWORDS:
            callables.append(keyword.value)
    return callables


def _resolve_callable_names(expr: ast.expr) -> list[str]:
    """Function names an expression may designate (through partial())."""
    if isinstance(expr, ast.Name):
        return [expr.id]
    if isinstance(expr, ast.Call):
        chain = dotted(expr.func)
        if chain and chain[-1] == "partial" and expr.args:
            return _resolve_callable_names(expr.args[0])
    return []


def _is_submit_call(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in _SUBMIT_METHODS
        and _poolish_receiver(call.func.value)
    )


def _is_mutable_ctor(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        chain = dotted(expr.func)
        return chain is not None and chain[-1] in (
            "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"
        )
    return False


def _base_name(expr: ast.expr) -> str | None:
    """The root Name of ``x``, ``x.attr``, ``x[i]`` chains."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _mutations(node: ast.AST) -> Iterator[tuple[str, str, ast.AST]]:
    """(name, description, node) for in-place mutations inside ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            if child.func.attr in _MUTATOR_METHODS:
                name = _base_name(child.func.value)
                if name is not None:
                    yield name, f".{child.func.attr}()", child
        elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = child.targets if isinstance(child, ast.Assign) else [child.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = _base_name(target)
                    if name is not None:
                        kind = "subscript store" if isinstance(target, ast.Subscript) else "attribute store"
                        yield name, kind, child
        elif isinstance(child, ast.Delete):
            for target in child.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = _base_name(target)
                    if name is not None:
                        yield name, "del", child


def _local_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names the function binds locally (params + assignments), minus
    declared globals."""
    args = func.args
    names = {
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        else:
            names.update(assigned_names(node) if isinstance(node, (ast.stmt, ast.expr)) else ())
    return names - declared_global


# ---------------------------------------------------------------------- #
# RL016 — task callables reaching module-level mutable globals            #
# ---------------------------------------------------------------------- #


class WorkerSharedGlobalRule(FlowRule):
    """RL016 — a dispatched task callable reaches module-level mutable state.

    Under ``fork`` each worker gets a silently diverging copy (appends are
    lost, caches go stale); under the planned persistent-worker executor
    the same object is *shared* across tasks, which is precisely the race
    the multi-writer store work will otherwise hit at runtime.  Read-only
    module registries (built at import time, never mutated from functions)
    stay legal.
    """

    rule_id = "RL016"
    title = "worker callable reaches a module-level mutable global"
    hint = "pass state through the task object and return results; workers must be pure functions of their task"

    def applies_to(self, path: str) -> bool:
        return not _is_test_path(path)

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        flow = self.flow(ctx)
        if flow is None:
            return
        tree = ctx.tree
        mutable_globals: dict[str, int] = {}
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_ctor(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    mutable_globals[target.id] = stmt.lineno
        if not mutable_globals:
            return
        module_funcs = module_functions(tree)
        dispatched: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for expr in _dispatch_callables(node):
                    for name in _resolve_callable_names(expr):
                        if name in module_funcs:
                            dispatched.setdefault(name, node.lineno)
        if not dispatched:
            return
        # Globals mutated from *any* function body (module-level init is fine).
        mutated_somewhere: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for name, _desc, _node in _mutations(node):
                    if name in mutable_globals:
                        mutated_somewhere.add(name)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Global):
                        mutated_somewhere.update(
                            n for n in sub.names if n in mutable_globals
                        )
        # Worker-reachable closure over the module-local call graph
        # (shared with leakcheck.extract via repro.lint.flow.callgraph).
        reached = reachable_from(module_funcs, dispatched)
        for name, (root, line) in sorted(reached.items(), key=lambda kv: kv[1][1]):
            func = module_funcs[name]
            locals_ = _local_names(func)
            seen: set[tuple[str, int]] = set()
            declared = {
                n
                for node in ast.walk(func)
                if isinstance(node, ast.Global)
                for n in node.names
                if n in mutable_globals
            }
            if declared:
                for node in ast.walk(func):
                    if isinstance(node, (ast.Assign, ast.AugAssign)):
                        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                        for target in targets:
                            if isinstance(target, ast.Name) and target.id in declared:
                                key = (target.id, node.lineno)
                                if key not in seen:
                                    seen.add(key)
                                    yield ctx.finding(
                                        self, node,
                                        f"worker `{name}` (dispatched via `{root}` at line "
                                        f"{line}) rebinds module-level mutable global "
                                        f"`{target.id}` via `global`",
                                    )
            for global_name, desc, node in _mutations(func):
                if global_name in mutable_globals and global_name not in locals_:
                    key = (global_name, node.lineno)
                    if key not in seen:
                        seen.add(key)
                        yield ctx.finding(
                            self, node,
                            f"worker `{name}` (dispatched via `{root}` at line {line}) "
                            f"mutates module-level mutable global `{global_name}` ({desc})",
                        )
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in mutable_globals
                    and node.id in mutated_somewhere
                    and node.id not in locals_
                ):
                    key = (node.id, node.lineno)
                    if key not in seen:
                        seen.add(key)
                        yield ctx.finding(
                            self, node,
                            f"worker `{name}` (dispatched via `{root}` at line {line}) "
                            f"reads module-level mutable global `{node.id}`, which is "
                            f"mutated elsewhere at runtime",
                        )


# ---------------------------------------------------------------------- #
# RL017 — handles/locks across the pool boundary; post-dispatch mutation  #
# ---------------------------------------------------------------------- #


def _free_names(func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """Names a nested callable loads without binding them itself."""
    if isinstance(func, ast.Lambda):
        bound = {arg.arg for arg in (*func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs)}
        body: list[ast.AST] = [func.body]
    else:
        bound = _local_names(func)
        body = list(func.body)
    loaded: set[str] = set()
    for root in body:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
    return loaded - bound


class ForkCaptureRule(FlowRule):
    """RL017 — process-local resources cross the pool; submitted objects mutate.

    A file handle or lock captured by (or passed to) a dispatched callable
    either fails to pickle or — worse, under ``fork`` — duplicates the
    underlying file offset / lock state per worker.  And mutating an object
    after submitting it to a pool races the workers' view of it: harmless
    today only because ``pool.map`` happens to be synchronous, and exactly
    the bug the persistent-worker executor rework would surface.
    """

    rule_id = "RL017"
    title = "open handle/lock crosses the pool boundary, or a submitted object is mutated"
    hint = "pass paths/plain data to workers; freeze (or stop touching) task lists once submitted"

    def applies_to(self, path: str) -> bool:
        return not _is_test_path(path)

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        flow = self.flow(ctx)
        if flow is None:
            return
        for scope in flow.scopes:
            yield from self._check_captures(ctx, scope)
            yield from self._check_post_dispatch(ctx, scope)

    # -- (a) captured/passed handles and locks ------------------------- #

    def _check_captures(self, ctx: "FileContext", scope: Scope) -> Iterator["Finding"]:
        nested: dict[str, ast.AST] = {}
        for item, _env in scope.items_with_env():
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested[item.name] = item
        for item, env in scope.items_with_env():
            for call, call_env in iter_calls_with_env(item, env):
                is_dispatch = _is_submit_call(call)
                callables = _dispatch_callables(call)
                if not is_dispatch and not callables:
                    continue
                if is_dispatch:
                    for where, expr in _call_args(call):
                        labels = frozenset(
                            label
                            for label in taint_of(expr, dict(call_env))
                            if label[0] in RESOURCE_KINDS
                        )
                        if labels:
                            yield ctx.finding(
                                self, call,
                                f"pool dispatch {where} carries a process-local "
                                f"resource: {_describe_labels(labels)}",
                            )
                for expr in callables:
                    target: ast.AST | None = None
                    if isinstance(expr, ast.Lambda):
                        target = expr
                    elif isinstance(expr, ast.Name) and expr.id in nested:
                        target = nested[expr.id]
                    if target is None:
                        continue
                    for free in sorted(_free_names(target)):
                        labels = frozenset(
                            label
                            for label in call_env.get(free, frozenset())
                            if label[0] in RESOURCE_KINDS
                        )
                        if labels:
                            yield ctx.finding(
                                self, call,
                                f"dispatched callable captures `{free}`, a "
                                f"process-local resource: {_describe_labels(labels)}",
                            )

    # -- (b) mutation of objects already submitted to the pool --------- #

    def _check_post_dispatch(self, ctx: "FileContext", scope: Scope) -> Iterator["Finding"]:
        in_facts = self._submitted_facts(scope)
        for block in scope.cfg.blocks:
            if not block.reachable:
                continue
            fact = in_facts[block.index]
            for item in block.items:
                submitted = {name: line for name, line in fact}
                if submitted:
                    for name, desc, node in _mutations(item):
                        if name in submitted:
                            yield ctx.finding(
                                self, node,
                                f"`{name}` mutated ({desc}) after being submitted "
                                f"to the pool at line {submitted[name]}",
                            )
                fact = self._transfer_submitted(item, fact)

    def _submitted_facts(self, scope: Scope) -> dict[int, frozenset[tuple[str, int]]]:
        rule = self

        class _Submitted:
            def bottom(self) -> frozenset[tuple[str, int]]:
                return frozenset()

            def initial(self) -> frozenset[tuple[str, int]]:
                return frozenset()

            def join(self, left, right):
                return left | right

            def transfer_block(self, block, fact):
                for item in block.items:
                    fact = rule._transfer_submitted(item, fact)
                return fact

        from repro.lint.flow.solver import solve_forward

        in_facts, _out = solve_forward(scope.cfg, _Submitted())
        return in_facts

    def _transfer_submitted(
        self, item: ast.AST, fact: frozenset[tuple[str, int]]
    ) -> frozenset[tuple[str, int]]:
        updated = set(fact)
        for node in ast.walk(item):
            if isinstance(node, ast.Call) and _is_submit_call(node):
                for _where, expr in _call_args(node):
                    if isinstance(expr, ast.Name):
                        updated.add((expr.id, node.lineno))
        rebound = set(assigned_names(item)) if isinstance(item, (ast.stmt, ast.expr)) else set()
        if rebound:
            updated = {pair for pair in updated if pair[0] not in rebound}
        return frozenset(updated)


# ---------------------------------------------------------------------- #
# RL019 — kernel components talk only through the port/bus API             #
# ---------------------------------------------------------------------- #

#: The SimKernel surface a component may legitimately touch.
_KERNEL_BUS_API = frozenset({"publish", "clock_of"})


def _component_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Classes deriving from the kernel ``Component`` base."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                chain = dotted(base)
                if chain and chain[-1] == "Component":
                    yield node
                    break


class KernelComponentIsolationRule(FlowRule):
    """RL019 — a kernel component bypasses the port/bus API.

    The simulation kernel's component contract (``repro.cpu.kernel.core``)
    is that components interact only through ``kernel.publish`` /
    ``kernel.clock_of`` and the ``*_port`` callables the Machine facade
    wires at assembly time.  A component that holds a ``self.machine``
    back-reference, pulls a sibling out with ``component_of()``, or pokes
    at the kernel's private state re-creates exactly the hidden coupling
    the kernel refactor removed: a component's behaviour no longer
    follows from its call arguments and ports alone.
    """

    rule_id = "RL019"
    title = "kernel component bypasses the port/bus API"
    hint = "components talk via kernel.publish/clock_of and wired *_port callables; wiring belongs to the Machine facade"

    def applies_to(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return "repro/cpu/kernel/" in normalized and not _is_test_path(path)

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        flow = self.flow(ctx)
        if flow is None:
            return
        for klass in _component_classes(ctx.tree):
            yield from self._check_component(ctx, klass)

    def _check_component(
        self, ctx: "FileContext", klass: ast.ClassDef
    ) -> Iterator["Finding"]:
        seen: set[tuple[int, int]] = set()

        def once(node: ast.AST) -> bool:
            key = (node.lineno, node.col_offset)
            if key in seen:
                return False
            seen.add(key)
            return True

        for node in ast.walk(klass):
            if isinstance(node, ast.Call):
                chain = dotted(node.func)
                if chain and chain[-1] == "component_of" and once(node):
                    yield ctx.finding(
                        self, node,
                        f"component `{klass.name}` grabs a sibling component via "
                        f"`component_of()`; communicate through a wired `*_port` "
                        f"callable instead",
                    )
            if not isinstance(node, ast.Attribute):
                continue
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr == "machine"
                and once(node)
            ):
                yield ctx.finding(
                    self, node,
                    f"component `{klass.name}` reaches back into the Machine "
                    f"facade via `self.machine`",
                )
            if (
                isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"
                and node.value.attr == "kernel"
                and node.attr not in _KERNEL_BUS_API
                and node.attr != "component_of"  # flagged above, at the call
                and once(node)
            ):
                yield ctx.finding(
                    self, node,
                    f"component `{klass.name}` touches `kernel.{node.attr}` "
                    f"outside the bus API "
                    f"({', '.join(sorted(_KERNEL_BUS_API))})",
                )


# ---------------------------------------------------------------------- #
# RL018 — spans and sinks must close on every path                         #
# ---------------------------------------------------------------------- #

#: Sink/tracer constructors whose instances own an OS resource (a file
#: handle) or buffer events that only land on ``close()``.  RingBufferSink
#: is deliberately absent: it holds no resource and close() is a no-op.
_CLOSEABLE_CTORS = frozenset({"JsonlSink", "ChromeTraceSink", "Tracer"})

#: Fact element: (kind, key, open line, AST node to anchor the finding).
_PairFact = tuple[str, str, int, ast.AST]


def _span_event(call: ast.Call) -> tuple[str, str | None] | None:
    """(``"SpanBegin"``/``"SpanEnd"``, constant span name or None) for a
    span leaving through ``*.publish(SpanBegin, cycle, name, ...)`` (how
    the profiler's spans publish) or ``*.emit(SpanBegin(...))``."""
    if not isinstance(call.func, ast.Attribute) or not call.args:
        return None
    if call.func.attr == "publish":
        kind, fields, keywords = call.args[0], call.args[1:], []
    elif call.func.attr == "emit" and isinstance(call.args[0], ast.Call):
        kind, fields, keywords = call.args[0].func, call.args[0].args, call.args[0].keywords
    else:
        return None
    chain = dotted(kind)
    which = chain[-1] if chain else None
    if which not in ("SpanBegin", "SpanEnd"):
        return None
    named = [keyword.value for keyword in keywords if keyword.arg == "name"]
    # TraceEvent puts ``cycle`` first, so a positional name is field 2.
    node = named[0] if named else (fields[1] if len(fields) >= 2 else None)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return which, node.value
    return which, None


class SpanSinkPairingRule(FlowRule):
    """RL018 — an explicit SpanBegin emit or sink construction can reach
    scope exit without its SpanEnd / ``close()``.

    An unbalanced ``SpanBegin`` corrupts every nesting-aware trace
    consumer (the Chrome-trace ``B``/``E`` stack, the span profiler), and
    an unclosed ``JsonlSink``/``ChromeTraceSink``/``Tracer`` silently
    drops buffered events — the trace looks truncated, not broken.  Both
    have a zero-cost fix that this rule never flags: the context manager
    (``with machine.span(...):``, ``with JsonlSink(...) as sink:``),
    which pairs begin/end on the exception path too.  Ownership
    transfers (passing the sink to a call, returning it, storing it on
    an object) move the close obligation to the receiver and discharge
    the fact here.
    """

    rule_id = "RL018"
    title = "span emit or sink left open on some path to scope exit"
    hint = "use `with machine.span(...)`/`with Sink(...) as s:`, or close in a `finally:`"

    def applies_to(self, path: str) -> bool:
        return not _is_test_path(path)

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        flow = self.flow(ctx)
        if flow is None:
            return
        for scope in flow.function_scopes():
            # The profiler's Span halves publish one unpaired event each
            # by design; a ``close()`` forwarding closes discharges its own.
            if scope.name in ("__enter__", "__exit__", "close"):
                continue
            yield from self._check_scope(ctx, scope)

    def _check_scope(self, ctx: "FileContext", scope: Scope) -> Iterator["Finding"]:
        rule = self

        class _OpenFacts:
            def bottom(self) -> frozenset[_PairFact]:
                return frozenset()

            def initial(self) -> frozenset[_PairFact]:
                return frozenset()

            def join(self, left, right):
                return left | right

            def transfer_block(self, block, fact):
                for item in block.items:
                    fact = rule._transfer(item, fact)
                return fact

        from repro.lint.flow.solver import solve_forward

        in_facts, _out = solve_forward(scope.cfg, _OpenFacts())
        leaked = in_facts[scope.cfg.exit]
        if not leaked:
            return
        excused = self._finally_closed(scope)
        for kind, key, _line, node in sorted(leaked, key=lambda f: f[2]):
            if (kind, key) in excused:
                continue
            if kind == "span":
                yield ctx.finding(
                    self, node,
                    f"SpanBegin(name={key!r}) has no matching SpanEnd on "
                    f"some path to the end of `{scope.name}`",
                )
            else:
                ctor = dotted(node.func) if isinstance(node, ast.Call) else None
                what = ctor[-1] if ctor else "sink"
                yield ctx.finding(
                    self, node,
                    f"`{key}` ({what}) is not closed, handed off, or returned "
                    f"on some path to the end of `{scope.name}`",
                )

    # -- transfer ------------------------------------------------------- #

    def _transfer(
        self, item: ast.AST, fact: frozenset[_PairFact]
    ) -> frozenset[_PairFact]:
        updated = set(fact)
        # Rebinding a tracked sink variable loses the only reference.
        rebound = set(
            assigned_names(item) if isinstance(item, (ast.stmt, ast.expr)) else ()
        )
        if rebound:
            updated = {
                f for f in updated if not (f[0] == "sink" and f[1] in rebound)
            }
        # ``with sink:`` / ``with sink as s:`` closes on every path.
        if isinstance(item, (ast.With, ast.AsyncWith)):
            for with_item in item.items:
                expr = with_item.context_expr
                if isinstance(expr, ast.Name):
                    updated = {
                        f
                        for f in updated
                        if not (f[0] == "sink" and f[1] == expr.id)
                    }
        # Escapes: ``return sink`` and ``self.attr = sink`` transfer the
        # close obligation to the caller / the owning object.
        escaping: list[ast.expr] = []
        if isinstance(item, ast.Return) and item.value is not None:
            escaping.append(item.value)
        if isinstance(item, (ast.Assign, ast.AnnAssign)):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            if any(isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets):
                if item.value is not None:
                    escaping.append(item.value)
        for root in escaping:
            for node in ast.walk(root):
                if isinstance(node, ast.Name):
                    updated = {
                        f
                        for f in updated
                        if not (f[0] == "sink" and f[1] == node.id)
                    }
        for call, _env in iter_calls_with_env(item, {}):
            updated = self._transfer_call(call, updated)
        # Gen last: ``v = JsonlSink(...)`` opens after its own call runs.
        if isinstance(item, ast.Assign) and isinstance(item.value, ast.Call):
            chain = dotted(item.value.func)
            if chain and chain[-1] in _CLOSEABLE_CTORS:
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        updated.add(("sink", target.id, item.lineno, item.value))
        return frozenset(updated)

    def _transfer_call(
        self, call: ast.Call, fact: set[_PairFact]
    ) -> set[_PairFact]:
        span = _span_event(call)
        if span is not None:
            which, name = span
            if which == "SpanBegin":
                if name is not None:
                    fact.add(("span", name, call.lineno, call))
                return fact
            if name is None:
                return {f for f in fact if f[0] != "span"}
            return {f for f in fact if not (f[0] == "span" and f[1] == name)}
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "close"
            and isinstance(call.func.value, ast.Name)
        ):
            closed = call.func.value.id
            return {f for f in fact if not (f[0] == "sink" and f[1] == closed)}
        # A sink passed as an argument is handed off (e.g. Machine(trace=t),
        # Tracer(sinks=[s])): the receiver owns the close from here on.
        handed: set[str] = set()
        for position_arg in call.args:
            node = (
                position_arg.value
                if isinstance(position_arg, ast.Starred)
                else position_arg
            )
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    handed.add(sub.id)
        for keyword in call.keywords:
            for sub in ast.walk(keyword.value):
                if isinstance(sub, ast.Name):
                    handed.add(sub.id)
        if handed:
            return {f for f in fact if not (f[0] == "sink" and f[1] in handed)}
        return fact

    # -- finally discharge ---------------------------------------------- #

    def _finally_closed(self, scope: Scope) -> set[tuple[str, str]]:
        """(kind, key) pairs closed inside a ``finally:`` anywhere in the
        scope.  The CFG routes a mid-``try`` ``raise`` straight to exit,
        bypassing ``finalbody`` — but Python runs it, so a close there
        covers every path through its ``try``."""
        closed: set[tuple[str, str]] = set()
        for node in ast.walk(scope.node):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if not isinstance(sub, ast.Call):
                        continue
                    span = _span_event(sub)
                    if span is not None and span[0] == "SpanEnd":
                        if span[1] is not None:
                            closed.add(("span", span[1]))
                        continue
                    if (
                        isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "close"
                        and isinstance(sub.func.value, ast.Name)
                    ):
                        closed.add(("sink", sub.func.value.id))
        return closed


FLOW_RULES: tuple[type[Rule], ...] = (
    DeterminismTrialTaintRule,
    SeedTaintRule,
    WorkerSharedGlobalRule,
    ForkCaptureRule,
    SpanSinkPairingRule,
    KernelComponentIsolationRule,
)
