"""Flow rules RL014, RL015 and RL018: determinism taint and span/sink
pairing.

These rules read the per-file :class:`~repro.lint.flow.context.FlowContext`
the engine builds for every linted file (``ctx.flow``).  They are
registered in ``ALL_RULES`` like every syntactic rule — same noqa
suppression, same JSON rendering, same ``--select`` handling.

* **RL014/RL015 (determinism taint)** — values originating from
  wall-clock reads, unseeded RNG construction, ``id()``, OS entropy and
  set iteration order are tracked through assignments, calls, containers
  and comprehensions; RL014 fires when one reaches a ``Trial``/
  ``TrialBatch``/trace-event payload (a constructor, an ``emit`` or a
  ``kernel.publish``), RL015 when one reaches a seed or content-hash
  input.  Both bug classes silently break the repo's
  headline invariants (byte-identical crash-healed aggregates,
  same-seed trace equality) without failing any behavioural test.
* **RL018 (span/sink pairing)** — an explicit span begin
  (``publish(SpanBegin, ...)`` or ``emit(SpanBegin(...))``) must reach a
  matching ``SpanEnd``, and a constructed
  ``JsonlSink``/``ChromeTraceSink``/``Tracer`` must reach ``close()``
  (or be handed off / returned / ``with``-managed), on **every** CFG
  path out of the scope — an unbalanced span corrupts nesting-aware
  trace consumers, an unclosed sink drops buffered events.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.flow.context import Scope, iter_calls_with_env
from repro.lint.flow.solver import assigned_names
from repro.lint.flow.taint import (
    DETERMINISM_KINDS,
    Env,
    Label,
    dotted,
    taint_of,
)
from repro.lint.base import Rule, _is_test_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import FileContext, Finding


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


class DeterminismTrialTaintRule(Rule):
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
        for scope in ctx.flow.scopes:
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


class SeedTaintRule(Rule):
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
        for scope in ctx.flow.scopes:
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


class SpanSinkPairingRule(Rule):
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
        for scope in ctx.flow.function_scopes():
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
    SpanSinkPairingRule,
)
