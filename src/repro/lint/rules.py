"""Lint rules RL001–RL013: the conventions the reproduction depends on.

Each rule is a class with a stable id, a one-line title, and an autofix
hint.  Rules receive a :class:`~repro.lint.engine.FileContext` (parsed AST
plus parent links and path helpers) and yield findings.  A rule may scope
itself to parts of the tree via :meth:`Rule.applies_to` — e.g. the
magic-number rule exempts ``repro/params.py`` (the canonical home of the
constants) and ``tests/`` (golden-value assertions are the point of a
test).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.base import (
    CORE_MODEL_PACKAGES,
    MODEL_PACKAGES,
    Rule,
    _MUTATOR_METHODS,
    _dotted,
    _in_any_package,
    _in_package,
    _is_test_path,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import FileContext, Finding

__all__ = [
    "ALL_RULES",
    "CORE_MODEL_PACKAGES",
    "MODEL_PACKAGES",
    "Rule",
]


class StdlibRandomRule(Rule):
    """RL001 — the stdlib ``random`` module is process-global, shared state.

    A single un-namespaced draw anywhere silently couples every stochastic
    component and breaks the one-seed reproducibility contract of
    ``cpu/machine.py``.
    """

    rule_id = "RL001"
    title = "stdlib `random` module is banned (global, unseeded state)"
    hint = "draw from a generator built with repro.utils.rng.make_rng/derive_rng"

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ctx.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.finding(self, node, "`import random` pulls in the process-global RNG")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" or (node.module or "").startswith("random."):
                    yield ctx.finding(self, node, "`from random import ...` uses the process-global RNG")
        # Flow-aware: dynamic imports (`__import__("random")`) that the
        # syntactic import scan above cannot see.
        flow = getattr(ctx, "flow", None)
        if flow is not None:
            for kind, call in flow.alias_calls():
                if kind == "random-import":
                    yield ctx.finding(
                        self,
                        call,
                        "dynamic import of the process-global `random` module",
                        via_flow=True,
                    )


class NumpyRngRule(Rule):
    """RL002 — numpy RNG construction must flow through ``repro.utils.rng``.

    ``np.random.default_rng()`` without a seed is OS entropy; the legacy
    ``np.random.<dist>`` functions share one global state.  Even *seeded*
    ``default_rng(seed)`` calls are banned outside ``repro/utils/rng.py`` so
    that every stream in the codebase is greppable through one chokepoint.
    """

    rule_id = "RL002"
    title = "direct numpy RNG construction (use make_rng/derive_rng)"
    hint = "replace np.random.default_rng(seed) with repro.utils.rng.make_rng(seed)"

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                chain = _dotted(node.func)
                if chain and len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
                    yield ctx.finding(self, node, f"call to {'.'.join(chain)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                yield ctx.finding(self, node, "`from numpy.random import ...` bypasses repro.utils.rng")


class WallClockRule(Rule):
    """RL003 — wall-clock reads in a cycle-accurate simulator are always bugs.

    The model's only clock is ``Machine.cycles``; host time leaking into
    model code makes results machine- and load-dependent.
    """

    rule_id = "RL003"
    title = "wall-clock call in model code"
    hint = "use Machine.cycles / Machine.seconds() — the simulator owns time"

    _BANNED = (
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    )

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                chain = _dotted(node.func)
                if chain is None:
                    continue
                if len(chain) == 2 and chain[0] == "time" and chain[1] in self._BANNED:
                    yield ctx.finding(self, node, f"call to time.{chain[1]}")
                elif chain[-1] in ("now", "utcnow") and "datetime" in chain:
                    yield ctx.finding(self, node, f"call to {'.'.join(chain)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                banned = [alias.name for alias in node.names if alias.name in self._BANNED]
                if banned:
                    yield ctx.finding(self, node, f"imports wall-clock function(s): {', '.join(banned)}")
        # Flow-aware: calls through aliases of wall-clock functions
        # (`t = time.time; ...; t()`), invisible to the dotted-name scan.
        flow = getattr(ctx, "flow", None)
        if flow is not None:
            for kind, call in flow.alias_calls():
                if kind == "wall-clock":
                    yield ctx.finding(
                        self,
                        call,
                        "call through an alias of a wall-clock function",
                        via_flow=True,
                    )


class FloatEqualityRule(Rule):
    """RL004 — ``==``/``!=`` against float literals.

    Latencies, thresholds and rates go through noise models; exact float
    comparison is either dead code or a latent flake.
    """

    rule_id = "RL004"
    title = "float equality comparison"
    hint = "compare integer cycle counts, or use math.isclose with an explicit tolerance"

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ctx.walk():
            if not isinstance(node, ast.Compare):
                continue
            if any(isinstance(ancestor, ast.Assert) for ancestor in ctx.ancestors(node)):
                continue  # asserting an exactly-configured value is the test's point
            operands = [node.left, *node.comparators]
            for position, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[position], operands[position + 1]):
                    if isinstance(side, ast.Constant) and isinstance(side.value, float):
                        yield ctx.finding(self, node, f"float literal {side.value!r} compared with ==/!=")
                        break


def _foreign_private_attr(node: ast.AST) -> ast.Attribute | None:
    """``obj._x`` (or deeper, ``a.b._x``) where ``obj`` is not self/cls."""
    if not isinstance(node, ast.Attribute):
        return None
    if not node.attr.startswith("_") or node.attr.startswith("__"):
        return None
    if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
        return None
    return node


class PrivateMutationRule(Rule):
    """RL005 — mutating another component's ``_``-private state.

    ``machine.hierarchy._levels = ...`` or ``pf._slots[0] = ...`` from
    outside the owning class bypasses every invariant the component
    maintains; the sanitizer exists precisely because such writes are
    silent.  Reads are allowed (experiments and checkers introspect state);
    writes must go through the public API.
    """

    rule_id = "RL005"
    title = "cross-component mutation of private state"
    hint = "use the owning component's public API (or # repro: noqa[RL005] in a corruption test)"

    def _mutated_targets(self, node: ast.AST) -> Iterator[ast.AST]:
        if isinstance(node, ast.Assign):
            yield from node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            yield node.target
        elif isinstance(node, ast.Delete):
            yield from node.targets

    def _flatten(self, target: ast.AST) -> Iterator[ast.AST]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._flatten(element)
        else:
            yield target

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ctx.walk():
            for raw_target in self._mutated_targets(node):
                for target in self._flatten(raw_target):
                    if isinstance(target, ast.Subscript):
                        target = target.value
                    attr = _foreign_private_attr(target)
                    if attr is not None:
                        yield ctx.finding(self, node, f"write to private attribute `{attr.attr}` of another object")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATOR_METHODS:
                    attr = _foreign_private_attr(node.func.value)
                    if attr is not None:
                        yield ctx.finding(
                            self, node,
                            f"mutating call `.{node.func.attr}()` on private attribute `{attr.attr}` of another object",
                        )


class MagicNumberRule(Rule):
    """RL006 — re-typed paper constants.

    The reverse-engineered values (24 entries, 64-byte lines, 120-cycle
    threshold, 2 KiB stride cap, 4 KiB pages) live in :mod:`repro.params`;
    a literal copy silently diverges the moment a parameter study changes
    the canonical value.  Named-constant definitions (module/class-level
    assignments), function parameter defaults and ``assert`` statements are
    exempt; 24 and 64 are only enforced inside the core model packages
    (elsewhere they are usually RSA bit-widths or unrelated counts); hex and
    binary spellings (``0x40``) denote deliberate address/layout arithmetic
    and are exempt.
    """

    rule_id = "RL006"
    title = "paper constant written as a literal (import it from repro.params)"
    hint = "import PAGE_SIZE / CACHE_LINE_SIZE / IPStrideParams / llc_hit_threshold from repro.params"

    _SUGGESTION = {
        24: "IPStrideParams.n_entries",
        64: "CACHE_LINE_SIZE",
        120: "MachineParams.llc_hit_threshold (or page_walk_latency)",
        2048: "IPStrideParams.max_stride_bytes",
        4096: "PAGE_SIZE",
    }
    _NARROW = frozenset({24, 64})

    def applies_to(self, path: str) -> bool:
        return not path.endswith("repro/params.py") and not _is_test_path(path)

    def _exempt(self, ctx: "FileContext", node: ast.AST) -> bool:
        seen_stmt = False
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.Assert):
                return True
            if isinstance(ancestor, ast.arguments):  # parameter defaults
                return True
            if isinstance(ancestor, ast.stmt) and not seen_stmt:
                seen_stmt = True
                if isinstance(ancestor, (ast.Assign, ast.AnnAssign)):
                    parent = ctx.parent(ancestor)
                    if isinstance(parent, (ast.Module, ast.ClassDef)):
                        return True  # named-constant definition
        return False

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        narrow_scope = _in_any_package(ctx.path, CORE_MODEL_PACKAGES)
        for node in ctx.walk():
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if not isinstance(value, int) or isinstance(value, bool):
                continue
            if value not in self._SUGGESTION:
                continue
            if value in self._NARROW and not narrow_scope:
                continue
            if self._exempt(ctx, node) or not self._decimal_spelling(ctx, node):
                continue
            yield ctx.finding(self, node, f"literal {value} duplicates {self._SUGGESTION[value]}")

    @staticmethod
    def _decimal_spelling(ctx: "FileContext", node: ast.Constant) -> bool:
        if node.lineno != getattr(node, "end_lineno", node.lineno):
            return True
        line = ctx.lines[node.lineno - 1] if node.lineno <= len(ctx.lines) else ""
        segment = line[node.col_offset : node.end_col_offset]
        return not segment.lower().startswith(("0x", "0b", "0o"))


class SlotsRule(Rule):
    """RL007 — hot per-cycle dataclasses must declare ``slots=True``.

    ``LoadEvent``, ``PrefetchRequest``, TLB results and prefetcher entries
    are allocated on every simulated load; a ``__dict__`` per instance
    roughly doubles their footprint and allows silent attribute typos
    (``entry.confidnce = 1`` would just... work).
    """

    rule_id = "RL007"
    title = "per-cycle dataclass without slots=True"
    hint = "declare @dataclass(slots=True); freeze shared constants, not per-load records"

    def applies_to(self, path: str) -> bool:
        return _in_any_package(path, MODEL_PACKAGES)

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef) -> tuple[ast.expr, ast.Call | None] | None:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            chain = _dotted(target)
            if chain and chain[-1] == "dataclass":
                return decorator, decorator if isinstance(decorator, ast.Call) else None
        return None

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ctx.walk():
            if not isinstance(node, ast.ClassDef):
                continue
            found = self._dataclass_decorator(node)
            if found is None:
                continue
            _decorator, call = found
            has_slots = call is not None and any(
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in call.keywords
            )
            if not has_slots:
                yield ctx.finding(self, node, f"dataclass `{node.name}` allocated per cycle lacks slots=True")


class UnstableHashRule(Rule):
    """RL008 — builtin ``hash()`` on the seed path is nondeterministic.

    ``str``/``bytes`` hashes are randomized per process (PYTHONHASHSEED),
    so ``seed ^ hash(name)`` produces a different stream on every run —
    results change while every test keeps passing.  This rule caught a real
    instance in ``mitigation/traces.py``.
    """

    rule_id = "RL008"
    title = "builtin hash() is salted per process (nondeterministic seeds)"
    hint = "use repro.utils.rng.stable_seed(label) or zlib.crc32 for deterministic label mixing"

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ctx.walk():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield ctx.finding(self, node, "builtin hash() result varies across processes")
        # Flow-aware: calls through aliases of hash (`h = hash; h(x)`).
        flow = getattr(ctx, "flow", None)
        if flow is not None:
            for kind, call in flow.alias_calls():
                if kind == "hash":
                    yield ctx.finding(
                        self,
                        call,
                        "call through an alias of builtin hash()",
                        via_flow=True,
                    )


class MutableDefaultRule(Rule):
    """RL009 — mutable default arguments.

    A ``def f(xs=[])`` default is evaluated once at definition time, so
    every call shares (and mutates) one list.  In a simulator where attack
    objects are constructed per experiment, a shared default silently
    couples rounds the same way a global RNG would — results depend on
    call history instead of the seed.
    """

    rule_id = "RL009"
    title = "mutable default argument (shared across calls)"
    hint = "default to None and create the list/dict/set inside the function body"

    _MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CONSTRUCTORS
        )

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ctx.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = node.name if not isinstance(node, ast.Lambda) else "<lambda>"
                    yield ctx.finding(
                        self, default,
                        f"mutable default in `{name}()` is shared across all calls",
                    )


class AssertValidationRule(Rule):
    """RL010 — ``assert`` used for input validation in library code.

    ``python -O`` strips asserts, so an assert guarding a *caller-supplied*
    value is a validation that can silently vanish.  The tell is an assert
    whose condition mentions a parameter of the enclosing function: that is
    the caller's input, and rejecting it must raise ``ValueError`` /
    ``TypeError``.  Asserts over locals (``assert entry is not None``
    narrowing, internal invariants) remain fine, as do tests — asserting is
    what tests do.
    """

    rule_id = "RL010"
    title = "bare assert validates a caller-supplied argument"
    hint = "raise ValueError/TypeError for bad inputs; assert only internal invariants"

    def applies_to(self, path: str) -> bool:
        return _in_package(path, "repro") and not _is_test_path(path)

    @staticmethod
    def _parameter_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
        args = func.args
        names = [
            arg.arg
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return frozenset(names) - {"self", "cls"}

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ctx.walk():
            if not isinstance(node, ast.Assert):
                continue
            enclosing = next(
                (
                    ancestor
                    for ancestor in ctx.ancestors(node)
                    if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
                ),
                None,
            )
            if enclosing is None:
                continue
            params = self._parameter_names(enclosing)
            referenced = sorted(
                {
                    name.id
                    for name in ast.walk(node.test)
                    if isinstance(name, ast.Name) and name.id in params
                }
            )
            if referenced:
                yield ctx.finding(
                    self, node,
                    f"assert checks parameter(s) {', '.join(referenced)} of "
                    f"`{enclosing.name}()`; stripped under -O",
                )


class PrintRule(Rule):
    """RL011 — ``print()`` in library code.

    Library modules are imported by experiments, tests and the
    observability tooling; a stray ``print()`` in one of them pollutes
    machine-readable output (``--format json``, JSONL traces, benchmark
    dumps) and cannot be silenced by callers.  Terminal output belongs in
    the CLI front ends (``cli.py`` / ``__main__.py``) and in examples;
    everything else returns data and lets the caller render it.
    """

    rule_id = "RL011"
    title = "print() call in library code (return data; render in cli.py)"
    hint = "move the output to a cli.py/__main__.py front end or return the string"

    def applies_to(self, path: str) -> bool:
        if not _in_package(path, "repro") or _is_test_path(path):
            return False
        return path.split("/")[-1] not in ("cli.py", "__main__.py")

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ctx.walk():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.finding(self, node, "print() bypasses the caller's output channel")


class UnregisteredAttackRule(Rule):
    """RL012 — attack classes in ``repro/core`` must register an AttackSpec.

    The :mod:`repro.attacks` registry is the single source of truth for
    every consumer (CLI, tracing, report, bench, executor); an attack class
    that never appears in any spec's ``covers`` tuple is invisible to all
    of them — exactly how ``sgx`` and ``switch-leak`` went missing from the
    observability tooling before the registry existed.  A class counts as
    an attack when it defines one of the entry-point methods the registry
    scenarios drive (``run_round``/``transmit``/``recover_key_bits``/
    ``track``); victim classes expose plain ``run``/``work_slice`` and are
    deliberately out of scope — they are driven *by* attacks.
    """

    rule_id = "RL012"
    title = "attack class not covered by any registered AttackSpec"
    hint = 'register it in repro/attacks/builtin.py with covers=("ClassName",)'

    _ENTRY_POINTS = frozenset({"run_round", "transmit", "recover_key_bits", "track"})

    def applies_to(self, path: str) -> bool:
        return _in_package(path, "repro/core") and not _is_test_path(path)

    @staticmethod
    def _registered_covers() -> frozenset[str] | None:
        try:
            from repro.attacks import registered_covers
        except ImportError:  # linting a tree without the attacks package
            return None
        return registered_covers()

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        covered = self._registered_covers()
        if covered is None:
            return
        for node in ctx.walk():
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            entry_points = sorted(methods & self._ENTRY_POINTS)
            if entry_points and node.name not in covered:
                yield ctx.finding(
                    self, node,
                    f"`{node.name}` defines {', '.join(entry_points)} but no "
                    f"AttackSpec lists it in covers=",
                )


class ConfinedMultiprocessingRule(Rule):
    """RL013 — ``multiprocessing`` imports are confined to the two pool owners.

    Worker fan-out has exactly two sanctioned homes: the trial executor
    (``repro/attacks/executor.py``) and the campaign layer
    (``repro/campaign/``).  Both get the platform context dance, per-cell
    fault isolation, and deterministic per-task seed derivation right; an
    ad-hoc ``multiprocessing`` pool anywhere else would re-introduce the
    all-or-nothing ``pool.map`` failure mode and dispatch-order-dependent
    seeds those layers exist to prevent.  Everything else parallelises by
    building a task list and handing it to the executor or a campaign.
    """

    rule_id = "RL013"
    title = "multiprocessing import outside attacks/executor.py and campaign/"
    hint = "fan out via repro.attacks.TrialExecutor or repro.campaign.CampaignRunner"

    _ALLOWED = ("repro/attacks/executor.py", "repro/campaign/")

    def applies_to(self, path: str) -> bool:
        if not _in_package(path, "repro") or _is_test_path(path):
            return False
        return not any(allowed in path for allowed in self._ALLOWED)

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ctx.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "multiprocessing" or alias.name.startswith(
                        "multiprocessing."
                    ):
                        yield ctx.finding(
                            self, node, "direct `import multiprocessing`"
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "multiprocessing" or module.startswith("multiprocessing."):
                    yield ctx.finding(
                        self, node, "direct `from multiprocessing import ...`"
                    )


# Imported at the bottom so the flow rules can subclass Rule above
# without a circular import.
from repro.lint.flow.rules import FLOW_RULES  # noqa: E402

ALL_RULES: tuple[type[Rule], ...] = (
    StdlibRandomRule,
    NumpyRngRule,
    WallClockRule,
    FloatEqualityRule,
    PrivateMutationRule,
    MagicNumberRule,
    SlotsRule,
    UnstableHashRule,
    MutableDefaultRule,
    AssertValidationRule,
    PrintRule,
    UnregisteredAttackRule,
    ConfinedMultiprocessingRule,
    *FLOW_RULES,
)
