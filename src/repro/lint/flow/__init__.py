"""``repro.lint.flow`` — intraprocedural CFG + fixpoint dataflow engine.

The syntactic rules in :mod:`repro.lint.rules` match single AST nodes; the
flow layer adds the machinery to reason about *values in motion*:

* :mod:`repro.lint.flow.cfg` — a control-flow-graph builder over stdlib
  ``ast`` (branches, loops, ``try``/``except``/``finally``, ``with``,
  ``break``/``continue``/``return``), dependency-free like the rest of
  the lint pass;
* :mod:`repro.lint.flow.solver` — a generic forward worklist fixpoint
  solver plus the classic reaching-definitions analysis;
* :mod:`repro.lint.flow.taint` — a label-propagation taint analysis used
  by the determinism checkers (RL014/RL015) and by the flow-aware alias
  upgrades of RL001/RL003/RL008;
* :mod:`repro.lint.flow.context` — :class:`FlowContext`, the per-file
  cache of scopes, CFGs and taint fixpoints every flow rule shares;
* :mod:`repro.lint.flow.callgraph` — the module-local name-based call
  graph the ``leakcheck.extract`` interprocedural inliner walks;
* :mod:`repro.lint.flow.rules` — the flow rules RL014, RL015 and RL018.

See ``docs/LINT.md`` ("Flow-aware analysis") for the architecture.
"""

from __future__ import annotations

from repro.lint.flow.callgraph import closure_defs, function_defs
from repro.lint.flow.cfg import CFG, BasicBlock, build_cfg, unreachable_lines
from repro.lint.flow.context import FlowContext, Scope
from repro.lint.flow.solver import ReachingDefinitions, solve_forward
from repro.lint.flow.taint import (
    DETERMINISM_KINDS,
    KIND_ALIAS_HASH,
    KIND_ALIAS_WALLCLOCK,
    KIND_ID,
    KIND_SET_ORDER,
    KIND_UNSEEDED_RNG,
    KIND_URANDOM,
    KIND_WALLCLOCK,
    TaintAnalysis,
    taint_of,
)

#: Rules whose findings the engine drops when they sit in CFG-dead code
#: (``if False:`` branches, statements after an unconditional
#: return/raise): their syntactic checks walk the whole AST, so without
#: the filter a banned call nothing can reach would still be flagged.
DEAD_CODE_FILTERED_RULES = frozenset({"RL001", "RL003", "RL008"})

__all__ = [
    "BasicBlock",
    "CFG",
    "DEAD_CODE_FILTERED_RULES",
    "DETERMINISM_KINDS",
    "FlowContext",
    "KIND_ALIAS_HASH",
    "KIND_ALIAS_WALLCLOCK",
    "KIND_ID",
    "KIND_SET_ORDER",
    "KIND_UNSEEDED_RNG",
    "KIND_URANDOM",
    "KIND_WALLCLOCK",
    "ReachingDefinitions",
    "Scope",
    "TaintAnalysis",
    "build_cfg",
    "closure_defs",
    "function_defs",
    "solve_forward",
    "taint_of",
    "unreachable_lines",
]
