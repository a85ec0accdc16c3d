"""`repro.lint` — the repository's own static-analysis pass.

Every figure this repo reproduces is only as trustworthy as the simulator's
state machines, and those are only as trustworthy as the modelling
conventions around them: all randomness seeded and derived through
:mod:`repro.utils.rng`, no wall-clock time in model code, paper constants
taken from :mod:`repro.params` instead of re-typed literals, no module
reaching into another component's private state, hot per-cycle objects kept
allocation-lean.  ``repro.lint`` enforces those conventions over the AST.

Beyond the single-node syntactic rules, :mod:`repro.lint.flow` adds an
intraprocedural CFG + fixpoint dataflow layer, built for every linted
file: taint tracking from nondeterminism sources into trial/seed/trace
sinks (RL014/RL015), span/sink pairing (RL018), alias-aware upgrades of
RL001/RL003/RL008, and dead-branch suppression of their false positives.

Usage::

    python -m repro.lint src tests benchmarks [--format=json]
    afterimage lint [paths ...] [--changed]

Findings can be suppressed per line with ``# repro: noqa[RLxxx]`` (or a
bare ``# repro: noqa`` to suppress every rule).  See ``docs/LINT.md`` for
the rule catalogue.
"""

from __future__ import annotations

from repro.lint.cli import main
from repro.lint.engine import Finding, lint_paths, lint_source, render_json, render_text
from repro.lint.rules import ALL_RULES, Rule

__all__ = [
    "ALL_RULES",
    "Finding",
    "Rule",
    "lint_paths",
    "lint_source",
    "main",
    "render_json",
    "render_text",
]
