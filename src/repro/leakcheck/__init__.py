"""Static AfterImage-leakage analyzer (``afterimage leakcheck``).

Every attack in the paper reduces to one question about the victim alone:
does a secret bit flow into the (stride, confidence, last-address) state of
one of the 24 IP-stride history-table entries that an attacker-aliased load
can later observe?  This package answers it *statically* — no
:class:`~repro.cpu.Machine`, no timing, no rounds — by abstractly
interpreting the paper's Algorithm-1 state machine over a victim's load
trace for a witness pair of secrets and diffing the resulting table states.

* :mod:`repro.leakcheck.trace` — the victim description (:class:`VictimSpec`:
  labeled load IPs + a secret-parameterized trace generator).
* :mod:`repro.leakcheck.table` — :class:`AbstractTable`, the stock
  Algorithm-1 history table with a taint overlay.
* :mod:`repro.leakcheck.analyzer` — :func:`analyze`, the witness-pair
  differencing pass, with the :mod:`repro.defenses` applied statically.
* :mod:`repro.leakcheck.report` — :class:`LeakReport` + text/JSON rendering.
* :mod:`repro.leakcheck.victims` — the paper's victims, pre-registered.
* :mod:`repro.leakcheck.dynamic` — the simulator-backed oracle the static
  verdicts are differentially tested against.
* :mod:`repro.leakcheck.extract` — the static victim front-end: compiles
  *arbitrary* Python functions into :class:`VictimSpec` traces for
  repo-wide gadget discovery (``afterimage leakcheck --scan src/``).

See docs/LEAKCHECK.md for the abstract domain and its soundness caveats.
"""

from repro.leakcheck.analyzer import DEFENSES, analyze
from repro.leakcheck.extract import ExtractError, compile_path, compile_source, scan_paths
from repro.leakcheck.report import SCHEMA_VERSION, LeakReport, LeakyEntry
from repro.leakcheck.table import AbstractPrefetch, AbstractTable
from repro.leakcheck.trace import TraceLoad, VictimSpec
from repro.leakcheck.victims import RegisteredVictim, get_victim, victim_names

__all__ = [
    "DEFENSES",
    "SCHEMA_VERSION",
    "AbstractPrefetch",
    "AbstractTable",
    "ExtractError",
    "LeakReport",
    "LeakyEntry",
    "RegisteredVictim",
    "TraceLoad",
    "VictimSpec",
    "analyze",
    "compile_path",
    "compile_source",
    "get_victim",
    "scan_paths",
    "victim_names",
]
