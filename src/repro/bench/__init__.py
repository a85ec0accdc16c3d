"""repro.bench: the provenance stamp for benchmark artifacts.

:func:`~repro.bench.provenance.provenance` records where and when a
benchmark document was produced — git revision, timestamp, python
version and host fields.  ``perfbench/run.py`` embeds it in every
result it writes, so a wall-clock number is never read without the
machine it came from.
"""

from repro.bench.provenance import provenance

__all__ = ["provenance"]
