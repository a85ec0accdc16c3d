"""The provenance stamp, imported the way ``perfbench/run.py`` imports it."""

from repro.bench import provenance


class TestProvenance:
    def test_stamp_fields(self):
        stamp = provenance()
        for key in ("git_rev", "timestamp", "python", "platform", "hostname", "cpu_count"):
            assert key in stamp
