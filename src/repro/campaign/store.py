"""The on-disk trial store: content-addressed, sharded JSONL, atomic.

Layout::

    <root>/
      store.json              # format marker + schema version
      shards/
        0f.jsonl              # records whose cell key starts with "0f"
        a3.jsonl
        ...

Each record is one line: ``{"schema": 1, "key": <sha256>,
"batch": <TrialBatch.as_dict()>}``.  Keys come from
:attr:`repro.campaign.spec.CampaignCell.key` — the content hash of
everything that determines the result — so *lookup is the cache policy*:
a hit means the exact computation already ran, anywhere, under any
campaign name.

Durability discipline:

* **Atomic replace.**  A shard is never appended in place; writes rewrite
  the shard to a tmp file in the same directory and ``os.replace`` it, so
  a killed writer leaves either the old shard or the new one, never a
  half-written line.  The store is single-writer by design (the campaign
  runner persists from the parent process only; workers return batches).
* **Corruption tolerance.**  A truncated or garbled line — the classic
  power-loss artifact append-mode JSONL suffers — is counted, skipped,
  and dropped on the next rewrite of its shard.  The affected cell simply
  reads as a miss and is re-executed; nothing crashes
  (``tests/test_campaign_store.py`` locks this in).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator

from repro.attacks.trial import TrialBatch
from repro.campaign.spec import SCHEMA_VERSION

#: Leading hex digits of the key that select a shard (256 shards).
SHARD_CHARS = 2


class TrialStore:
    """Content-addressed persistence for :class:`TrialBatch` cells."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.shards_dir = self.root / "shards"
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        self._marker()
        #: Lines skipped as unreadable since this handle was opened.
        self.corrupt_lines = 0
        self._cache: dict[str, dict[str, dict[str, Any]]] = {}

    def _marker(self) -> None:
        marker = self.root / "store.json"
        if not marker.exists():
            _atomic_write(
                marker,
                json.dumps({"format": "repro.campaign.TrialStore", "schema": SCHEMA_VERSION})
                + "\n",
            )

    # ----------------------------------------------------------------- #
    # Shard plumbing                                                     #
    # ----------------------------------------------------------------- #

    def _shard_name(self, key: str) -> str:
        return key[:SHARD_CHARS]

    def _shard_path(self, shard: str) -> Path:
        return self.shards_dir / f"{shard}.jsonl"

    def _load_shard(self, shard: str) -> dict[str, dict[str, Any]]:
        """Parse one shard into ``key -> record``, skipping bad lines."""
        if shard in self._cache:
            return self._cache[shard]
        records: dict[str, dict[str, Any]] = {}
        path = self._shard_path(shard)
        if path.exists():
            for line in path.read_text().splitlines():
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if record.get("schema") != SCHEMA_VERSION:
                        raise ValueError(f"schema {record.get('schema')}")
                    key = record["key"]
                    if "batch" not in record:
                        raise KeyError("batch")
                except (ValueError, KeyError, TypeError):
                    self.corrupt_lines += 1
                    continue
                records[key] = record
        self._cache[shard] = records
        return records

    def _write_shard(self, shard: str, records: dict[str, dict[str, Any]]) -> None:
        lines = "".join(
            json.dumps(records[key], sort_keys=True) + "\n" for key in sorted(records)
        )
        _atomic_write(self._shard_path(shard), lines)
        self._cache[shard] = records

    # ----------------------------------------------------------------- #
    # Public API                                                         #
    # ----------------------------------------------------------------- #

    def get(self, key: str) -> TrialBatch | None:
        """The stored batch for ``key``, or None (miss *or* bad record)."""
        record = self._load_shard(self._shard_name(key)).get(key)
        if record is None:
            return None
        try:
            return TrialBatch.from_dict(record["batch"])
        except (ValueError, KeyError, TypeError):
            # A record that parsed as JSON but fails batch validation is
            # as good as absent: report a miss so the cell re-runs.
            self.corrupt_lines += 1
            return None

    def put(self, key: str, batch: TrialBatch) -> None:
        """Store ``batch`` under ``key`` (idempotent; last write wins)."""
        shard = self._shard_name(key)
        records = dict(self._load_shard(shard))
        records[key] = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "batch": batch.as_dict(),
        }
        self._write_shard(shard, records)

    def __contains__(self, key: str) -> bool:
        return key in self._load_shard(self._shard_name(key))

    def keys(self) -> Iterator[str]:
        for path in sorted(self.shards_dir.glob(f"{'[0-9a-f]' * SHARD_CHARS}.jsonl")):
            yield from sorted(self._load_shard(path.stem))

    def __len__(self) -> int:
        return sum(1 for _key in self.keys())

    def records(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """Every valid raw record as ``(key, record)``, shard/key sorted.

        The record is the full stored line — ``{"schema", "key", "batch"}``
        — unparsed past JSON, which is what the fleet merge needs: records
        union and compare by canonical bytes without round-tripping every
        batch through :class:`TrialBatch`.
        """
        for path in sorted(self.shards_dir.glob(f"{'[0-9a-f]' * SHARD_CHARS}.jsonl")):
            shard = self._load_shard(path.stem)
            for key in sorted(shard):
                yield key, shard[key]

    def write_records(self, records: dict[str, dict[str, Any]]) -> None:
        """Bulk-union raw records into the store, one write per shard.

        The fleet-merge write path: grouping by shard first keeps the cost
        at one atomic rewrite per touched shard instead of one per record.
        Records must carry the current schema and a key matching their
        mapping slot (a corrupted source must not propagate).
        """
        by_shard: dict[str, dict[str, dict[str, Any]]] = {}
        for key, record in records.items():
            if record.get("schema") != SCHEMA_VERSION or record.get("key") != key:
                raise ValueError(
                    f"refusing to write malformed record for key {key[:12]}…: "
                    f"schema={record.get('schema')!r} key={str(record.get('key'))[:12]}…"
                )
            by_shard.setdefault(self._shard_name(key), {})[key] = record
        for shard, fresh in by_shard.items():
            merged = dict(self._load_shard(shard))
            merged.update(fresh)
            self._write_shard(shard, merged)


def _atomic_write(path: Path, text: str) -> None:
    """Write-to-tmp-then-rename in ``path``'s own directory."""
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)
