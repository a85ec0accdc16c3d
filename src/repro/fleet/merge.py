"""Union content-addressed TrialStores, with conflict detection.

``afterimage campaign merge <storeA> <storeB> [...] --store <dest>`` is
the second half of fleet fill: each worker filled a disjoint shard of a
campaign into its own store, and this module unions those stores into one
aggregate.  Because a record's key is the SHA-256 content hash of
everything that determines its batch, the merge is trivially correct —
records either agree or something is deeply wrong:

* **Identical duplicates collapse.**  Two stores holding the same key
  with byte-identical canonical records (the common case when shards
  overlap, e.g. a worker re-run) merge to one record, counted but
  harmless.
* **Conflicts are hard errors.**  The same key with *differing* payloads
  means nondeterminism — the one failure the whole campaign substrate is
  built to make impossible — so the merge refuses loudly, listing every
  conflicting key with both source provenances (store paths plus the
  batches' recorded campaign-cell coordinates) instead of silently
  picking a side.
* **Byte-identical aggregates.**  The destination store writes shards
  sorted by key with canonical JSON, so the merged store — and every
  aggregate computed from it — is byte-identical regardless of which
  worker filled which cell, how many stores fed the merge, or the order
  they were named in (the CI ``fleet-smoke`` job diffs a two-worker merge
  against a single-writer run).
* **Crash-healed.**  Writes go shard-by-shard through the store's atomic
  tmp + ``os.replace`` discipline; a merge killed halfway leaves every
  destination shard either old or new, never torn, and re-running the
  merge converges to the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign.store import TrialStore


def _canonical(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _provenance(source: str, record: dict[str, Any]) -> str:
    """Human-facing origin of one record: store path + cell coordinates."""
    cell = (record.get("batch") or {}).get("notes", {}).get("campaign_cell")
    if isinstance(cell, dict):
        coords = ", ".join(f"{k}={cell[k]!r}" for k in sorted(cell) if k != "key")
        return f"{source} ({coords})" if coords else source
    return source


@dataclass(frozen=True)
class MergeConflict:
    """One key stored with differing payloads in two sources."""

    key: str
    first_provenance: str
    second_provenance: str

    def __str__(self) -> str:
        return (
            f"cell {self.key}: {self.first_provenance} != {self.second_provenance}"
        )


class MergeConflictError(Exception):
    """Same content hash, different payload — refused, nothing written."""

    def __init__(self, conflicts: list[MergeConflict]) -> None:
        self.conflicts = conflicts
        lines = [
            f"{len(conflicts)} conflicting cell(s); identical keys must carry "
            "identical batches (a differing payload means nondeterminism):"
        ]
        lines += [f"  {conflict}" for conflict in conflicts]
        super().__init__("\n".join(lines))


@dataclass
class MergeReport:
    """What one merge did."""

    dest: str
    sources: list[str]
    merged: int = 0
    already_present: int = 0
    identical_duplicates: int = 0
    corrupt_skipped: dict[str, int] = field(default_factory=dict)
    dest_cells: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "dest": self.dest,
            "sources": list(self.sources),
            "merged": self.merged,
            "already_present": self.already_present,
            "identical_duplicates": self.identical_duplicates,
            "corrupt_skipped": dict(self.corrupt_skipped),
            "dest_cells": self.dest_cells,
        }

    def render_text(self) -> str:
        lines = [
            f"merged {self.merged} new cell(s) from {len(self.sources)} store(s) "
            f"into {self.dest} ({self.dest_cells} cells total)"
        ]
        if self.already_present:
            lines.append(f"  {self.already_present} already in the destination")
        if self.identical_duplicates:
            lines.append(
                f"  {self.identical_duplicates} identical duplicate(s) collapsed"
            )
        for source, count in self.corrupt_skipped.items():
            if count:
                lines.append(f"  {source}: {count} corrupt line(s) skipped")
        return "\n".join(lines)


def merge_stores(dest: str | Path, sources: list[str | Path]) -> MergeReport:
    """Union ``sources`` into the store at ``dest``.

    The destination participates in conflict detection like any source —
    merging into a store that already holds a differing payload for some
    key is refused the same way.  All conflicts across all sources are
    collected before raising, so one failed merge names every bad cell at
    once.  On conflict nothing is written.
    """
    dest = Path(dest)
    resolved_sources = [Path(source) for source in sources]
    if not resolved_sources:
        raise ValueError("merge needs at least one source store")
    for source in resolved_sources:
        if source.resolve() == dest.resolve():
            raise ValueError(
                f"source store {source} is the destination; merging a store "
                "into itself is a no-op at best"
            )
        if not (source / "store.json").exists():
            raise ValueError(f"{source} is not a TrialStore (no store.json marker)")

    dest_store = TrialStore(dest)
    report = MergeReport(dest=str(dest), sources=[str(s) for s in resolved_sources])

    # key -> (provenance, canonical record text, raw record)
    combined: dict[str, tuple[str, str, dict[str, Any]]] = {}
    for key, record in dest_store.records():
        combined[key] = (_provenance(str(dest), record), _canonical(record), record)
        report.already_present += 1

    conflicts: list[MergeConflict] = []
    for source in resolved_sources:
        source_store = TrialStore(source)
        for key, record in source_store.records():
            provenance = _provenance(str(source), record)
            canonical = _canonical(record)
            known = combined.get(key)
            if known is None:
                combined[key] = (provenance, canonical, record)
                report.merged += 1
            elif known[1] == canonical:
                report.identical_duplicates += 1
            else:
                conflicts.append(MergeConflict(key, known[0], provenance))
        report.corrupt_skipped[str(source)] = source_store.corrupt_lines

    if conflicts:
        raise MergeConflictError(conflicts)

    report.dest_cells = len(combined)
    fresh = {
        key: record
        for key, (_prov, _canon, record) in combined.items()
        if key not in dest_store
    }
    dest_store.write_records(fresh)
    return report
