"""repro.fleet: sharded multi-writer campaigns.

The campaign substrate (:mod:`repro.campaign`) made experiment grids
declarative, content-addressed, and resumable — but single-writer.  This
package lets any number of workers fill one campaign:

* :mod:`repro.fleet.partition` partitions a campaign's cells
  deterministically by their SHA-256 content hash
  (``afterimage campaign run --shard i/n``), so each worker fills a
  disjoint, stable slice into its own store;
* :mod:`repro.fleet.merge` then unions those stores with hard conflict
  detection (same hash, differing payload ⇒ refuse, listing both
  provenances) into an aggregate that is byte-identical to a
  single-writer run.

See docs/CAMPAIGN.md §"Fleet mode" for the shard → merge walkthrough.
"""

from repro.fleet.merge import (
    MergeConflict,
    MergeConflictError,
    MergeReport,
    merge_stores,
)
from repro.fleet.partition import Shard, parse_shard, partition_cells, shard_of_key

__all__ = [
    "MergeConflict",
    "MergeConflictError",
    "MergeReport",
    "merge_stores",
    "parse_shard",
    "partition_cells",
    "Shard",
    "shard_of_key",
]
