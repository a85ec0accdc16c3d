"""repro.campaign: declarative, resumable experiment campaigns.

The paper's evaluation is a grid of sweeps — Table 1 verdicts on both
machines, success-rate-vs-noise curves per attack, an attack × defense
matrix — and this package is that grid written down once and made cheap
to re-run:

* :class:`CampaignSpec` (:mod:`repro.campaign.spec`) declares the matrix
  — experiments × machine presets × a defense/noise axis × repeats — and
  expands it into content-addressed :class:`CampaignCell`\\ s.
* :class:`TrialStore` (:mod:`repro.campaign.store`) persists each cell's
  :class:`~repro.attacks.trial.TrialBatch` under its content hash in
  sharded JSONL with atomic writes; lookup *is* the cache policy.
* :class:`CampaignRunner` (:mod:`repro.campaign.runner`) drives a spec to
  completion: cache hits served from the store, misses run in-process
  with per-cell fault isolation and capped-backoff retries, successes
  persisted immediately so an interrupted campaign resumes
  exactly where it stopped.
* :data:`BUILTIN_CAMPAIGNS` (:mod:`repro.campaign.builtin`) mirrors the
  paper's grids: ``revng-table1``, ``attacks-vs-noise``,
  ``defense-matrix``.
* :mod:`repro.campaign.render` turns results into the status/run text the
  CLI prints and the markdown section ``afterimage report`` embeds.

Surface: ``afterimage campaign run|status|report`` and ``make campaign``.
See docs/CAMPAIGN.md for spec format, store layout, and resume
guarantees.
"""

from repro.campaign.builtin import (
    ATTACKS_VS_NOISE,
    BUILTIN_CAMPAIGNS,
    DEFENSE_MATRIX,
    REVNG_TABLE1,
    builtin_campaign,
)
from repro.campaign.experiments import (
    CAMPAIGN_EXPERIMENTS,
    defense_applier,
    experiment_names,
    run_cell,
)
from repro.campaign.render import render_markdown, render_result, render_status
from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    CampaignStatus,
    CellOutcome,
    campaign_status,
)
from repro.campaign.spec import (
    DEFENSE_NAMES,
    SCHEMA_VERSION,
    AxisPoint,
    CampaignCell,
    CampaignSpec,
    canonical_json,
    cell_seed,
    load_spec,
    params_fingerprint,
)
from repro.campaign.store import TrialStore

__all__ = [
    "ATTACKS_VS_NOISE",
    "AxisPoint",
    "BUILTIN_CAMPAIGNS",
    "CAMPAIGN_EXPERIMENTS",
    "CampaignCell",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStatus",
    "CellOutcome",
    "DEFENSE_MATRIX",
    "DEFENSE_NAMES",
    "REVNG_TABLE1",
    "SCHEMA_VERSION",
    "TrialStore",
    "builtin_campaign",
    "campaign_status",
    "canonical_json",
    "cell_seed",
    "defense_applier",
    "experiment_names",
    "load_spec",
    "params_fingerprint",
    "render_markdown",
    "render_result",
    "render_status",
    "run_cell",
]
