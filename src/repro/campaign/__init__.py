"""Durable, resumable simulation campaigns.

A *campaign* is a batch workload (scenario + communication setup +
planner + seed list) big enough that the process running it becomes the
weakest link: a ``kill -9``, OOM, or reboot halfway through a 10k-seed
certification sweep must not discard the completed chunks.  This package
makes the batch layer durable:

* :class:`CampaignManifest` — the declarative workload definition whose
  canonical content hash *fingerprints* the campaign;
* :mod:`repro.campaign.journal` — an append-only JSONL write-ahead
  journal with per-record checksums and torn-tail recovery;
* :mod:`repro.campaign.store` — atomic (tmp + fsync + rename) snapshots
  of completed chunks;
* :class:`CampaignRunner` — runs chunks through
  :class:`~repro.sim.runner.BatchRunner`, journals progress,
  re-runs transiently failed indices with deterministic seeded backoff,
  drains cleanly on SIGINT/SIGTERM, and resumes a killed campaign to
  aggregate results **bit-identical** to an uninterrupted run.  With
  ``n_workers=1`` it runs chunks in-process; with ``n_workers > 1`` it
  distributes them over worker subprocesses that take chunks from one
  queue, every claim journaled in the same write-ahead journal (the
  :mod:`repro.campaign.shard` pieces) — kill-anywhere workers *and*
  runner, byte-identical aggregates for every worker count.

The ``repro-campaign`` console script (``run`` / ``resume`` /
``status`` / ``verify``, with ``--workers N``) exposes the whole
lifecycle; see ``docs/ROBUSTNESS.md`` for the durability and
distribution contracts.
"""

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.journal import JournalWriter, read_journal, recover_journal
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    CampaignProgress,
    CampaignReport,
    CampaignRunner,
    campaign_status,
    finalise_campaign,
    replay_progress,
    verify_campaign,
)
from repro.campaign.store import atomic_write_json, load_json

__all__ = [
    "BackoffPolicy",
    "CampaignManifest",
    "CampaignProgress",
    "CampaignReport",
    "CampaignRunner",
    "JournalWriter",
    "atomic_write_json",
    "campaign_status",
    "finalise_campaign",
    "load_json",
    "read_journal",
    "recover_journal",
    "replay_progress",
    "verify_campaign",
]
