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
  retries transient chunk failures with deterministic seeded backoff,
  drains cleanly on SIGINT/SIGTERM, and resumes a killed campaign to
  aggregate results **bit-identical** to an uninterrupted run.

For certification sweeps too big for one process, the
:mod:`repro.campaign.shard` subpackage distributes a campaign's chunk
space across worker subprocesses with lease-based claims journaled in
the same write-ahead journal — kill-anywhere workers *and* coordinator,
byte-identical merged aggregates.

The ``repro-campaign`` console script (``run`` / ``resume`` / ``status``
/ ``verify`` / ``shard-run`` / ``shard-resume`` / ``shard-status``)
exposes the whole lifecycle; see ``docs/ROBUSTNESS.md`` for the
durability and distribution contracts.
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
from repro.campaign.shard import LeaseTable, ShardCoordinator, shard_status
from repro.campaign.store import atomic_write_json, load_json

__all__ = [
    "BackoffPolicy",
    "CampaignManifest",
    "CampaignProgress",
    "CampaignReport",
    "CampaignRunner",
    "JournalWriter",
    "LeaseTable",
    "ShardCoordinator",
    "atomic_write_json",
    "campaign_status",
    "finalise_campaign",
    "load_json",
    "read_journal",
    "recover_journal",
    "replay_progress",
    "shard_status",
    "verify_campaign",
]
