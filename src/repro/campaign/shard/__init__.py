"""The pieces of the fleet transport of a sharded campaign.

:class:`~repro.campaign.runner.CampaignRunner` with ``n_workers > 1``
dispatches a manifest's chunk space to worker subprocesses
(:mod:`repro.campaign.shard.worker`) through lease-based claims
(:class:`~repro.campaign.shard.leases.LeaseTable`) journaled in the
campaign's write-ahead journal, over the line protocol of
:mod:`repro.campaign.shard.protocol`.  Any worker — and the runner
itself — can be SIGKILLed at any byte; after resume, with any worker
count, the merged aggregate is byte-identical to an in-process run,
because chunk ``k`` is content-deterministic and every completion path
writes the same canonical snapshot.

See ``docs/ROBUSTNESS.md`` (Distribution) for the lease protocol and
the failure matrix.
"""

from repro.campaign.shard.leases import Lease, LeaseTable
from repro.campaign.shard.protocol import decode_line, encode_message

__all__ = [
    "Lease",
    "LeaseTable",
    "decode_line",
    "encode_message",
]
