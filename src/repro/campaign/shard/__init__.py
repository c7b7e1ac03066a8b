"""The pieces of the fleet transport of a sharded campaign.

:class:`~repro.campaign.runner.CampaignRunner` with ``n_workers > 1``
hands a manifest's chunks, in ascending order, to worker subprocesses
(:mod:`repro.campaign.shard.worker`) over the line protocol of
:mod:`repro.campaign.shard.protocol`, journaling every claim.  Any
worker — and the runner itself — can be SIGKILLed at any byte; after
resume, with any worker count, the merged aggregate is byte-identical
to an in-process run, because chunk ``k`` is content-deterministic and
every completion path writes the same canonical snapshot.

See ``docs/ROBUSTNESS.md`` (Distribution) for the chunk queue and the
failure matrix.
"""

from repro.campaign.shard.protocol import decode_line, encode_message

__all__ = [
    "decode_line",
    "encode_message",
]
