"""The campaign manifest: a fingerprinted, declarative workload.

A manifest says *what* to simulate — scenario, communication setup,
planner, fault schedule, estimator, batch seed and size — as plain JSON
data.  Its canonical content hash (:attr:`CampaignManifest.fingerprint`)
identifies the workload: every journal and chunk snapshot of a campaign
carries it, and resume refuses to continue under a manifest whose
fingerprint changed, because mixing chunks from two different workloads
would silently corrupt the aggregate statistics.

The manifest deliberately contains **no operational knobs** (worker
count, retry budget, backoff timing): those affect how fast a campaign
finishes, never what its results are, so two runs of the same manifest
are bit-identical regardless of them.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Union

from repro.errors import CampaignError, SerializationError
from repro.sim.serialization import (
    SCHEMA_VERSION,
    canonical_dumps,
    check_schema_version,
    content_digest,
)

__all__ = ["CampaignManifest"]

_ESTIMATORS = ("raw", "filtered")


@dataclass(frozen=True)
class CampaignManifest:
    """Everything that defines a campaign's results.

    Attributes
    ----------
    name:
        Human-readable campaign label (reports and ``status`` output).
    scenario:
        Scenario spec, e.g. ``{"kind": "left_turn"}`` (see
        :mod:`repro.campaign.builders` for the registry).
    comm:
        Communication spec: ``dt_m``/``dt_s`` [s], ``sensor_noise``
        (uniform half-width [m]/[m/s]/[m/s^2] applied to all three
        channels) and the ``faults`` stage list, the channel's only
        configuration (see :func:`repro.campaign.builders.build_comm`).
    planner:
        Planner spec, e.g. ``{"kind": "constant", "acceleration": 2.0}``
        or a ``compound`` wrapper with embedded fault windows.
    n_sims:
        Batch size; simulation ``k`` is seeded from child ``k`` of
        ``seed``.
    seed:
        The batch seed.
    chunk_size:
        Simulations per durable chunk — the unit of checkpointing.
    estimator:
        ``"filtered"`` (information filter) or ``"raw"``.
    config:
        Engine config spec: ``max_time`` [s], optional ``fault_plan``.
    """

    name: str
    scenario: dict
    comm: dict
    planner: dict
    n_sims: int
    seed: int
    chunk_size: int
    estimator: str = "filtered"
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignError("manifest name must be a non-empty string")
        if not isinstance(self.n_sims, int) or self.n_sims <= 0:
            raise CampaignError(
                f"n_sims must be a positive integer, got {self.n_sims!r}"
            )
        if not isinstance(self.seed, int):
            raise CampaignError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.chunk_size, int) or self.chunk_size <= 0:
            raise CampaignError(
                f"chunk_size must be a positive integer, got "
                f"{self.chunk_size!r}"
            )
        if self.estimator not in _ESTIMATORS:
            raise CampaignError(
                f"estimator must be one of {_ESTIMATORS}, got "
                f"{self.estimator!r}"
            )
        for attribute in ("scenario", "comm", "planner", "config"):
            if not isinstance(getattr(self, attribute), dict):
                raise CampaignError(
                    f"manifest {attribute} must be a JSON object, got "
                    f"{type(getattr(self, attribute)).__name__}"
                )

    # ------------------------------------------------------------------
    # Chunking
    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        """Number of durable chunks the batch is partitioned into."""
        return -(-self.n_sims // self.chunk_size)

    def chunk_indices(self, chunk: int) -> List[int]:
        """The global simulation indices chunk ``chunk`` covers."""
        if not 0 <= chunk < self.n_chunks:
            raise CampaignError(
                f"chunk {chunk} outside campaign of {self.n_chunks} chunks"
            )
        start = chunk * self.chunk_size
        stop = min(self.n_sims, start + self.chunk_size)
        return list(range(start, stop))

    # ------------------------------------------------------------------
    # Canonical form and fingerprint
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The manifest as a JSON-serialisable dict (deep copy)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "scenario": copy.deepcopy(self.scenario),
            "comm": copy.deepcopy(self.comm),
            "planner": copy.deepcopy(self.planner),
            "config": copy.deepcopy(self.config),
            "estimator": self.estimator,
            "n_sims": self.n_sims,
            "seed": self.seed,
            "chunk_size": self.chunk_size,
        }

    @property
    def fingerprint(self) -> str:
        """SHA-256 over the canonical manifest encoding.

        Any change to any result-defining field — a different seed, one
        more fault stage, a wider noise bound — produces a different
        fingerprint; whitespace and key order do not.
        """
        return content_digest(self.to_dict())

    @classmethod
    def from_dict(cls, record: dict) -> "CampaignManifest":
        """Build a manifest from parsed JSON.

        Unknown fields (newer minor schema versions) are ignored; a
        different schema major is rejected.
        """
        if not isinstance(record, dict):
            raise CampaignError(
                f"manifest must be a JSON object, got "
                f"{type(record).__name__}"
            )
        check_schema_version(record, "campaign manifest")
        try:
            return cls(
                name=record["name"],
                scenario=record.get("scenario", {}),
                comm=record.get("comm", {}),
                planner=record["planner"],
                config=record.get("config", {}),
                estimator=record.get("estimator", "filtered"),
                n_sims=record["n_sims"],
                seed=record.get("seed", 0),
                chunk_size=record["chunk_size"],
            )
        except KeyError as exc:
            raise CampaignError(f"manifest missing required field {exc}") from exc

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the canonical manifest encoding to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(canonical_dumps(self.to_dict()))
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignManifest":
        """Load a manifest saved by :meth:`save` (or hand-written JSON)."""
        path = Path(path)
        if not path.exists():
            raise CampaignError(f"no campaign manifest at {path}")
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"corrupt campaign manifest {path}: {exc}"
            ) from exc
        return cls.from_dict(record)
