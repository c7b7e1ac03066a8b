"""Deterministic capped exponential backoff for chunk retries.

Retrying a transiently failed chunk immediately tends to hit the same
overloaded machine state that killed it; exponential backoff with jitter
is the standard cure.  The twist here is determinism: the delay for
retry *attempt* of *chunk* under a given campaign *fingerprint* is a
pure function of those three values — no wall clock, no global RNG — so
a resumed campaign makes exactly the decisions the original would have,
and a test can assert the full delay schedule without sleeping.

Only the *waiting* consults real time, via an injected ``sleep``
callable that tests replace with a recorder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CampaignError
from repro.utils.rng import RngStream

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with seeded jitter.

    Attributes
    ----------
    max_attempts:
        Total attempts per transiently failing index, and per chunk
        lease on a fleet, including the first (1 = no retries).
    base_delay:
        Delay before the first retry [s].
    cap:
        Upper bound on the un-jittered delay [s].
    jitter:
        Relative jitter width: the delay is scaled by a factor drawn
        uniformly from ``[1, 1 + jitter]``, seeded from
        ``(fingerprint, chunk, attempt)`` so it is reproducible.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    cap: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise CampaignError(
                f"max_attempts must be a positive integer, got "
                f"{self.max_attempts!r}"
            )
        if self.base_delay < 0.0:
            raise CampaignError(
                f"base_delay must be non-negative, got {self.base_delay!r}"
            )
        if self.cap < self.base_delay:
            raise CampaignError(
                f"cap ({self.cap!r}) must be at least base_delay "
                f"({self.base_delay!r})"
            )
        if self.jitter < 0.0:
            raise CampaignError(
                f"jitter must be non-negative, got {self.jitter!r}"
            )

    def delay(self, fingerprint: str, chunk: int, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` of ``chunk``.

        ``attempt`` counts retries from 1 (the delay *before* the second
        execution).  The value is deterministic in the arguments: the
        jitter factor is drawn from an :class:`~repro.utils.rng.RngStream`
        seeded with the leading fingerprint bytes, the chunk number and
        the attempt number.
        """
        if attempt < 1:
            raise CampaignError(
                f"backoff attempt numbers start at 1, got {attempt}"
            )
        raw = min(self.cap, self.base_delay * (2.0 ** (attempt - 1)))
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        seed_material = [int(fingerprint[:8], 16), chunk, attempt]
        factor = 1.0 + self.jitter * RngStream(seed_material).uniform(0.0, 1.0)
        return raw * factor
