"""Lease bookkeeping for sharded campaigns: a pure state machine.

The :class:`LeaseTable` decides *who runs which chunk next*.  It is
deliberately clock-free — every method takes ``now`` as an argument —
so tests drive arbitrary failure interleavings (expiry races, steal
storms, speculative twins) with a synthetic clock and zero sleeping.
Nothing in here touches the journal or the operating system; the
coordinator owns all I/O.

Scheduling policy, in claim order:

1. **Retry pool** — chunks released by a lease expiry, a worker death,
   or a reported error, each gated behind a deterministic seeded
   backoff delay (:class:`~repro.campaign.backoff.BackoffPolicy`, keyed
   by ``(fingerprint, chunk, attempt)`` — a resumed coordinator makes
   the same decisions the original would have).
2. **Own range** — the worker's contiguous slice of the chunk space
   (front first), so sequential-ish disk and cache behaviour survives
   sharding.
3. **Work stealing** — the tail of the *longest* remaining range, so
   fast workers drain slow workers' backlogs without ping-ponging the
   same chunks.
4. **Speculation** — a duplicate lease on the oldest straggling chunk
   (held longer than ``straggler_factor × ttl`` without completing).
   Safe because chunk ``k`` is content-deterministic: whichever copy
   finishes first wins and the loser's completion is byte-identical.

None of this affects results — scheduling decides *when and where* a
chunk runs, and the seeding scheme guarantees the *what* is invariant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.campaign.backoff import BackoffPolicy
from repro.errors import CampaignError

__all__ = ["Lease", "LeaseTable"]


@dataclass
class Lease:
    """One worker's claim on one chunk.

    ``attempt`` is the 1-based execution attempt this lease represents
    (across all workers); ``speculative`` marks a duplicate lease
    granted against a straggler; ``origin`` records how the claim was
    satisfied (``"range"``, ``"retry"``, ``"steal"``, or
    ``"speculation"``) for the campaign status report.
    Units: granted_at [s], last_heartbeat [s]
    """

    chunk: int
    worker: str
    granted_at: float
    last_heartbeat: float
    attempt: int
    speculative: bool = False
    origin: str = "range"

    def age(self, now: float) -> float:
        """Seconds since the lease was granted."""
        return max(now - self.granted_at, 0.0)

    def silence(self, now: float) -> float:
        """Seconds since the last heartbeat (or grant)."""
        return max(now - self.last_heartbeat, 0.0)


class LeaseTable:
    """Chunk-space scheduler for one sharded campaign.

    Parameters
    ----------
    chunks:
        The chunks still to run (completed ones never enter the table).
    workers:
        Worker ids; each gets a contiguous slice of ``chunks``.
    fingerprint:
        Campaign fingerprint — the backoff seed material.
    backoff:
        Deterministic retry-delay policy (reused from the sequential
        runner so sharded and unsharded campaigns back off identically).
    ttl:
        Lease time-to-live [s]: a lease with no heartbeat for ``ttl``
        seconds is expired and its chunk re-dispatched.
    straggler_factor:
        A lease older than ``straggler_factor * ttl`` (yet still
        heartbeating) is a straggler, eligible for speculative
        duplication.
    """

    def __init__(
        self,
        chunks: Sequence[int],
        workers: Sequence[str],
        fingerprint: str,
        backoff: Optional[BackoffPolicy] = None,
        ttl: float = 30.0,
        straggler_factor: float = 4.0,
    ) -> None:
        if not workers:
            raise CampaignError("lease table needs at least one worker")
        if len(set(workers)) != len(workers):
            raise CampaignError(f"worker ids must be unique, got {workers}")
        if ttl <= 0.0:
            raise CampaignError(f"lease ttl must be > 0, got {ttl}")
        if straggler_factor < 1.0:
            raise CampaignError(
                f"straggler_factor must be >= 1, got {straggler_factor}"
            )
        self._fingerprint = fingerprint
        self._backoff = backoff if backoff is not None else BackoffPolicy()
        self._ttl = ttl
        self._straggler_factor = straggler_factor
        ordered = sorted(set(int(chunk) for chunk in chunks))
        self._ranges: Dict[str, Deque[int]] = {w: deque() for w in workers}
        for position, chunk in enumerate(ordered):
            # Contiguous slices: worker i gets chunks [i*k, (i+1)*k).
            slot = min(
                position * len(workers) // max(len(ordered), 1),
                len(workers) - 1,
            )
            self._ranges[list(workers)[slot]].append(chunk)
        #: chunk -> active leases (>1 only while a speculation is live).
        self._active: Dict[int, List[Lease]] = {}
        #: (eligible_at [s], chunk) — no active lease by construction.
        self._retry: List[Tuple[float, int]] = []
        self._attempts: Dict[int, int] = {}
        self._outstanding = set(ordered)
        # Operational counters, surfaced via campaign status and repro.obs.
        self.claims = 0
        self.steals = 0
        self.speculations = 0
        self.expirations = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ttl(self) -> float:
        """Lease time-to-live [s]."""
        return self._ttl

    def outstanding(self) -> int:
        """Chunks not yet completed."""
        return len(self._outstanding)

    def in_flight(self) -> int:
        """Active leases (speculative duplicates counted)."""
        return sum(len(leases) for leases in self._active.values())

    def active_leases(self) -> List[Lease]:
        """All active leases (copy; mutation-safe)."""
        return [
            lease for leases in self._active.values() for lease in leases
        ]

    def attempts(self, chunk: int) -> int:
        """Execution attempts granted to ``chunk`` so far."""
        return self._attempts.get(chunk, 0)

    # ------------------------------------------------------------------
    # Claims
    # ------------------------------------------------------------------
    def claim(self, worker: str, now: float) -> Optional[Lease]:
        """Grant ``worker`` its next chunk, or ``None`` if nothing fits.

        Units: now [s]
        """
        if worker not in self._ranges:
            raise CampaignError(f"unknown worker {worker!r}")
        origin = "retry"
        chunk = self._claim_retry(now)
        if chunk is None:
            chunk, origin = self._claim_range(worker)
        if chunk is None:
            chunk = self._claim_speculative(worker, now)
            origin = "speculation"
        if chunk is None:
            return None
        attempt = self._attempts.get(chunk, 0) + 1
        self._attempts[chunk] = attempt
        lease = Lease(
            chunk=chunk,
            worker=worker,
            granted_at=now,
            last_heartbeat=now,
            attempt=attempt,
            speculative=origin == "speculation",
            origin=origin,
        )
        self._active.setdefault(chunk, []).append(lease)
        self.claims += 1
        return lease

    def _claim_retry(self, now: float) -> Optional[int]:
        eligible = [
            entry for entry in self._retry if entry[0] <= now
        ]
        if not eligible:
            return None
        entry = min(eligible, key=lambda item: item[1])
        self._retry.remove(entry)
        return entry[1]

    def _claim_range(self, worker: str) -> Tuple[Optional[int], str]:
        own = self._ranges[worker]
        if own:
            return own.popleft(), "range"
        victim = max(
            (w for w in self._ranges if self._ranges[w]),
            key=lambda w: len(self._ranges[w]),
            default=None,
        )
        if victim is None:
            return None, "range"
        # Steal from the tail: the victim keeps draining its front, so
        # the two never contend for the same chunk.
        chunk = self._ranges[victim].pop()
        self.steals += 1
        return chunk, "steal"

    def _claim_speculative(self, worker: str, now: float) -> Optional[int]:
        threshold = self._straggler_factor * self._ttl
        candidates = [
            leases[0]
            for leases in self._active.values()
            if len(leases) == 1
            and leases[0].worker != worker
            and leases[0].age(now) > threshold
        ]
        if not candidates:
            return None
        straggler = min(candidates, key=lambda lease: lease.granted_at)
        self.speculations += 1
        return straggler.chunk

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def heartbeat(self, worker: str, chunk: int, now: float) -> bool:
        """Renew ``worker``'s lease on ``chunk``; ``False`` if none.

        A late heartbeat from an already-expired lease is harmless: the
        chunk was re-dispatched, and if the straggler still completes,
        its byte-identical duplicate completion is absorbed.

        Units: now [s]
        """
        for lease in self._active.get(chunk, []):
            if lease.worker == worker:
                lease.last_heartbeat = now
                return True
        return False

    def expire(self, now: float) -> List[Tuple[Lease, Optional[float]]]:
        """Expire silent leases; returns ``(lease, requeue_delay)`` pairs.

        ``requeue_delay`` [s] is the deterministic backoff before the
        chunk becomes claimable again, or ``None`` when another live
        lease (a speculative twin) still covers the chunk.

        Units: now [s]
        """
        expired: List[Tuple[Lease, Optional[float]]] = []
        for chunk in list(self._active):
            for lease in list(self._active[chunk]):
                if lease.silence(now) > self._ttl:
                    delay = self._release(lease, now)
                    self.expirations += 1
                    expired.append((lease, delay))
        return expired

    def fail(self, worker: str, chunk: int, now: float) -> Optional[float]:
        """Release ``worker``'s lease after a reported chunk error.

        Returns the requeue delay [s] (``None`` if a twin still runs the
        chunk).  Raises :class:`~repro.errors.CampaignError` once the
        chunk has burned the backoff policy's full attempt budget —
        worker-reported errors are infrastructure failures, and a chunk
        that kills every attempt needs a human, not another retry.
        """
        lease = self._find(worker, chunk)
        if lease is None:
            return None
        if self._attempts.get(chunk, 0) >= self._backoff.max_attempts:
            raise CampaignError(
                f"chunk {chunk} failed {self._attempts[chunk]} attempts "
                f"(budget {self._backoff.max_attempts}); giving up"
            )
        return self._release(lease, now)

    def release_worker(
        self, worker: str, now: float
    ) -> List[Tuple[Lease, Optional[float]]]:
        """Release every lease of a dead worker and requeue its range.

        The worker's unclaimed contiguous range is redistributed to the
        longest-range survivor (stealing handles the rest organically).

        Units: now [s]
        """
        released: List[Tuple[Lease, Optional[float]]] = []
        for chunk in list(self._active):
            for lease in list(self._active[chunk]):
                if lease.worker == worker:
                    released.append((lease, self._release(lease, now)))
        orphaned = self._ranges.pop(worker, deque())
        if self._ranges:
            heir = max(self._ranges, key=lambda w: len(self._ranges[w]))
            self._ranges[heir].extend(orphaned)
        return released

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def complete(self, chunk: int) -> List[Lease]:
        """Mark ``chunk`` done; returns the leases that were released.

        Idempotent: a duplicate completion (speculative twin finishing
        second) returns an empty list.  Also scrubs the chunk from the
        retry pool and every range — completion beats every pending
        re-dispatch.
        """
        released = self._active.pop(chunk, [])
        self._retry = [entry for entry in self._retry if entry[1] != chunk]
        for own in self._ranges.values():
            if chunk in own:
                own.remove(chunk)
        self._outstanding.discard(chunk)
        return released

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find(self, worker: str, chunk: int) -> Optional[Lease]:
        for lease in self._active.get(chunk, []):
            if lease.worker == worker:
                return lease
        return None

    def _release(self, lease: Lease, now: float) -> Optional[float]:
        """Drop ``lease``; requeue its chunk unless a twin survives.

        Returns the requeue delay [s], or ``None`` when no requeue
        happened.
        """
        leases = self._active.get(lease.chunk, [])
        if lease in leases:
            leases.remove(lease)
        if not leases:
            self._active.pop(lease.chunk, None)
            if lease.chunk in self._outstanding:
                delay = self._backoff.delay(
                    self._fingerprint, lease.chunk, max(lease.attempt, 1)
                )
                self._retry.append((now + delay, lease.chunk))
                return delay
        return None
