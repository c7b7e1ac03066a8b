"""Chaos hooks for hardening the execution harness itself.

Channel and engine faults disturb the *simulated* world; the hook here
disturbs the *infrastructure* running it, so the crash tolerance of
:class:`~repro.sim.runner.BatchRunner` can be exercised
deterministically in tests and benchmarks.

:class:`WorkerChaosOnce` misbehaves in exactly one watchdog worker call
per sentinel file: the first call to atomically create the sentinel
suffers the configured failure mode, and every retry after that runs
clean.  Because
:func:`~repro.campaign.runner.run_chunk_attempts` re-runs transiently
failed indices with the same seeds, a batch recovered through it under
``WorkerChaosOnce`` must be bit-identical to an undisturbed run — which
is what the chaos certification benchmark asserts.

Failure modes
-------------

* ``"exit"`` — the worker dies via ``os._exit`` (no cleanup, no
  exception; indistinguishable from an OOM kill or segfault from the
  parent's point of view, surfacing as an ``EOFError`` on its pipe).
* ``"garbage"`` — the worker returns a malformed payload instead of its
  result list (exercising the parent's result validation).
* ``"hang"`` — the worker sleeps far past any per-simulation timeout
  (exercising the parent's timeout/SIGKILL path).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.errors import FaultInjectionError

__all__ = ["WorkerChaosOnce"]

_MODES = ("exit", "garbage", "hang")


@dataclass(frozen=True)
class WorkerChaosOnce:
    """Make the first worker call that claims the sentinel misbehave.

    Attributes
    ----------
    sentinel:
        Filesystem path used as an atomic once-only latch
        (``open(O_CREAT | O_EXCL)``).  Use a path inside a per-test
        temporary directory.
    mode:
        One of ``"exit"``, ``"garbage"``, ``"hang"`` (see module docs).
    exit_code:
        Process exit status under ``"exit"``.
    hang_seconds:
        Sleep length under ``"hang"``; pick it far above the runner's
        per-simulation timeout so the parent, not the sleep, decides.

    Units: hang_seconds [s]
    """

    sentinel: str
    mode: str = "exit"
    exit_code: int = 117
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise FaultInjectionError(
                f"WorkerChaosOnce.mode must be one of {_MODES}, "
                f"got {self.mode!r}"
            )
        if self.hang_seconds <= 0.0:
            raise FaultInjectionError(
                f"hang_seconds must be > 0, got {self.hang_seconds!r}"
            )

    def claim(self) -> bool:
        """Atomically claim the sentinel; ``True`` for the first caller."""
        try:
            fd = os.open(self.sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def armed(self) -> bool:
        """Whether the chaos is still pending (sentinel unclaimed)."""
        return not os.path.exists(self.sentinel)

    def apply(self) -> bool:
        """Misbehave if this call is the first to claim the sentinel.

        Returns ``True`` when the caller should return garbage
        (``mode="garbage"``); otherwise returns ``False`` — after
        crashing the process (``"exit"``) or sleeping out the hang
        (``"hang"``) as a side effect.
        """
        if not self.claim():
            return False
        if self.mode == "exit":
            os._exit(self.exit_code)
        if self.mode == "hang":
            time.sleep(self.hang_seconds)
            return False
        return True
