"""The runner ↔ shard worker wire protocol: one JSON object per line.

The shard layer deliberately reuses the journal's framing philosophy:
every message is a single newline-terminated canonical JSON line, and a
line that fails to parse is *dropped*, never guessed at.  A SIGKILLed
worker can leave a torn final line in its stdout pipe; the runner
treats it exactly like the journal treats a torn tail — the chunk the
worker was running simply has no ``completed`` event, the worker's EOF
hands it back, and it is re-dispatched.

Commands (runner → worker stdin)
    ``{"cmd": "run", "chunk": k, "backoff": {...}}`` — run chunk ``k``
        of the manifest under the runner's
        :class:`~repro.campaign.backoff.BackoffPolicy` fields.
    ``{"cmd": "shutdown"}`` — exit cleanly after the reply.

Events (worker → runner stdout)
    ``ready``      — worker booted and loaded the manifest (carries pid).
    ``started``    — chunk execution began (implicit first heartbeat).
    ``heartbeat``  — liveness during a chunk, from a timer whenever the
                     chunk has been quiet for the heartbeat interval.
    ``retry``      — an attempt of the chunk had transient failures and
                     is re-run after ``delay`` seconds (``attempt`` is
                     the next attempt's number); journaled as
                     ``chunk_retry`` and counted as a heartbeat.
    ``completed``  — snapshot durably persisted (its last attempt, with
                     any failures); carries the content digest the
                     runner journals.
    ``error``      — an exception escaped the worker's executor; the
                     runner re-dispatches with backoff, within the
                     chunk's attempt budget.

Messages are data, not trust: the runner type-checks every field it
uses and drops a malformed event whole (and any event about a chunk
from a worker that does not hold that chunk), and it validates digests
against snapshots at finalisation, so a malicious or corrupt event can
delay a campaign but never alter its aggregate bytes.
"""

from __future__ import annotations

import json
from typing import Optional

__all__ = [
    "decode_line",
    "encode_message",
    "COMMAND_RUN",
    "COMMAND_SHUTDOWN",
    "EVENT_READY",
    "EVENT_STARTED",
    "EVENT_HEARTBEAT",
    "EVENT_RETRY",
    "EVENT_COMPLETED",
    "EVENT_ERROR",
]

COMMAND_RUN = "run"
COMMAND_SHUTDOWN = "shutdown"

EVENT_READY = "ready"
EVENT_STARTED = "started"
EVENT_HEARTBEAT = "heartbeat"
EVENT_RETRY = "retry"
EVENT_COMPLETED = "completed"
EVENT_ERROR = "error"


def encode_message(message: dict) -> bytes:
    """One protocol message as a newline-terminated UTF-8 JSON line."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> Optional[dict]:
    """Parse one protocol line; ``None`` for anything malformed.

    Torn lines (a SIGKILL mid-write), stray prints from user code, and
    non-object JSON all map to ``None`` — the caller drops them and
    relies on the worker's EOF or ``lease_ttl`` kill, never on guessing.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(message, dict):
        return None
    return message
