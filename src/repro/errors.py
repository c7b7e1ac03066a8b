"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` from
misuse of numpy, etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent or invalid parameters.

    Examples: a negative time step, a sensor period that is not a multiple
    of the control period, velocity bounds with ``v_min > v_max``.
    """


class IntervalError(ReproError):
    """An interval operation received or produced an invalid interval."""


class EmptyIntervalError(IntervalError):
    """An operation that requires a non-empty interval got an empty one."""


class FilterError(ReproError):
    """The information filter reached an inconsistent internal state."""


class ReplayError(FilterError):
    """A message cannot be replayed (it is stamped after its arrival)."""


class PlannerError(ReproError):
    """A planner failed to produce a usable control decision."""


class PlannerFaultError(PlannerError):
    """An *injected* planner failure (see :mod:`repro.faults`).

    Raised by fault-injection wrappers to emulate a crashing planner
    process.  It derives from :class:`PlannerError` so the compound
    planner's containment path (fall back to the emergency planner)
    catches it like any genuine planner failure, while chaos tests can
    still distinguish injected faults from real ones.
    """


class FaultInjectionError(ReproError):
    """A fault plan is inconsistent or was applied to an unsupported hook."""


class TrainingError(ReproError):
    """Neural-network training could not complete."""


class SerializationError(ReproError):
    """Saving or loading a model or result record failed."""


class SimulationError(ReproError):
    """The closed-loop simulation engine reached an invalid state."""


class ScenarioError(ReproError):
    """A scenario definition is inconsistent (e.g. unsafe area reversed)."""


class CampaignError(ReproError):
    """A durable campaign could not be started, resumed, or verified."""


class FingerprintMismatchError(CampaignError):
    """The manifest on disk no longer matches the journaled fingerprint.

    Resuming a campaign whose manifest changed would silently mix results
    from two different workloads; the resume is refused instead.  Start a
    fresh campaign directory for the new manifest.
    """


class JournalCorruptionError(CampaignError):
    """The write-ahead journal is damaged beyond the torn-tail case.

    A *torn tail* — a final record cut short by a crash mid-write — is
    expected and silently truncated on resume.  Damage anywhere else
    (checksum mismatch, out-of-sequence record, invalid JSON followed by
    further records) means the file was edited or the storage corrupted,
    and is surfaced instead of guessed around.
    """


class LintError(ReproError):
    """The safelint static-analysis pass could not run as configured.

    Examples: an unreadable baseline file, an unknown rule id passed to
    ``--select``, a path that is neither a file nor a directory.  Rule
    *findings* are never exceptions — they are data (see
    :mod:`repro.lint.findings`).
    """


class SafetyViolationError(SimulationError):
    """Raised (optionally) when a planner that promised safety entered X_u.

    The simulation engine normally *records* violations rather than raising
    so that unsafe baselines (the pure aggressive NN planner of Table II)
    can be evaluated.  Strict mode turns a violation by a compound planner
    into this exception, because that would falsify the paper's theorem and
    indicates a bug in the monitor or emergency planner.
    """
