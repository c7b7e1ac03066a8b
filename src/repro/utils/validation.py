"""Argument-validation helpers.

Small, explicit checks used in constructors throughout the library.  Each
helper raises :class:`repro.errors.ConfigurationError` with a message that
names the offending parameter, which keeps the constructors readable:

>>> dt_c = check_positive(0.05, "dt_c")
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigurationError

__all__ = [
    "check_finite",
    "check_nonnegative",
    "check_positive",
    "check_probability",
    "check_range",
    "check_multiple",
    "check_flag_positive",
    "check_flag_count",
    "check_flag_below",
]


def check_finite(value: float, name: str) -> float:
    """Ensure ``value`` is a finite float and return it as ``float``."""
    v = float(value)
    if not math.isfinite(v):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return v


def check_positive(value: float, name: str) -> float:
    """Ensure ``value`` is finite and strictly positive."""
    v = check_finite(value, name)
    if v <= 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return v


def check_nonnegative(value: float, name: str) -> float:
    """Ensure ``value`` is finite and not negative."""
    v = check_finite(value, name)
    if v < 0.0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return v


def check_probability(value: float, name: str) -> float:
    """Ensure ``value`` lies in ``[0, 1]``."""
    v = check_finite(value, name)
    if not 0.0 <= v <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return v


def check_range(lo: float, hi: float, lo_name: str, hi_name: str) -> tuple[float, float]:
    """Ensure ``lo <= hi``; either endpoint may be infinite."""
    lo_f = float(lo)
    hi_f = float(hi)
    if math.isnan(lo_f) or math.isnan(hi_f):
        raise ConfigurationError(f"{lo_name}/{hi_name} must not be NaN")
    if lo_f > hi_f:
        raise ConfigurationError(
            f"{lo_name} must be <= {hi_name}, got {lo_name}={lo!r}, {hi_name}={hi!r}"
        )
    return lo_f, hi_f


def check_multiple(
    value: float,
    base: float,
    value_name: str,
    base_name: str,
    rel_tol: float = 1e-9,
) -> float:
    """Ensure ``value`` is (numerically) an integer multiple of ``base``.

    The simulation clock requires the message and sensor periods to align
    with the control period; this check catches drifting-period mistakes at
    construction time instead of producing silently skewed schedules.
    """
    v = check_positive(value, value_name)
    b = check_positive(base, base_name)
    ratio = v / b
    if abs(ratio - round(ratio)) > rel_tol * max(1.0, ratio):
        raise ConfigurationError(
            f"{value_name} ({value!r}) must be an integer multiple of "
            f"{base_name} ({base!r})"
        )
    return v


def check_optional_positive(value: Optional[float], name: str) -> Optional[float]:
    """Like :func:`check_positive` but passes ``None`` through."""
    if value is None:
        return None
    return check_positive(value, name)


# ---------------------------------------------------------------------------
# Command-line flag validation.
#
# Every CLI in the repo (repro-campaign, repro-obs) funnels its numeric
# knobs through these helpers so a nonsensical value — NaN smuggled
# through ``--chunk-timeout nan``, a zero worker count, a negative lease
# TTL — fails fast with the *flag name* in the message, before anything
# touches disk.  They raise ConfigurationError, which every CLI maps to
# its "invalid flag" exit code.
# ---------------------------------------------------------------------------
def check_flag_positive(value: float, flag: str) -> float:
    """Validate a strictly positive, finite command-line flag value.

    Rejects NaN, infinities, zero, and negatives — ``argparse`` happily
    parses all of them as floats.
    """
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise ConfigurationError(
            f"{flag} must be a finite number > 0, got {value!r}"
        )
    return v


def check_flag_count(value: int, flag: str, minimum: int = 0) -> int:
    """Validate an integer command-line knob (worker counts, depths)."""
    v = int(value)
    if v < minimum:
        raise ConfigurationError(f"{flag} must be >= {minimum}, got {value!r}")
    return v


def check_flag_below(
    value: float,
    flag: str,
    bound: float,
    bound_flag: str,
    reason: str = "",
) -> float:
    """Validate that one flag stays strictly below another.

    Used for period-vs-timeout pairs (a heartbeat interval at or above
    its lease TTL would expire every healthy lease).
    """
    v = float(value)
    if not v < bound:
        suffix = f"; {reason}" if reason else ""
        raise ConfigurationError(
            f"{flag} ({value!r}) must be below {bound_flag} ({bound!r})"
            f"{suffix}"
        )
    return v
