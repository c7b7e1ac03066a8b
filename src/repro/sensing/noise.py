"""Sensor noise bounds.

The paper assumes each sensed quantity is uniformly distributed within
``±delta`` of the true value (Section II-A, "Sensor"): position within
``delta_p``, velocity within ``delta_v``, acceleration within ``delta_a``.
The Kalman filter's measurement covariance ``R`` uses the variance of that
uniform distribution, ``delta^2 / 3`` — exactly the matrices printed in
Section III-B.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_nonnegative

__all__ = ["NoiseBounds"]


@dataclass(frozen=True, slots=True)
class NoiseBounds:
    """Half-width noise bounds ``(delta_p, delta_v, delta_a)``.

    The paper's sensor-uncertainty sweep sets all three equal
    (``delta in {1 + 0.2 j}``); :meth:`uniform_all` builds that case.
    """

    delta_p: float
    delta_v: float
    delta_a: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_p", check_nonnegative(self.delta_p, "delta_p"))
        object.__setattr__(self, "delta_v", check_nonnegative(self.delta_v, "delta_v"))
        object.__setattr__(self, "delta_a", check_nonnegative(self.delta_a, "delta_a"))

    @classmethod
    def uniform_all(cls, delta: float) -> "NoiseBounds":
        """Equal bounds on all three channels, as in the paper's sweep."""
        return cls(delta_p=delta, delta_v=delta, delta_a=delta)

    @classmethod
    def noiseless(cls) -> "NoiseBounds":
        """Perfect sensing (zero bounds) — used in unit tests."""
        return cls(delta_p=0.0, delta_v=0.0, delta_a=0.0)

    @property
    def position_variance(self) -> float:
        """Variance of the uniform position error: ``delta_p^2 / 3``."""
        return self.delta_p * self.delta_p / 3.0

    @property
    def velocity_variance(self) -> float:
        """Variance of the uniform velocity error: ``delta_v^2 / 3``."""
        return self.delta_v * self.delta_v / 3.0

    @property
    def acceleration_variance(self) -> float:
        """Variance of the uniform acceleration error: ``delta_a^2 / 3``."""
        return self.delta_a * self.delta_a / 3.0
