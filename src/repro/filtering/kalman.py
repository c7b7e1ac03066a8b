"""Kalman filter over noisy ``(p, v)`` measurements.

Implements the filter of Section III-B of the paper for the 1-D
double-integrator vehicle, with exactly the matrices printed there:

.. math::

    F = \\begin{bmatrix}1 & \\Delta t_s\\\\ 0 & 1\\end{bmatrix},\\quad
    G = \\begin{bmatrix}0.5\\,\\Delta t_s^2\\\\ \\Delta t_s\\end{bmatrix},\\quad
    Q = \\begin{bmatrix}0.25\\,\\Delta t_s^4 & 0.5\\,\\Delta t_s^3\\\\
                        0.5\\,\\Delta t_s^3 & \\Delta t_s^2\\end{bmatrix}
        \\frac{\\delta_a^2}{3},\\quad
    R = \\begin{bmatrix}\\delta_p^2/3 & 0\\\\ 0 & \\delta_v^2/3\\end{bmatrix}

where the ``delta^2/3`` terms are the variances of the paper's uniform
measurement errors.  The state is the full ``[p, v]`` vector (the
measurement matrix is the identity), the control input is the *measured*
acceleration ``a_s``, and process noise ``Q`` accounts for its
uncertainty.

The update uses the Joseph-form covariance update printed in the paper,
which stays symmetric positive-semidefinite under roundoff.

Every matrix is ``2x2`` and ``R`` is diagonal, so the filter works on
scalars: a state is its time, the two means and the three distinct
covariance entries, and each step is the matrix product written out by
hand, in :meth:`KalmanFilter.extrapolate_floats` and
:meth:`KalmanFilter.update_floats`.  The matrix filter these expand,
with ``F``, ``G``, ``Q`` and ``R`` as arrays, is kept in
``tests/kalman_oracle.py``, which certifies both kernels against it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from repro.errors import FilterError
from repro.sensing.noise import NoiseBounds
from repro.utils.validation import check_nonnegative

__all__ = ["KalmanState", "KalmanFilter"]

#: The six fields of a :class:`KalmanState`, in its order, as floats:
#: time, the two means and the three distinct covariance entries.
Fields = Tuple[float, float, float, float, float, float]


def _project_psd(
    p00: float, p01: float, p11: float, floor: float = 0.0
) -> Tuple[float, float, float]:
    """Clamp a symmetric ``2x2`` covariance onto the PSD cone.

    Both variances are raised to at least ``floor`` and the covariance
    term is clipped to the Cauchy-Schwarz bound ``sqrt(p00 * p11)``.
    The clamps are ``max``/``min`` written as conditionals, with the
    same result: a tie keeps the first argument (so ``-0.0`` survives
    ``max(-0.0, 0.0)``) and a NaN first argument comes back unchanged.
    """
    # max(p00, floor) and max(p11, floor).
    p00 = floor if floor > p00 else p00
    p11 = floor if floor > p11 else p11
    cross = math.sqrt(p00 * p11)
    # min(max(p01, -cross), cross).
    low = -cross
    p01 = low if low > p01 else p01
    return p00, cross if cross < p01 else p01, p11


#: Finite floats lie strictly between these; NaN fails both comparisons.
_INF = math.inf


def _checked(fields: Fields) -> Fields:
    """``fields`` of a state unchanged; raises as :class:`KalmanState` does.

    The fields are those of :class:`KalmanState`, in its order.
    """
    _, position, velocity, p00, p01, p11 = fields
    if not (-_INF < position < _INF and -_INF < velocity < _INF):
        raise FilterError(f"non-finite state estimate: [{position}, {velocity}]")
    if not (-_INF < p00 < _INF and -_INF < p01 < _INF and -_INF < p11 < _INF):
        raise FilterError(f"non-finite covariance: [{p00}, {p01}, {p11}]")
    return fields


class _StateFields(NamedTuple):
    time: float
    position: float
    velocity: float
    p00: float
    p01: float
    p11: float


class KalmanState(_StateFields):
    """The estimate ``[p, v]`` and its covariance ``P`` at a given time.

    Stored as scalars: ``position`` and ``velocity`` are the estimate;
    ``p00``, ``p01`` and ``p11`` are the variances and the covariance of
    the symmetric ``P``.  Instances are immutable tuples, so they are
    safe to checkpoint for message replay, and the five estimate values
    of every one are checked finite on construction.

    Units: time [s], position [m], velocity [m/s], p00 [m^2],
    p01 [m^2/s], p11 [m^2/s^2]
    """

    __slots__ = ()

    def __new__(
        cls,
        time: float,
        position: float,
        velocity: float,
        p00: float,
        p01: float,
        p11: float,
    ) -> "KalmanState":
        return tuple.__new__(
            cls, _checked((time, position, velocity, p00, p01, p11))
        )


class KalmanFilter:
    """The paper's constant-matrix Kalman filter for one remote vehicle.

    The filter is *functional*: :meth:`extrapolate_floats` and
    :meth:`update_floats` take and return a state's six fields instead of
    mutating internal state.  The message-replay wrapper exploits this to
    re-run stretches of the filter from a message's exact state.  Every
    step names its own horizon, so the filter holds no step length.

    Parameters
    ----------
    bounds:
        Sensor noise bounds; fix the measurement covariance ``R`` and the
        process noise ``Q`` via the uniform-error variances.
    """

    def __init__(self, bounds: NoiseBounds) -> None:
        self._bounds = bounds
        self._accel_var = bounds.acceleration_variance
        self._r_p = bounds.position_variance
        self._r_v = bounds.velocity_variance

    @property
    def bounds(self) -> NoiseBounds:
        """The sensor noise bounds the filter was built for."""
        return self._bounds

    # ------------------------------------------------------------------
    # Filter steps
    # ------------------------------------------------------------------
    @staticmethod
    def initial_state(
        time: float,
        position: float,
        velocity: float,
        position_var: float,
        velocity_var: float,
    ) -> KalmanState:
        """Build the prior ``[position, velocity]`` with a diagonal ``P``.

        Units: time [s], position [m], velocity [m/s]

        Effects: pure
        """
        check_nonnegative(position_var, "position_var")
        check_nonnegative(velocity_var, "velocity_var")
        return KalmanState(
            float(time),
            float(position),
            float(velocity),
            float(position_var),
            0.0,
            float(velocity_var),
        )

    def update_floats(
        self,
        predicted: Fields,
        position_measured: float,
        velocity_measured: float,
    ) -> Fields:
        """Fold in a ``(p_s, v_s)`` measurement at the predicted time.

        Units: position_measured [m], velocity_measured [m/s]

        Effects: pure

        ``predicted`` is a :class:`KalmanState` or any tuple of its
        fields; the posterior's fields come back.  Uses the paper's gain
        ``K = P (P + R)^{-1}`` (the measurement matrix is the identity)
        and the Joseph-form covariance update, both expanded for ``2x2``
        matrices with a diagonal ``R``; the result is checked finite as
        :class:`KalmanState` checks it, with the same errors.
        """
        r_p = self._r_p
        r_v = self._r_v
        time, x_p, x_v, p00, p01, p11 = predicted
        if r_p == 0.0 and r_v == 0.0:
            # Noiseless sensing (R = 0): the measurement is exact and the
            # posterior is the measurement with zero uncertainty.  This
            # keeps the perfect-communication test setups working.
            return _checked(
                (time, float(position_measured), float(velocity_measured), 0.0, 0.0, 0.0)
            )
        # S = P + R and its determinant; K = P S^{-1} with the explicit
        # 2x2 inverse S^{-1} = [[s11, -p01], [-p01, s00]] / det.
        s00 = p00 + r_p
        s11 = p11 + r_v
        det = s00 * s11 - p01 * p01
        if det == 0.0:
            raise FilterError(
                "singular innovation covariance; use a nonzero noise bound "
                "or a nonzero prior variance"
            )
        k00 = (p00 * s11 - p01 * p01) / det
        k01 = (p01 * s00 - p00 * p01) / det
        k10 = (p01 * s11 - p11 * p01) / det
        k11 = (p11 * s00 - p01 * p01) / det
        y_p = float(position_measured) - x_p
        y_v = float(velocity_measured) - x_v
        # Joseph form (I-K) P (I-K)' + K R K' with A = I - K.
        a00 = 1.0 - k00
        a11 = 1.0 - k11
        ap00 = a00 * p00 - k01 * p01
        ap01 = a00 * p01 - k01 * p11
        ap10 = a11 * p01 - k10 * p00
        ap11 = a11 * p11 - k10 * p01
        j00 = ap00 * a00 - ap01 * k01 + (k00 * k00 * r_p + k01 * k01 * r_v)
        j01 = -ap00 * k10 + ap01 * a11 + (k00 * k10 * r_p + k01 * k11 * r_v)
        j10 = ap10 * a00 - ap11 * k01 + (k10 * k00 * r_p + k11 * k01 * r_v)
        j11 = -ap10 * k10 + ap11 * a11 + (k10 * k10 * r_p + k11 * k11 * r_v)
        # Joseph form is symmetric PSD in exact arithmetic only; project
        # out the roundoff so long replayed chains cannot accumulate an
        # indefinite covariance (negative variance -> NaN bands).
        q00, q01, q11 = _project_psd(j00, 0.5 * (j01 + j10), j11)
        return _checked(
            (
                time,
                x_p + (k00 * y_p + k01 * y_v),
                x_v + (k10 * y_p + k11 * y_v),
                q00,
                q01,
                q11,
            )
        )

    def extrapolate_floats(
        self, state: Fields, accel_measured: float, dt: float
    ) -> Fields:
        """Predict over a horizon ``dt``: ``x <- F x + G a_s``, ``P <- F P F' + Q``.

        Units: accel_measured [m/s^2], dt [s]

        Effects: pure

        ``state`` is a :class:`KalmanState` or any tuple of its fields;
        the prediction's fields come back, and ``state`` itself over a
        zero horizon.  Used for the filter step between readings, for
        estimates between sensor samples (the runtime monitor runs every
        control step ``dt_c``, finer than the sensing period) and for
        message replay when the message stamp is not aligned with the
        sensing schedule.  ``F``, ``G`` and ``Q`` are those of the
        requested horizon, with ``F P F'`` written out; the result is
        checked finite as :class:`KalmanState` checks it, with the same
        errors.
        """
        dt = float(dt)
        if dt < 0.0:
            raise FilterError(f"extrapolation horizon must be >= 0, got {dt}")
        if dt == 0.0:
            return state
        time, x_p, x_v, p00, p01, p11 = state
        a = float(accel_measured)
        dt2 = dt * dt
        var = self._accel_var
        # F P F' + Q with F = [[1, dt], [0, 1]].
        p01_dt = p01 + dt * p11
        return _checked(
            (
                time + dt,
                x_p + dt * x_v + 0.5 * dt2 * a,
                x_v + dt * a,
                p00 + dt * p01 + dt * p01_dt + 0.25 * dt2 * dt2 * var,
                p01_dt + 0.5 * dt2 * dt * var,
                p11 + dt2 * var,
            )
        )

    def exact_state(
        self, time: float, position: float, velocity: float
    ) -> KalmanState:
        """A zero-covariance state from exact (message) values.

        Units: time [s], position [m], velocity [m/s]

        Effects: pure

        Message content is accurate in the paper's model, so replay
        restarts the filter from the message state with zero uncertainty.
        """
        return KalmanState(
            float(time), float(position), float(velocity), 0.0, 0.0, 0.0
        )
