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
hand.  The matrices themselves stay available (``f_matrix`` ...
``r_matrix``, ``KalmanState.x_hat``/``covariance``) for checking the
equations.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

import numpy as np

from repro.errors import FilterError
from repro.sensing.noise import NoiseBounds
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["KalmanState", "KalmanFilter", "symmetrize_psd"]

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


def symmetrize_psd(covariance: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Project a near-symmetric ``2x2`` covariance onto the PSD cone.

    Floating-point products like ``(I-K) P (I-K)' + K R K'`` are
    symmetric in exact arithmetic but drift by a few ulps per update;
    over thousands of replayed filter steps the drift compounds and can
    push an eigenvalue (or a diagonal variance) slightly negative, after
    which ``sqrt`` of a variance produces NaN and the whole estimate
    chain collapses.  This guard

    1. averages the matrix with its transpose (exact symmetry),
    2. clamps both variances to at least ``floor`` (>= 0), and
    3. clamps the covariance term to ``|p01| <= sqrt(p00 * p11)``, the
       Cauchy-Schwarz bound, which for a symmetric ``2x2`` matrix with
       non-negative diagonal is exactly PSD.

    A matrix that already satisfies all three comes back unchanged up to
    the symmetrization average.

    Shapes: covariance [2, 2] -> [2, 2]
    """
    p = np.asarray(covariance, dtype=float)
    p00, p01, p11 = _project_psd(
        float(p[0, 0]), 0.5 * (float(p[0, 1]) + float(p[1, 0])), float(p[1, 1]), floor
    )
    return np.array([[p00, p01], [p01, p11]])


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
    """An estimate/covariance pair ``(x_hat, P)`` at a given time.

    Stored as scalars: ``position`` and ``velocity`` are ``x_hat``;
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

    @property
    def x_hat(self) -> np.ndarray:
        """The ``[p, v]`` column vector (a fresh read-only array).

        Shapes: -> [2, 1]
        """
        x = np.array([[self.position], [self.velocity]])
        x.flags.writeable = False
        return x

    @property
    def covariance(self) -> np.ndarray:
        """The symmetric covariance ``P`` (a fresh read-only array).

        Shapes: -> [2, 2]
        """
        p = np.array([[self.p00, self.p01], [self.p01, self.p11]])
        p.flags.writeable = False
        return p

    @property
    def position_std(self) -> float:
        """Standard deviation of the position estimate."""
        return math.sqrt(max(self.p00, 0.0))

    @property
    def velocity_std(self) -> float:
        """Standard deviation of the velocity estimate."""
        return math.sqrt(max(self.p11, 0.0))

class KalmanFilter:
    """The paper's constant-matrix Kalman filter for one remote vehicle.

    The filter is *functional*: :meth:`predict` and :meth:`update` take
    and return :class:`KalmanState` values instead of mutating internal
    state.  The message-replay wrapper exploits this to re-run stretches
    of the filter from a message's exact state.

    Parameters
    ----------
    dt:
        Filter step ``dt_s`` (the sensing period).
    bounds:
        Sensor noise bounds; fix the measurement covariance ``R`` and the
        process noise ``Q`` via the uniform-error variances.
    """

    def __init__(self, dt: float, bounds: NoiseBounds) -> None:
        self._dt = check_positive(dt, "dt")
        self._bounds = bounds
        self._accel_var = bounds.acceleration_variance
        self._r_p = bounds.position_variance
        self._r_v = bounds.velocity_variance

    # ------------------------------------------------------------------
    # Matrix accessors (used by tests to check the paper's equations)
    # ------------------------------------------------------------------
    @property
    def dt(self) -> float:
        """Filter step ``dt_s``."""
        return self._dt

    @property
    def f_matrix(self) -> np.ndarray:
        """State-transition matrix ``F`` (fresh array).

        Shapes: -> [2, 2]
        """
        return np.array([[1.0, self._dt], [0.0, 1.0]])

    @property
    def g_matrix(self) -> np.ndarray:
        """Control matrix ``G`` (fresh array).

        Shapes: -> [2, 1]
        """
        dt = self._dt
        return np.array([[0.5 * dt * dt], [dt]])

    @property
    def q_matrix(self) -> np.ndarray:
        """Process-noise covariance ``Q`` (fresh array).

        Shapes: -> [2, 2]
        """
        dt2 = self._dt * self._dt
        return (
            np.array(
                [
                    [0.25 * dt2 * dt2, 0.5 * dt2 * self._dt],
                    [0.5 * dt2 * self._dt, dt2],
                ]
            )
            * self._accel_var
        )

    @property
    def r_matrix(self) -> np.ndarray:
        """Measurement-noise covariance ``R`` (fresh array).

        Shapes: -> [2, 2]
        """
        return np.diag([self._r_p, self._r_v])

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
        """Build the prior ``(x_hat(0,0), P(0,0))``.

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

    def predict(self, state: KalmanState, accel_measured: float) -> KalmanState:
        """Extrapolate one step: ``x <- F x + G a_s``, ``P <- F P F' + Q``.

        Units: accel_measured [m/s^2]

        Effects: pure
        """
        return self.extrapolate(state, accel_measured, self._dt)

    def update(
        self,
        predicted: KalmanState,
        position_measured: float,
        velocity_measured: float,
    ) -> KalmanState:
        """Fold in a ``(p_s, v_s)`` measurement at the predicted time.

        Units: position_measured [m], velocity_measured [m/s]

        Effects: pure

        Uses the paper's gain ``K = P (P + R)^{-1}`` (the measurement
        matrix is the identity) and the Joseph-form covariance update;
        the arithmetic is :meth:`update_floats`.
        """
        return tuple.__new__(
            KalmanState,
            self.update_floats(predicted, position_measured, velocity_measured),
        )

    def update_floats(
        self,
        predicted: Fields,
        position_measured: float,
        velocity_measured: float,
    ) -> Fields:
        """:meth:`update` on a state's six fields; the posterior's fields.

        Units: position_measured [m], velocity_measured [m/s]

        Effects: pure

        ``predicted`` is a :class:`KalmanState` or any tuple of its
        fields.  The gain and the Joseph form are expanded for ``2x2``
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

    def extrapolate(
        self, state: KalmanState, accel_measured: float, dt: float
    ) -> KalmanState:
        """Predict over an arbitrary horizon ``dt`` (not just ``dt_s``).

        Units: accel_measured [m/s^2], dt [s]

        Effects: pure

        Used for (a) estimates between sensor samples — the runtime
        monitor runs every control step ``dt_c`` which is finer than the
        sensing period — and (b) message replay when the message stamp is
        not aligned with the sensing schedule.  The arithmetic is
        :meth:`extrapolate_floats`; a zero horizon returns ``state``.
        """
        fields = self.extrapolate_floats(state, accel_measured, dt)
        if fields is state:
            return state
        return tuple.__new__(KalmanState, fields)

    def extrapolate_floats(
        self, state: Fields, accel_measured: float, dt: float
    ) -> Fields:
        """:meth:`extrapolate` on a state's six fields; the prediction's fields.

        Units: accel_measured [m/s^2], dt [s]

        Effects: pure

        ``state`` is a :class:`KalmanState` or any tuple of its fields,
        and comes back as it is over a zero horizon.  ``F``, ``G`` and
        ``Q`` are those of the requested horizon, with ``F P F'``
        written out; the result is checked finite as
        :class:`KalmanState` checks it, with the same errors.
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
