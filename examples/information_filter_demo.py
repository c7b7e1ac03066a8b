"""The information filter at work (Figure 6a style).

Simulates the oncoming vehicle under delayed/dropped messages and noisy
sensing, runs the replaying Kalman filter, and prints one velocity trace
(true / measured / filtered) plus the RMSE reduction over a batch of
trajectories.  Also shows the message-replay effect directly: the
estimate error before and after a delayed message arrives.

Run: ``python examples/information_filter_demo.py``
"""

from repro import NoiseBounds, VehicleState
from repro.comm.message import Message
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure6 import render_filter_study, run_filter_study
from repro.filtering.kalman import KalmanFilter
from repro.filtering.replay import ReplayKalmanFilter
from repro.sensing.sensor import SensorReading
from repro.utils.rng import RngStream


def replay_demo() -> None:
    """Show one delayed message snapping the estimate back to truth."""
    print("--- message replay, isolated ---")
    bounds = NoiseBounds.uniform_all(2.0)
    rkf = ReplayKalmanFilter(KalmanFilter(bounds))
    rng = RngStream(3)

    # Ground truth: constant -12 m/s from 60 m.
    def truth(t):
        return 60.0 - 12.0 * t

    for i in range(10):
        t = i * 0.1
        rkf.on_sensor_reading(
            SensorReading(
                target=1,
                time=t,
                position=truth(t) + float(rng.uniform(-2, 2)),
                velocity=-12.0 + float(rng.uniform(-2, 2)),
                acceleration=float(rng.uniform(-2, 2)),
            )
        )
    now = 0.9
    before = rkf.estimate_at(now)
    err_before = abs(before.position - truth(now))

    # A message stamped 0.5 s ago arrives (0.4 s delivery delay).
    stamp = 0.5
    rkf.on_message(
        Message(
            sender=1,
            stamp=stamp,
            state=VehicleState(
                position=truth(stamp), velocity=-12.0, acceleration=0.0
            ),
        ),
        now,
    )
    after = rkf.estimate_at(now)
    err_after = abs(after.position - truth(now))
    print(
        f"position error at t={now}s: {err_before:.3f} m before replay, "
        f"{err_after:.3f} m after the delayed message replays "
        f"({rkf.replay_count} replay)"
    )
    assert err_after <= err_before


def main() -> None:
    replay_demo()
    print("\n--- figure 6a study (200 sampled trajectories) ---")
    study = run_filter_study(ExperimentConfig(), n_trajectories=200)
    print(render_filter_study(study))


if __name__ == "__main__":
    main()
