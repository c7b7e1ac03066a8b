"""Tests for trajectory recording and queries."""

import numpy as np
import pytest

from repro.dynamics.state import VehicleState
from repro.dynamics.trajectory import Trajectory, TrajectoryPoint
from repro.errors import SimulationError


def _traj():
    t = Trajectory()
    for i in range(5):
        t.append(i * 0.5, VehicleState(position=float(i), velocity=2.0 * i))
    return t


class TestBuilding:
    def test_append_and_len(self):
        assert len(_traj()) == 5

    def test_times_must_increase(self):
        t = _traj()
        with pytest.raises(SimulationError):
            t.append(1.0, VehicleState(position=0.0, velocity=0.0))

    def test_equal_time_rejected(self):
        t = _traj()
        with pytest.raises(SimulationError):
            t.append(2.0, VehicleState(position=0.0, velocity=0.0))

    def test_construct_from_points(self):
        pts = [
            TrajectoryPoint(0.0, VehicleState(position=0.0, velocity=0.0)),
            TrajectoryPoint(1.0, VehicleState(position=1.0, velocity=1.0)),
        ]
        assert len(Trajectory(pts)) == 2


class TestIntrospection:
    def test_span(self):
        t = _traj()
        assert t.start_time == 0.0
        assert t.end_time == 2.0
        assert t.duration == 2.0

    def test_empty_properties_raise(self):
        t = Trajectory()
        assert t.is_empty
        with pytest.raises(SimulationError):
            _ = t.start_time

    def test_last(self):
        assert _traj().last().position == 4.0

    def test_indexing_and_iteration(self):
        t = _traj()
        assert t[2].time == 1.0
        assert [p.position for p in t] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_point_shortcuts(self):
        p = _traj()[1]
        assert p.position == 1.0
        assert p.velocity == 2.0
        assert p.acceleration == 0.0


class TestQueries:
    def test_at_or_before_exact(self):
        assert _traj().at_or_before(1.0).position == 2.0

    def test_at_or_before_between_samples(self):
        assert _traj().at_or_before(1.2).position == 2.0

    def test_at_or_before_too_early(self):
        with pytest.raises(SimulationError):
            _traj().at_or_before(-0.1)

    def test_interpolate_exact_sample(self):
        s = _traj().interpolate(1.5)
        assert s.position == 3.0

    def test_interpolate_midpoint(self):
        s = _traj().interpolate(0.25)
        assert s.position == pytest.approx(0.5)
        assert s.velocity == pytest.approx(1.0)

    def test_interpolate_outside_span_raises(self):
        with pytest.raises(SimulationError):
            _traj().interpolate(3.0)


class TestBulkAccessors:
    def test_arrays(self):
        t = _traj()
        assert np.allclose(t.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.allclose(t.positions(), [0, 1, 2, 3, 4])
        assert np.allclose(t.velocities(), [0, 2, 4, 6, 8])
        assert t.accelerations().shape == (5,)
