"""Tests for vehicle and system state containers."""

import math

import numpy as np
import pytest

from repro.dynamics.state import SystemState, VehicleState
from repro.errors import ConfigurationError


class TestVehicleState:
    def test_fields(self):
        s = VehicleState(position=1.0, velocity=2.0, acceleration=0.5)
        assert (s.position, s.velocity, s.acceleration) == (1.0, 2.0, 0.5)

    def test_default_acceleration(self):
        assert VehicleState(position=0.0, velocity=0.0).acceleration == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            VehicleState(position=math.nan, velocity=0.0)

    @pytest.mark.parametrize("field", ["position", "velocity", "acceleration"])
    def test_nan_rejected_per_field(self, field):
        values = {"position": 1.0, "velocity": 2.0, "acceleration": 0.5}
        values[field] = math.nan
        with pytest.raises(
            ConfigurationError, match=rf"^VehicleState\.{field} must not be NaN$"
        ):
            VehicleState(**values)

    def test_with_acceleration_rejects_nan(self):
        with pytest.raises(
            ConfigurationError, match=r"^VehicleState\.acceleration must not be NaN$"
        ):
            VehicleState(position=1.0, velocity=2.0).with_acceleration(math.nan)

    def test_as_vector(self):
        vec = VehicleState(position=3.0, velocity=4.0).as_vector()
        assert vec.shape == (2, 1)
        assert vec[0, 0] == 3.0
        assert vec[1, 0] == 4.0

    def test_with_acceleration_copies(self):
        s = VehicleState(position=1.0, velocity=2.0)
        s2 = s.with_acceleration(1.5)
        assert s2.acceleration == 1.5
        assert s.acceleration == 0.0
        assert s2.position == s.position
        assert s2 == VehicleState(position=1.0, velocity=2.0, acceleration=1.5)
        assert type(s2.acceleration) is float

    def test_shifted(self):
        s = VehicleState(position=1.0, velocity=2.0).shifted(dp=3.0, dv=-1.0)
        assert s.position == 4.0
        assert s.velocity == 1.0

    def test_immutability(self):
        s = VehicleState(position=0.0, velocity=0.0)
        with pytest.raises(AttributeError):
            s.position = 1.0  # type: ignore[misc]

    def test_str_mentions_values(self):
        assert "1.500" in str(VehicleState(position=1.5, velocity=0.0))


class TestSystemState:
    def _two(self):
        return SystemState(
            time=0.5,
            vehicles=(
                VehicleState(position=0.0, velocity=1.0),
                VehicleState(position=10.0, velocity=-2.0),
            ),
        )

    def test_ego_is_index_zero(self):
        assert self._two().ego.position == 0.0

    def test_others(self):
        others = self._two().others
        assert len(others) == 1
        assert others[0].position == 10.0

    def test_n_vehicles(self):
        assert self._two().n_vehicles == 2

    def test_requires_at_least_one_vehicle(self):
        with pytest.raises(ConfigurationError):
            SystemState(time=0.0, vehicles=())

    def test_nan_time_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemState(
                time=math.nan,
                vehicles=(VehicleState(position=0.0, velocity=0.0),),
            )

    def test_with_vehicle_replaces_one(self):
        s = self._two()
        replaced = s.with_vehicle(1, VehicleState(position=99.0, velocity=0.0))
        assert replaced.vehicle(1).position == 99.0
        assert replaced.ego.position == 0.0
        assert s.vehicle(1).position == 10.0  # original untouched

    def test_with_time(self):
        assert self._two().with_time(3.0).time == 3.0

    def test_of_accepts_list(self):
        s = SystemState.of(1.0, [VehicleState(position=0.0, velocity=0.0)])
        assert s.n_vehicles == 1

    def test_iteration(self):
        positions = [v.position for v in self._two()]
        assert positions == [0.0, 10.0]
