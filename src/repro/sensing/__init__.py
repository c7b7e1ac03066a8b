"""Onboard sensing substrate: uniform noise bounds and periodic sensors."""

from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import Sensor, SensorReading

__all__ = ["NoiseBounds", "Sensor", "SensorReading"]
