"""Bad: plan() and plan_floats() return raw arithmetic."""


class ProportionalPlanner:
    """Tracks a speed with no output clamp."""

    def __init__(self, gain, target):
        self._gain = gain
        self._target = target

    def plan(self, context):
        """Unclamped command can exceed [a_min, a_max]."""
        error = self._target - context.ego.velocity
        return self._gain * error


class FloatEntryPlanner:
    """The float entry point is held to the same clamp."""

    def __init__(self, gain, target):
        self._gain = gain
        self._target = target

    def plan(self, context):
        """Delegates through self: fine on its own."""
        ego = context.ego
        return self.plan_floats(
            context.time, ego.position, ego.velocity, ego.acceleration,
            context.estimates,
        )

    def plan_floats(self, time, position, velocity, acceleration, estimates,
                    tracer=None):
        """Unclamped command; a traced call of a function outside self."""
        if tracer is not None:
            return traced_call(tracer, "span", raw_gain, velocity)
        return self._gain * (self._target - velocity)
