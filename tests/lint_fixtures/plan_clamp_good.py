"""Good: every return site clamped, delegated, or a limit."""


class ClampedPlanner:
    """The codebase idiom for plan() return sites."""

    def __init__(self, limits, gain, target):
        self._limits = limits
        self._gain = gain
        self._target = target

    def plan(self, context):
        """Clip through the limits object."""
        error = self._target - context.ego.velocity
        if error < 0.0:
            return self._limits.a_min
        if context.ego.velocity == 0.0:
            return 0.0
        return self._limits.clip_acceleration(self._gain * error)


class DelegatingPlanner:
    """Delegation through self is the other sanctioned form."""

    def __init__(self, inner):
        self._inner = inner

    def plan(self, context):
        """The delegate owns the clamp."""
        return self._inner.plan(context)


class TracedFloatPlanner:
    """A float entry timing itself around a call through self."""

    def __init__(self, limits, gain, target):
        self._limits = limits
        self._gain = gain
        self._target = target

    def plan_floats(self, time, position, velocity, acceleration, estimates,
                    tracer=None):
        """The span wraps this same method; every other return is clamped."""
        if tracer is not None:
            return traced_call(
                tracer, "planner", self.plan_floats,
                time, position, velocity, acceleration, estimates,
            )
        return self._limits.clip_acceleration(
            self._gain * (self._target - velocity)
        )
