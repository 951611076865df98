"""Exception types shared across the package."""


class FracsyncError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(FracsyncError, ValueError):
    """An input the package refuses; the message names the refused argument."""


class NonFiniteState(FracsyncError, ArithmeticError):
    """Integration produced a non-finite state component.

    Attributes
    ----------
    step : int
        Grid index whose state could not be computed.
    time : float
        Time of that grid index.
    trajectory : Trajectory
        Valid prefix of the run, ending one step before the failure.
    component : int
        Index of the first state component that was not finite there.

    It is also a run's blowup record, and `to_dict` is its report entry;
    the entry holds the step and time only.
    """

    def __init__(self, step, trajectory, time, component):
        self.step = int(step)
        self.trajectory = trajectory
        self.time = float(time)
        self.component = int(component)
        where = f"step {self.step} (t = {self.time:g}) in component {self.component}"
        super().__init__(f"state became non-finite at {where}")

    def to_dict(self) -> dict:
        return {"step": self.step, "time": self.time}


class ConfigError(FracsyncError, ValueError):
    """A run configuration failed validation; the message starts with the offending key."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
