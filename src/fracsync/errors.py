"""Exception types shared across the package."""


class FracsyncError(Exception):
    """Base class for all package-specific errors."""


class InvalidOrder(FracsyncError, ValueError):
    """A fractional derivative order lies outside the supported interval (0, 1]."""


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


class DegenerateParameters(FracsyncError, ValueError):
    """Parameter values for which a requested closed form does not exist."""


class InvalidGain(FracsyncError, ValueError):
    """A feedback gain that cannot yield a decaying error system."""


class DomainExceeded(FracsyncError, ValueError):
    """An argument is outside the supported domain, or the result overflows float64."""


class MissingErrors(FracsyncError, ValueError):
    """A trajectory lacks the error columns an analysis routine needs."""


class GridMismatch(FracsyncError, ValueError):
    """Two trajectories do not share the same time grid or shape."""


class ZeroInitialSeparation(FracsyncError, ValueError):
    """Two trajectories start from identical states, so no separation ratio exists."""


class DegenerateEigenvalue(FracsyncError, ArithmeticError):
    """An eigenvalue at (or numerically indistinguishable from) zero has no argument."""


class ConfigError(FracsyncError, ValueError):
    """A run configuration failed validation; the message starts with the offending key."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
