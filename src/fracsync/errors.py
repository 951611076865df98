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
    time : float or None
        Time of that grid index.
    trajectory : Trajectory or None
        Valid prefix of the run, ending one step before the failure.
    """

    def __init__(self, step, trajectory=None, time=None):
        self.step = int(step)
        self.trajectory = trajectory
        self.time = time
        msg = f"state became non-finite at step {self.step}"
        if time is not None:
            msg += f" (t = {time:g})"
        super().__init__(msg)


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
    """A run configuration failed validation.

    Carries the offending field name so the command line layer can point
    at it in the error message.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
