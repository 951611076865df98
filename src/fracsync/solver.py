"""Fractional predictor-corrector integration.

`integrate` advances a `SystemDef` under componentwise Caputo orders with
the scheme documented in `kernels`, on its one driver, whatever the
system. At q = 1 that scheme is the classical trapezoid predictor-corrector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import InvalidInput, NonFiniteState
from .systems import SystemDef, count_number, number_array, order_array, positive_number


@dataclass(frozen=True)
class SolverConfig:
    """Step size and horizon for one integration; every run keeps its full history.

    h must be a positive number (`systems.positive_number`) and n_steps an
    integer >= 1. Anything else, booleans included, raises InvalidInput.
    """

    h: float
    n_steps: int
    # Not a field: perfbench/tracing.py reads config.memory (None is full
    # history) to count the history work of each traced run.
    memory = None

    def __post_init__(self):
        object.__setattr__(self, "h", positive_number(self.h, "step size"))
        object.__setattr__(self, "n_steps", count_number(self.n_steps, "n_steps", 1))

    @classmethod
    def for_horizon(cls, h: float, t_end: float) -> "SolverConfig":
        """Config covering [0, t_end] with n_steps = round(t_end / h).

        t_end is checked as h is. A horizon that rounds to no step, such as
        t_end = 0.1 at h = 1, raises InvalidInput; it is not stretched to one.
        So does one whose step count overflows, such as t_end = 1e300 at
        h = 1e-300.
        """
        h = positive_number(h, "step size")
        t_end = positive_number(t_end, "t_end")
        if not math.isfinite(t_end / h):
            raise InvalidInput(f"horizon {t_end} allows no finite step count at h = {h}")
        n_steps = round(t_end / h)
        if n_steps < 1:
            raise InvalidInput(f"horizon {t_end} allows no step at h = {h}")
        return cls(h=h, n_steps=n_steps)


@dataclass
class Trajectory:
    """Uniform-grid solution, optionally with error and control columns.

    times is a 1-D array of at least one grid point, and states, errors
    and controls (when given) are arrays with one row per grid point;
    anything else raises InvalidInput. The columns' layout is left to the
    readers: `analysis.sync_time` and `divergence_factor` need 2-D rows.
    """

    times: np.ndarray
    states: np.ndarray
    errors: Optional[np.ndarray] = None
    controls: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.times, np.ndarray) or self.times.ndim != 1:
            raise InvalidInput("times must be a 1-D array")
        n = self.times.shape[0]
        if n == 0:
            raise InvalidInput("a trajectory needs at least one grid point")
        for name in ("states", "errors", "controls"):
            rows = getattr(self, name)
            if rows is None and name != "states":
                continue
            if not isinstance(rows, np.ndarray) or rows.ndim == 0:
                raise InvalidInput(f"{name} must be an array with a first axis")
            if rows.shape[0] != n:
                raise InvalidInput(f"times and {name} must have one row per grid point")

    @property
    def n_points(self) -> int:
        return self.times.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def weights_b(q: float, n: int) -> np.ndarray:
    """Predictor weights b_j for the step from t_n to t_{n+1}, j = 0 .. n.

    b_j = (n+1-j)^q - (n-j)^q. The sum telescopes to (n+1)^q and every
    weight is positive for q in (0, 1].
    """
    q = float(order_array(q, ()))
    n = count_number(n, "n", 0)
    return kernels.conv_weights_b(q, n + 1)[::-1].copy()


def weights_a(q: float, n: int) -> np.ndarray:
    """Corrector weights a_j for the step from t_n to t_{n+1}, j = 0 .. n+1.

    a_0 = n^(q+1) - (n-q)*(n+1)^q, interior weights follow the second
    difference of (n-j)^(q+1), and a_{n+1} = 1. All are positive.
    """
    q = float(order_array(q, ()))
    n = count_number(n, "n", 0)
    parts = [
        kernels.first_panel_weights(q, [n]),
        kernels.conv_weights_a(q, n)[::-1],
        np.array([1.0]),
    ]
    return np.concatenate(parts)


def integrate(system: SystemDef, orders, y0, config: SolverConfig) -> Trajectory:
    """Solve the componentwise Caputo initial value problem for `system`.

    Parameters
    ----------
    system : SystemDef
        Field to integrate.
    orders : FractionalOrders, number or array_like
        Per-component orders, each finite and in (0, 1]. They are
        broadcast to (dimension,), so a number applies to every component.
    y0 : array_like
        Initial state of exactly shape (dimension,), finite numbers under
        the `systems.number_array` rule: strings, booleans, None, NaN,
        infinities, nested or ragged lists raise InvalidInput.
    config : SolverConfig
        Grid.

    Returns
    -------
    Trajectory
        times[j] = j*h and states of shape (n_steps + 1, dimension).

    The driver calls system.rhs(t, y) with y a new list of the state's
    components as Python floats; it returns as many components (see
    `systems.SystemDef`).

    Raises
    ------
    InvalidInput
        When y0 breaks the rule above; when the first value of system.rhs
        is not real numbers of y0's shape, or a later one has another
        length; when an order is not a number, is outside (0, 1], or the
        orders do not broadcast to (dimension,) (`systems.order_array`).
    NonFiniteState
        When a state component leaves the finite range; the exception
        carries the valid prefix of the trajectory and the index of that
        component.
    """
    q = order_array(orders, (system.dimension,))
    y0 = number_array(y0, "initial state", (system.dimension,))
    run = kernels.abm_python(system.rhs, q, y0, config.h, config.n_steps)
    return _finish(*run, config)


def _finish(states: np.ndarray, fail: int, component: int, config: SolverConfig) -> Trajectory:
    """The run's Trajectory, or NonFiniteState with the rows before `fail` when fail >= 0."""
    times = np.arange(config.n_steps + 1, dtype=np.float64) * config.h
    if fail >= 0:
        partial = Trajectory(times[:fail], states[:fail].copy())
        raise NonFiniteState(fail, trajectory=partial, time=fail * config.h, component=component)
    return Trajectory(times, states)
