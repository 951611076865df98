"""Fractional predictor-corrector integration and its classical limit.

`integrate` advances a `SystemDef` under componentwise Caputo orders with
the scheme documented in `kernels`, on its one driver, whatever the
system. `integrate_classical_pece` is the order-one limit of the same loop
and matches a q = 1 fractional run step for step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import NonFiniteState
from .systems import SystemDef, count_number, number_array, order_array, positive_number


@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon and history policy for one integration.

    h must be a positive number (`systems.positive_number`), n_steps an
    integer >= 1, and memory None (full history) or an integer k >= 1 that
    restricts every history sum to the most recent k steps. Anything else,
    booleans included, raises ValueError.
    """

    h: float
    n_steps: int
    memory: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "h", positive_number(self.h, "step size"))
        object.__setattr__(self, "n_steps", count_number(self.n_steps, "n_steps", 1))
        if self.memory is not None:
            object.__setattr__(self, "memory", count_number(self.memory, "memory window", 1))

    @classmethod
    def for_horizon(cls, h: float, t_end: float, memory: Optional[int] = None) -> "SolverConfig":
        """Config covering [0, t_end] with n_steps = round(t_end / h).

        t_end is checked as h is. A horizon that rounds to no step, such as
        t_end = 0.1 at h = 1, raises ValueError; it is not stretched to one.
        So does one whose step count overflows, such as t_end = 1e300 at
        h = 1e-300.
        """
        h = positive_number(h, "step size")
        t_end = positive_number(t_end, "t_end")
        if not math.isfinite(t_end / h):
            raise ValueError(f"horizon {t_end} allows no finite step count at h = {h}")
        n_steps = round(t_end / h)
        if n_steps < 1:
            raise ValueError(f"horizon {t_end} allows no step at h = {h}")
        return cls(h=h, n_steps=n_steps, memory=memory)

    @property
    def window(self) -> int:
        return self.n_steps + 1 if self.memory is None else self.memory


@dataclass
class Trajectory:
    """Uniform-grid solution, optionally with error and control columns.

    It holds at least one grid point, and states, errors and controls
    (when given) have one row per grid point; anything else raises
    ValueError.
    """

    times: np.ndarray
    states: np.ndarray
    errors: Optional[np.ndarray] = None
    controls: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.times.shape[0]
        if n == 0:
            raise ValueError("a trajectory needs at least one grid point")
        for name in ("states", "errors", "controls"):
            rows = getattr(self, name)
            if rows is not None and rows.shape[0] != n:
                raise ValueError(f"times and {name} must have one row per grid point")

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
        infinities, nested or ragged lists raise ValueError.
    config : SolverConfig
        Grid and memory policy.

    Returns
    -------
    Trajectory
        times[j] = j*h and states of shape (n_steps + 1, dimension).

    Raises
    ------
    ValueError
        When y0 breaks the rule above, or when the first value of
        system.rhs does not have y0's shape.
    InvalidOrder
        When an order is not a number, is outside (0, 1], or the orders
        do not broadcast to (dimension,); see `systems.order_array`.
    NonFiniteState
        When a state component leaves the finite range; the exception
        carries the valid prefix of the trajectory.
    """
    q = order_array(orders, (system.dimension,))
    y0 = number_array(y0, ValueError, "initial state", (system.dimension,))
    states, fail = kernels.abm_python(system.rhs, q, y0, config.h, config.n_steps, config.window)
    return _finish(states, fail, config)


def integrate_classical_pece(system: SystemDef, y0, config: SolverConfig) -> Trajectory:
    """Order-one predictor-corrector on the same grid; y0 and blowups as in `integrate`."""
    y0 = number_array(y0, ValueError, "initial state", (system.dimension,))
    return _finish(*kernels.classical_pece(system.rhs, y0, config.h, config.n_steps), config)


def _finish(states: np.ndarray, fail: int, config: SolverConfig) -> Trajectory:
    """The run's Trajectory, or NonFiniteState with the rows before `fail` when fail >= 0."""
    times = np.arange(config.n_steps + 1, dtype=np.float64) * config.h
    if fail >= 0:
        partial = Trajectory(times[:fail], states[:fail].copy())
        raise NonFiniteState(fail, trajectory=partial, time=fail * config.h)
    return Trajectory(times, states)
