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
from .errors import InvalidOrder, NonFiniteState
from .systems import SystemDef


def _order_array(orders, dimension: int) -> np.ndarray:
    if hasattr(orders, "as_array"):
        arr = orders.as_array()
    else:
        arr = np.atleast_1d(np.asarray(orders, dtype=np.float64))
    if arr.size == 1 and dimension > 1:
        arr = np.full(dimension, float(arr[0]))
    if arr.shape != (dimension,):
        raise InvalidOrder(f"expected {dimension} orders, got shape {arr.shape}")
    for v in arr:
        if not (math.isfinite(v) and 0.0 < v <= 1.0):
            raise InvalidOrder(f"order {v!r} outside (0, 1]")
    return arr.astype(np.float64)


@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon and history policy for one integration.

    memory=None keeps the full history; an integer k restricts every
    history sum to the most recent k steps.
    """

    h: float
    n_steps: int
    memory: Optional[int] = None

    def __post_init__(self):
        if not (isinstance(self.h, (int, float)) and math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"step size must be finite and positive, got {self.h!r}")
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps!r}")
        if self.memory is not None:
            if not (isinstance(self.memory, (int, np.integer)) and self.memory >= 1):
                raise ValueError(f"memory window must be a positive integer, got {self.memory!r}")
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "n_steps", int(self.n_steps))
        if self.memory is not None:
            object.__setattr__(self, "memory", int(self.memory))

    @classmethod
    def for_horizon(cls, h: float, t_end: float, memory: Optional[int] = None) -> "SolverConfig":
        """Config covering [0, t_end] with n_steps = round(t_end / h)."""
        if not (math.isfinite(t_end) and t_end > 0):
            raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
        return cls(h=h, n_steps=max(1, round(float(t_end) / float(h))), memory=memory)

    @property
    def window(self) -> int:
        return self.n_steps + 1 if self.memory is None else self.memory


@dataclass
class Trajectory:
    """Uniform-grid solution, optionally with error and control columns."""

    times: np.ndarray
    states: np.ndarray
    errors: Optional[np.ndarray] = None
    controls: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("times and states must have one row per grid point")

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
    _check_scalar_order(q)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return kernels.conv_weights_b(float(q), n + 1)[::-1].copy()


def weights_a(q: float, n: int) -> np.ndarray:
    """Corrector weights a_j for the step from t_n to t_{n+1}, j = 0 .. n+1.

    a_0 = n^(q+1) - (n-q)*(n+1)^q, interior weights follow the second
    difference of (n-j)^(q+1), and a_{n+1} = 1. All are positive.
    """
    _check_scalar_order(q)
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = float(q)
    parts = [
        np.array([kernels.first_panel_weight(q, n)]),
        kernels.conv_weights_a(q, n)[::-1],
        np.array([1.0]),
    ]
    return np.concatenate(parts)


def _check_scalar_order(q) -> None:
    if not (isinstance(q, (int, float)) and math.isfinite(q) and 0.0 < q <= 1.0):
        raise InvalidOrder(f"order {q!r} outside (0, 1]")


def integrate(system: SystemDef, orders, y0, config: SolverConfig) -> Trajectory:
    """Solve the componentwise Caputo initial value problem for `system`.

    Parameters
    ----------
    system : SystemDef
        Field to integrate.
    orders : FractionalOrders, sequence, or scalar
        Per-component orders in (0, 1]; a scalar applies to every component.
    y0 : array_like
        Finite initial state of shape (dimension,).
    config : SolverConfig
        Grid and memory policy.

    Returns
    -------
    Trajectory
        times[j] = j*h and states of shape (n_steps + 1, dimension).

    Raises
    ------
    NonFiniteState
        When a state component leaves the finite range; the exception
        carries the valid prefix of the trajectory.
    """
    q = _order_array(orders, system.dimension)
    y0 = np.asarray(y0, dtype=np.float64).reshape(-1)
    if y0.shape != (system.dimension,):
        raise ValueError(f"initial state must have shape ({system.dimension},)")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")

    states, fail = kernels.abm_python(system.rhs, q, y0, config.h, config.n_steps, config.window)
    times = np.arange(config.n_steps + 1, dtype=np.float64) * config.h
    if fail >= 0:
        partial = Trajectory(times[:fail], states[:fail].copy())
        raise NonFiniteState(fail, trajectory=partial, time=float(fail * config.h))
    return Trajectory(times, states)


def integrate_classical_pece(system: SystemDef, y0, config: SolverConfig) -> Trajectory:
    """Order-one predictor-corrector on the same grid, for comparison runs."""
    y0 = np.asarray(y0, dtype=np.float64).reshape(-1)
    if y0.shape != (system.dimension,):
        raise ValueError(f"initial state must have shape ({system.dimension},)")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")
    states = kernels.classical_pece(system.rhs, y0, config.h, config.n_steps)
    times = np.arange(config.n_steps + 1, dtype=np.float64) * config.h
    if not np.all(np.isfinite(states)):
        bad = np.flatnonzero(~np.all(np.isfinite(states), axis=1))[0]
        partial = Trajectory(times[:bad], states[:bad].copy())
        raise NonFiniteState(int(bad), trajectory=partial, time=float(bad * config.h))
    return Trajectory(times, states)
