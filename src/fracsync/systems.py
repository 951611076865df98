"""The built-in three-dimensional vector fields and their local structure.

Two chaotic systems are provided. The financial system couples interest
rate x, investment demand y and price index z:

    dx/dt = z + (y - alpha) * x
    dy/dt = 1 - beta * y - x^2
    dz/dt = -x - gamma * z

The Volta system, with parameters (a, b, c):

    dx/dt = -x - a*y - z*y
    dy/dt = -y - b*x - x*z
    dz/dt = c*z + x*y + 1

Both right-hand sides take any array whose last axis has length 3 and
unpack the components along it (`x, y, z = s.T`), so a whole trajectory
evaluates in one call and equals its rows bit for bit; any other length of
that axis raises ValueError. Jacobians and equilibria take single states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateParameters, InvalidOrder

# Reported derivative order at which the commensurate financial system
# first sustains chaos; used as a reference point by the stability CLI.
FINANCIAL_CHAOS_ONSET_REFERENCE = 0.8436


def has_bool(value) -> bool:
    """Whether `value` or an item of its nested lists is a boolean (numpy reads True as 1.0)."""
    if isinstance(value, (list, tuple)):
        return any(has_bool(v) for v in value)
    return isinstance(value, (bool, np.bool_))


def number_array(value, error, name: str) -> np.ndarray:
    """`value` as an int or float array; strings (even "0.9"), None and booleans raise `error`."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or has_bool(value):
        raise error(f"{name} must be numbers, got {value!r}")
    return arr


def order_array(orders, shape: tuple) -> np.ndarray:
    """Derivative orders as a new float64 array of `shape`.

    `orders` is a `FractionalOrders`, a number or an array_like of numbers,
    broadcast to `shape` by numpy's rules, so one number serves every
    component. Every order must be finite and in (0, 1]. Raises
    InvalidOrder for anything else: a non-numeric value (strings, None,
    booleans), a shape that does not broadcast to `shape`, or an order out
    of range.
    """
    if isinstance(orders, FractionalOrders):
        orders = orders.q
    arr = number_array(orders, InvalidOrder, "orders")
    # broadcast_to takes a few microseconds, as long as the rest of this
    # check, so it runs only when the shape does not already fit.
    if arr.shape != shape:
        try:
            arr = np.broadcast_to(arr, shape)
        except ValueError:
            raise InvalidOrder(f"orders of shape {arr.shape} do not broadcast to shape {shape}")
    arr = arr.astype(np.float64)
    if not ((arr > 0.0) & (arr <= 1.0)).all():
        raise InvalidOrder(f"orders must lie in (0, 1], got {arr.tolist()}")
    return arr


@dataclass(frozen=True)
class FractionalOrders:
    """Per-component Caputo derivative orders for a three-dimensional system."""

    q: tuple[float, float, float] = (0.99, 0.99, 0.99)

    def __post_init__(self):
        q = order_array(self.q, (3,))
        if np.shape(self.q) != (3,):
            raise InvalidOrder(f"expected 3 orders, got {self.q!r}")
        object.__setattr__(self, "q", tuple(q.tolist()))

    @classmethod
    def uniform(cls, q: float) -> "FractionalOrders":
        return cls((q, q, q))

    @property
    def commensurate(self) -> bool:
        return self.q[0] == self.q[1] == self.q[2]

    def as_array(self) -> np.ndarray:
        return np.array(self.q, dtype=np.float64)


@dataclass(frozen=True)
class FinancialParams:
    alpha: float = 1.0
    beta: float = 0.1
    gamma: float = 1.0


@dataclass(frozen=True)
class VoltaParams:
    a: float = 19.0
    b: float = 11.0
    c: float = 0.73


def financial_rhs(state, p: FinancialParams) -> np.ndarray:
    """Financial vector field; state has shape (..., 3)."""
    s = np.asarray(state, dtype=np.float64)
    x, y, z = s.T
    out = np.empty(s.shape)
    o = out.T
    o[0] = z + (y - p.alpha) * x
    o[1] = 1.0 - p.beta * y - x * x
    o[2] = -x - p.gamma * z
    return out


def volta_rhs(state, p: VoltaParams) -> np.ndarray:
    """Volta vector field; state has shape (..., 3)."""
    s = np.asarray(state, dtype=np.float64)
    x, y, z = s.T
    out = np.empty(s.shape)
    o = out.T
    o[0] = -x - p.a * y - z * y
    o[1] = -y - p.b * x - x * z
    o[2] = p.c * z + x * y + 1.0
    return out


def financial_jacobian(state, p: FinancialParams) -> np.ndarray:
    s = np.asarray(state, dtype=np.float64)
    x, y = float(s[0]), float(s[1])
    return np.array(
        [
            [y - p.alpha, x, 1.0],
            [-2.0 * x, -p.beta, 0.0],
            [-1.0, 0.0, -p.gamma],
        ]
    )


def volta_jacobian(state, p: VoltaParams) -> np.ndarray:
    s = np.asarray(state, dtype=np.float64)
    x, y, z = (float(v) for v in s[:3])
    return np.array(
        [
            [-1.0, -p.a - z, -y],
            [-p.b - z, -1.0, -x],
            [y, x, p.c],
        ]
    )


def financial_equilibria(p: FinancialParams) -> list[np.ndarray]:
    """All equilibria of the financial system, closed form.

    Setting the field to zero gives z = -x/gamma, x*(y - alpha - 1/gamma) = 0
    and y = (1 - x^2)/beta. The x = 0 branch always exists; the symmetric
    pair exists when 1 - beta*(alpha + 1/gamma) >= 0.
    """
    if p.beta == 0.0 or p.gamma == 0.0:
        raise DegenerateParameters(
            f"equilibria need beta != 0 and gamma != 0, got beta={p.beta}, gamma={p.gamma}"
        )
    states = [np.array([0.0, 1.0 / p.beta, 0.0])]
    disc = 1.0 - p.beta * (p.alpha + 1.0 / p.gamma)
    # At disc == 0 the pair collapses onto the x = 0 point, so only disc > 0 adds states.
    if disc > 0.0:
        x = math.sqrt(disc)
        y = p.alpha + 1.0 / p.gamma
        states.append(np.array([x, y, -x / p.gamma]))
        states.append(np.array([-x, y, x / p.gamma]))
    return states


@dataclass(frozen=True)
class SystemDef:
    """A named dynamical system ready for integration.

    rhs(t, y) must accept a state of shape (d,) and return the same shape;
    it is the only definition of the field that integration uses.
    """

    name: str
    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]


def financial_system(params: FinancialParams | None = None) -> SystemDef:
    p = params if params is not None else FinancialParams()
    return SystemDef(
        name="financial",
        dimension=3,
        rhs=lambda t, y: financial_rhs(y, p),
    )


def volta_system(params: VoltaParams | None = None) -> SystemDef:
    p = params if params is not None else VoltaParams()
    return SystemDef(
        name="volta",
        dimension=3,
        rhs=lambda t, y: volta_rhs(y, p),
    )


def zero_system(dimension: int = 3) -> SystemDef:
    """Field that is identically zero; a diagnostic stub. The state has shape (..., dimension)."""

    def rhs(t, y):
        shape = np.shape(y)
        if shape[-1:] != (dimension,):
            raise ValueError(f"state must have a last axis of length {dimension}, got {shape}")
        return np.zeros(shape)

    return SystemDef(name="zero", dimension=dimension, rhs=rhs)
