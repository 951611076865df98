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

Each field is written once, as a body over (x, y, z), and evaluated by
`componentwise`: a single state of shape (3,) runs on Python floats, a
batch of shape (..., 3) on views along its last axis. Both do the same
IEEE operations in the same order, so a whole trajectory evaluates in one
call and equals its rows bit for bit; any other length of that axis raises
ValueError. Parameters are stored as Python floats, checked by the
`number_array` rule, so a float32 parameter cannot make a single state's
arithmetic float32. Jacobians and equilibria take single states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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


def number_array(value, error, name: str, shape: tuple | None = None) -> np.ndarray:
    """`value` as a new float64 array of finite numbers; anything else raises `error`.

    This is the one rule for numbers a caller supplies. Refused: strings
    (even "0.9"), None, booleans (also inside lists), complex numbers,
    ragged nesting, NaN and infinities. When `shape` is given, `value` must
    have exactly that shape: nothing is reshaped or broadcast.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or has_bool(value):
        raise error(f"{name} must be {'a number' if shape == () else 'numbers'}, got {value!r}")
    if shape is not None and arr.shape != shape:
        raise error(f"{name} must have shape {shape}, got shape {arr.shape}")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise error(f"{name} must be finite, got {value!r}")
    return arr


def count_number(value, name: str, least: int) -> int:
    """`value` as an int >= `least`; a boolean, a float or any other type raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def positive_number(value, name: str) -> float:
    """`value` as a positive float by the `number_array` rule; anything else is a ValueError."""
    val = float(number_array(value, ValueError, name, ()))
    if val <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return val


def order_array(orders, shape: tuple) -> np.ndarray:
    """Derivative orders as a new float64 array of `shape`.

    `orders` is a `FractionalOrders`, a number or an array_like of numbers,
    broadcast to `shape` by numpy's rules, so one number serves every
    component. Every order must be finite and in (0, 1]. Raises
    InvalidOrder for anything else: a value `number_array` refuses, a shape
    that does not broadcast to `shape`, or an order out of range.
    """
    if isinstance(orders, FractionalOrders):
        orders = orders.q
    arr = number_array(orders, InvalidOrder, "orders")
    # broadcast_to takes a few microseconds, as long as the rest of this
    # check, so it runs only when the shape does not already fit.
    if arr.shape != shape:
        try:
            arr = np.broadcast_to(arr, shape).copy()
        except ValueError:
            raise InvalidOrder(f"orders of shape {arr.shape} do not broadcast to shape {shape}")
    if not ((arr > 0.0) & (arr <= 1.0)).all():
        raise InvalidOrder(f"orders must lie in (0, 1], got {arr.tolist()}")
    return arr


@dataclass(frozen=True)
class FractionalOrders:
    """Per-component Caputo derivative orders for a three-dimensional system."""

    q: tuple[float, float, float] = (0.99, 0.99, 0.99)

    def __post_init__(self):
        q = order_array(number_array(self.q, InvalidOrder, "orders", (3,)), (3,))
        object.__setattr__(self, "q", tuple(q.tolist()))

    @classmethod
    def uniform(cls, q: float) -> "FractionalOrders":
        return cls((q, q, q))

    @property
    def commensurate(self) -> bool:
        return self.q[0] == self.q[1] == self.q[2]

    def as_array(self) -> np.ndarray:
        return np.array(self.q, dtype=np.float64)


def _floats(params) -> None:
    # Each field of a frozen parameter dataclass as a Python float, by the number rule.
    for f in fields(params):
        value = number_array(getattr(params, f.name), ValueError, f.name, ())
        object.__setattr__(params, f.name, value.item())


@dataclass(frozen=True)
class FinancialParams:
    """Financial system parameters; each is stored as a Python float (`number_array` rule)."""

    alpha: float = 1.0
    beta: float = 0.1
    gamma: float = 1.0

    __post_init__ = _floats


@dataclass(frozen=True)
class VoltaParams:
    """Volta system parameters; each is stored as a Python float (`number_array` rule)."""

    a: float = 19.0
    b: float = 11.0
    c: float = 0.73

    __post_init__ = _floats


def componentwise(body, state, p) -> np.ndarray:
    """Evaluate `body(x, y, z, p)`, a tuple of three components, on `state`.

    A 1-D state runs on Python floats (`tolist`), which do the IEEE
    operations numpy's float64 scalars do, in the same order, with less
    overhead per operation; the result comes back as a float64 array. A
    batch is unpacked into views along its last axis. Either way a last
    axis other than 3, or none at all, raises ValueError. Bodies use no
    `/` or `**`, which raise on floats where numpy returns inf or nan.
    """
    s = np.asarray(state, dtype=np.float64)
    if s.ndim == 1:
        x, y, z = s.tolist()
        return np.array(body(x, y, z, p))
    if s.ndim == 0:
        raise ValueError("state must have a last axis of length 3, got shape ()")
    x, y, z = s.T
    out = np.empty(s.shape)
    o = out.T
    o[0], o[1], o[2] = body(x, y, z, p)
    return out


def _financial(x, y, z, p):
    return z + (y - p.alpha) * x, 1.0 - p.beta * y - x * x, -x - p.gamma * z


def _volta(x, y, z, p):
    return -x - p.a * y - z * y, -y - p.b * x - x * z, p.c * z + x * y + 1.0


def financial_rhs(state, p: FinancialParams) -> np.ndarray:
    """Financial vector field; state has shape (..., 3)."""
    return componentwise(_financial, state, p)


def volta_rhs(state, p: VoltaParams) -> np.ndarray:
    """Volta vector field; state has shape (..., 3)."""
    return componentwise(_volta, state, p)


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
