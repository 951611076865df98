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

Each field is defined once, as the `rhs` of `financial_system` and
`volta_system`, over the three components (x, y, z) of a state: the
integration driver hands it a list of three Python floats, and three
equal-shape arrays give three arrays, a batch. `componentwise` is the one
adaptor from state arrays to such bodies: both control laws in `control`
run through it, and a field evaluates on a state array as
`componentwise(lambda s: financial_system(p).rhs(0.0, s), state)`. A
single state of shape (3,) and a batch of shape (..., 3) alike run on
views along the last axis, under one rule for overflow, so a whole
trajectory evaluates in one call and equals its rows bit for bit, inf and
nan included; any other number of components raises Python's unpacking
ValueError, unchecked. Parameters are stored as Python floats, checked by
the `number_array` rule, so a float32 parameter cannot make a state's
arithmetic float32.
Jacobians take one state of 3 finite numbers by the same rule; equilibria
take only parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInput

# Reported derivative order at which the commensurate financial system
# first sustains chaos; used as a reference point by the stability CLI.
FINANCIAL_CHAOS_ONSET_REFERENCE = 0.8436


def has_bool(value) -> bool:
    """Whether `value` or an item of its nested lists is a boolean (numpy reads True as 1.0)."""
    if isinstance(value, (list, tuple)):
        return any(has_bool(v) for v in value)
    return isinstance(value, (bool, np.bool_))


def number_array(value, name: str, shape: tuple | None = None) -> np.ndarray:
    """`value` as a new float64 array of finite numbers; anything else raises InvalidInput.

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
        kind = "a number" if shape == () else "numbers"
        raise InvalidInput(f"{name} must be {kind}, got {value!r}")
    if shape is not None and arr.shape != shape:
        raise InvalidInput(f"{name} must have shape {shape}, got shape {arr.shape}")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} must be finite, got {value!r}")
    return arr


def count_number(value, name: str, least: int) -> int:
    """`value` as an int >= `least`; a boolean, a float or any other type raises InvalidInput."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidInput(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def positive_number(value, name: str) -> float:
    """`value` as a positive float by the `number_array` rule; anything else is InvalidInput."""
    val = float(number_array(value, name, ()))
    if val <= 0.0:
        raise InvalidInput(f"{name} must be positive, got {value!r}")
    return val


def broadcast_numbers(value, name: str, shape: tuple) -> np.ndarray:
    """`value` by the `number_array` rule, broadcast to `shape`, as a new float64 array.

    This is the one rule for a number given per component, such as the
    derivative orders and the error rates: numpy's broadcasting, so one
    number, or a list of one, serves every component. A value
    `number_array` refuses, or one whose shape does not broadcast to
    `shape` ((2,), (1, 3) or (3, 1) for shape (3,)), raises InvalidInput.
    """
    arr = number_array(value, name)
    # broadcast_to takes a few microseconds, as long as the rest of this
    # check, so it runs only when the shape does not already fit.
    if arr.shape != shape:
        try:
            arr = np.broadcast_to(arr, shape).copy()
        except ValueError:
            raise InvalidInput(f"{name} must broadcast to shape {shape}, got shape {arr.shape}")
    return arr


def order_array(orders, shape: tuple) -> np.ndarray:
    """Derivative orders as a new float64 array of `shape`.

    `orders` is a `FractionalOrders`, a number or an array_like of numbers,
    broadcast to `shape` by `broadcast_numbers`, so one number serves every
    component. Every order must be finite and in (0, 1]. Raises
    InvalidInput for anything else: a value `number_array` refuses, a shape
    that does not broadcast to `shape`, or an order out of range.
    """
    if isinstance(orders, FractionalOrders):
        orders = orders.q
    arr = broadcast_numbers(orders, "orders", shape)
    if not ((arr > 0.0) & (arr <= 1.0)).all():
        raise InvalidInput(f"orders must lie in (0, 1], got {arr.tolist()}")
    return arr


@dataclass(frozen=True)
class FractionalOrders:
    """Per-component Caputo derivative orders for a three-dimensional system."""

    q: tuple[float, float, float] = (0.99, 0.99, 0.99)

    def __post_init__(self):
        q = order_array(number_array(self.q, "orders", (3,)), (3,))
        object.__setattr__(self, "q", tuple(q.tolist()))

    @classmethod
    def uniform(cls, q: float) -> "FractionalOrders":
        return cls((q, q, q))


def _floats(params) -> None:
    # Each field of a frozen parameter dataclass as a Python float, by the number rule.
    for f in fields(params):
        value = number_array(getattr(params, f.name), f.name, ())
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


def componentwise(body, *states) -> np.ndarray:
    """Evaluate `body` on the components of state arrays; the one array adaptor.

    `body` takes the components of each state, in order, and returns one
    component per entry of the states' broadcast last axis: a control
    law's body (three from master and slave), or any system's field as
    `lambda s: system.rhs(0.0, s)`, the coupled pair's six included. The
    states, converted to float64, broadcast, and the body gets views along
    their last axes, a single state included; the result is a new float64
    array of the broadcast shape. The body runs under
    np.errstate(over="ignore", invalid="ignore"), so an overflow gives inf
    or nan with no RuntimeWarning. A 0-d state, with no last axis at all,
    raises InvalidInput. A last axis the body cannot unpack raises the
    body's ValueError, and a body that returns another count of
    components raises zip's ValueError; neither is checked.
    """
    arrays = [np.asarray(s, dtype=np.float64) for s in states]
    if any(a.ndim == 0 for a in arrays):
        raise InvalidInput("state must have a last axis of length 3, got shape ()")
    out = np.empty(np.broadcast_shapes(*(a.shape for a in arrays)))
    o = np.moveaxis(out, -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        values = body(*(np.moveaxis(a, -1, 0) for a in arrays))
        # Not o[...] = values, which would broadcast a one-component body into every entry.
        for i, v in zip(range(len(o)), values, strict=True):
            o[i] = v
    return out


def financial_jacobian(state, p: FinancialParams) -> np.ndarray:
    """Jacobian of the financial field at one state, a 3x3 float64 array.

    `state` must be 3 finite numbers (`number_array` rule); anything else,
    a batch included, raises InvalidInput.
    """
    x, y, _ = number_array(state, "state", (3,)).tolist()
    return np.array(
        [
            [y - p.alpha, x, 1.0],
            [-2.0 * x, -p.beta, 0.0],
            [-1.0, 0.0, -p.gamma],
        ]
    )


def volta_jacobian(state, p: VoltaParams) -> np.ndarray:
    """Jacobian of the Volta field at one state, a 3x3 float64 array.

    `state` must be 3 finite numbers (`number_array` rule); anything else,
    a batch included, raises InvalidInput.
    """
    x, y, z = number_array(state, "state", (3,)).tolist()
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
    pair exists when 1 - beta*(alpha + 1/gamma) >= 0. Raises
    InvalidInput for beta = 0 or gamma = 0, and for parameters
    that put an equilibrium beyond float64 (1/beta overflows for a
    subnormal beta).
    """
    if p.beta == 0.0 or p.gamma == 0.0:
        raise InvalidInput(
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
    if not np.isfinite(states).all():
        raise InvalidInput(f"an equilibrium overflows float64 at {p}")
    return states


@dataclass(frozen=True)
class SystemDef:
    """A dynamical system ready for integration: its dimension d and its field.

    rhs(t, y) is the only definition of the field that integration uses.
    y is a list of the d components of a state, Python floats, and rhs
    returns d real components: a tuple, a list or any real 1-D array,
    which the driver reads as Python floats. The driver builds a new list
    for every call, so an rhs may keep y. Given d equal-shape arrays
    instead, each built-in field returns d arrays, so `componentwise`
    evaluates it on states of shape (..., d). Python floats raise on
    `/` by zero and on an overflowing `**` where numpy returns inf; an rhs
    that wants numpy's rule can call np.asarray(y). `dimension` must be an
    integer >= 1 (`count_number`); anything else raises InvalidInput here,
    once, not in a run.
    """

    dimension: int
    rhs: Callable[[float, list], Sequence[float]]

    def __post_init__(self):
        object.__setattr__(self, "dimension", count_number(self.dimension, "dimension", 1))


# Each rhs unpacks its state, so any number of components but three raises
# Python's unpacking ValueError; no check runs per call.
def financial_system(params: FinancialParams | None = None) -> SystemDef:
    p = params if params is not None else FinancialParams()

    def rhs(t, state):
        x, y, z = state
        return z + (y - p.alpha) * x, 1.0 - p.beta * y - x * x, -x - p.gamma * z

    return SystemDef(dimension=3, rhs=rhs)


def volta_system(params: VoltaParams | None = None) -> SystemDef:
    p = params if params is not None else VoltaParams()

    def rhs(t, state):
        x, y, z = state
        return -x - p.a * y - z * y, -y - p.b * x - x * z, p.c * z + x * y + 1.0

    return SystemDef(dimension=3, rhs=rhs)


def zero_system() -> SystemDef:
    """Field that is identically zero on three components; a diagnostic stub."""

    def rhs(t, y):
        if len(y) != 3:
            raise InvalidInput(f"state must have 3 components, got {len(y)}")
        return np.zeros((3, *np.shape(y[0])))  # one row per component

    return SystemDef(dimension=3, rhs=rhs)
