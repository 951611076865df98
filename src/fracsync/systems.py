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

Both right-hand sides accept any array whose last axis has length 3, so a
whole trajectory can be evaluated in one call. Jacobians and equilibria
operate on single states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateParameters, InvalidOrder

# Reported derivative order at which the commensurate financial system
# first sustains chaos; used as a reference point by the stability CLI.
FINANCIAL_CHAOS_ONSET_REFERENCE = 0.8436


@dataclass(frozen=True)
class FractionalOrders:
    """Per-component Caputo derivative orders for a three-dimensional system."""

    q: tuple[float, float, float] = (0.99, 0.99, 0.99)

    def __post_init__(self):
        try:
            qt = tuple(float(v) for v in self.q)
        except TypeError:
            raise InvalidOrder(f"orders must be a sequence of 3 numbers, got {self.q!r}")
        if len(qt) != 3:
            raise InvalidOrder(f"expected 3 orders, got {len(qt)}")
        for v in qt:
            if not (math.isfinite(v) and 0.0 < v <= 1.0):
                raise InvalidOrder(f"order {v!r} outside (0, 1]")
        object.__setattr__(self, "q", qt)

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
    x, y, z = s[..., 0], s[..., 1], s[..., 2]
    out = np.empty(s.shape)
    out[..., 0] = z + (y - p.alpha) * x
    out[..., 1] = 1.0 - p.beta * y - x * x
    out[..., 2] = -x - p.gamma * z
    return out


def volta_rhs(state, p: VoltaParams) -> np.ndarray:
    """Volta vector field; state has shape (..., 3)."""
    s = np.asarray(state, dtype=np.float64)
    x, y, z = s[..., 0], s[..., 1], s[..., 2]
    out = np.empty(s.shape)
    out[..., 0] = -x - p.a * y - z * y
    out[..., 1] = -y - p.b * x - x * z
    out[..., 2] = p.c * z + x * y + 1.0
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
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None


def financial_system(params: FinancialParams | None = None) -> SystemDef:
    p = params if params is not None else FinancialParams()
    return SystemDef(
        name="financial",
        dimension=3,
        rhs=lambda t, y: financial_rhs(y, p),
        jacobian=lambda y: financial_jacobian(y, p),
    )


def volta_system(params: VoltaParams | None = None) -> SystemDef:
    p = params if params is not None else VoltaParams()
    return SystemDef(
        name="volta",
        dimension=3,
        rhs=lambda t, y: volta_rhs(y, p),
        jacobian=lambda y: volta_jacobian(y, p),
    )


def zero_system(dimension: int = 3) -> SystemDef:
    """Field that is identically zero; a diagnostic stub."""
    return SystemDef(
        name="zero",
        dimension=dimension,
        rhs=lambda t, y: np.zeros(dimension),
    )
