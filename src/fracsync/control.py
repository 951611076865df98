"""Master-slave coupling of the two fields and linear stability checks.

The financial system drives, the Volta system follows, and a control
input u added to the follower shapes the error e = slave - master. Two
controller families are provided. Each carries its law (`control`), the
design matrix of its error system (`design_matrix`) and the slave row of
the coupled field (`slave_field`), so callers never branch on the type.

ExactCancellation removes both vector fields and replaces them with a
chosen linear error field: u = F(master) - G(slave) + diag(lam) e, so
each error component obeys the scalar equation D^q e_i = lam_i * e_i.

LiteralFeedback applies a fixed algebraic control law, written against
the follower state except for its second bilinear term, plus a linear
term v = A e:

    u1 = -(alpha - 1) x1 + (x1 + a) y1 + (1 + y2) + v1
    u2 = -(beta - 1) y1 + (b - x1) x1 + x2 z2 + 1 + v2
    u3 = -(y2 + 1) x2 - (c + gamma) z1 - 1 + v3

With the default gain A the design matrix of the linearized error system
is exactly -I. The closed loop keeps one bilinear remainder, so the
errors settle near, not at, zero; reports carry the design matrix and
its spectrum rather than a guarantee.

Stability of a matrix under componentwise orders follows the argument
criterion: every eigenvalue must satisfy |arg(lambda)| > q * pi / 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DegenerateEigenvalue, InvalidGain
from .systems import FinancialParams, SystemDef, VoltaParams, financial_rhs, volta_rhs


def gain_matrix_default(p: VoltaParams) -> np.ndarray:
    """Feedback gain that turns the design matrix into exactly -I."""
    return np.array(
        [
            [0.0, p.a, -1.0],
            [p.b, 0.0, 0.0],
            [1.0, 0.0, -1.0 - p.c],
        ]
    )


def _linear_error_base(p: VoltaParams) -> np.ndarray:
    # Linear part of the error dynamics before feedback is added.
    return np.array(
        [
            [-1.0, -p.a, 1.0],
            [-p.b, -1.0, 0.0],
            [-1.0, 0.0, p.c],
        ]
    )


def closed_loop_error_matrix(gain, p: VoltaParams) -> np.ndarray:
    """Design matrix of the linearized error system under gain A."""
    gain = np.asarray(gain, dtype=np.float64)
    if gain.shape != (3, 3):
        raise InvalidGain(f"gain must be 3x3, got shape {gain.shape}")
    return _linear_error_base(p) + gain


def control_literal(master, slave, fp: FinancialParams, vp: VoltaParams, gain) -> np.ndarray:
    """Algebraic control law plus linear error feedback; shapes (..., 3)."""
    gain = np.asarray(gain, dtype=np.float64)
    if gain.shape != (3, 3):
        raise InvalidGain(f"gain must be 3x3, got shape {gain.shape}")
    m = np.asarray(master, dtype=np.float64)
    s = np.asarray(slave, dtype=np.float64)
    x1, y1, z1 = m[..., 0], m[..., 1], m[..., 2]
    x2, y2, z2 = s[..., 0], s[..., 1], s[..., 2]
    e = s - m
    v = e @ gain.T
    u1 = -(fp.alpha - 1.0) * x1 + (x1 + vp.a) * y1 + (1.0 + y2) + v[..., 0]
    u2 = -(fp.beta - 1.0) * y1 + (vp.b - x1) * x1 + x2 * z2 + 1.0 + v[..., 1]
    u3 = -(y2 + 1.0) * x2 - (vp.c + fp.gamma) * z1 - 1.0 + v[..., 2]
    return np.stack([u1, u2, u3], axis=-1)


def control_exact(master, slave, fp: FinancialParams, vp: VoltaParams, lam) -> np.ndarray:
    """Cancellation law u = F(master) - G(slave) + diag(lam) e; shapes (..., 3)."""
    lam = _check_lambda(lam)
    m = np.asarray(master, dtype=np.float64)
    s = np.asarray(slave, dtype=np.float64)
    return financial_rhs(m, fp) - volta_rhs(s, vp) + (s - m) * lam


def _check_lambda(lam) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if arr.size == 1:
        arr = np.full(3, float(arr[0]))
    if arr.shape != (3,):
        raise InvalidGain(f"lam must give 3 rates, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr >= 0.0):
        raise InvalidGain(f"every error rate must be finite and negative, got {arr.tolist()}")
    return arr


@dataclass(frozen=True)
class ExactCancellation:
    """Controller config for the cancellation law; lam holds the error rates."""

    lam: tuple[float, float, float] = (-1.0, -1.0, -1.0)

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(float(v) for v in _check_lambda(self.lam)))

    def control(self, master, slave, fp: FinancialParams, vp: VoltaParams) -> np.ndarray:
        """Control input u for master and slave states of shape (..., 3)."""
        return control_exact(master, slave, fp, vp, self.lam)

    def design_matrix(self, vp: VoltaParams) -> np.ndarray:
        """diag(lam): under this law the error obeys D^q e = diag(lam) e exactly."""
        return np.diag(np.array(self.lam))

    def slave_field(self, fp: FinancialParams, vp: VoltaParams):
        """Slave row G(s) + u of the coupled field, as row(m, s, fm) with fm = F(m).

        G(s) cancels against the -G(s) inside u, so the row is
        F(m) + lam * (s - m): it reuses the master row and evaluates no
        field of its own. This differs from G(s) + u by rounding only.
        """
        lam = np.array(self.lam)

        def row(m, s, fm):
            return fm + (s - m) * lam

        return row


@dataclass(frozen=True)
class LiteralFeedback:
    """Controller config for the algebraic law; gain=None means the default gain."""

    gain: Optional[tuple] = None

    def __post_init__(self):
        if self.gain is not None:
            arr = np.asarray(self.gain, dtype=np.float64)
            if arr.shape != (3, 3) or not np.all(np.isfinite(arr)):
                raise InvalidGain("gain must be a finite 3x3 matrix")
            object.__setattr__(self, "gain", tuple(tuple(float(v) for v in row) for row in arr))

    def gain_array(self, vp: VoltaParams) -> np.ndarray:
        if self.gain is None:
            return gain_matrix_default(vp)
        return np.asarray(self.gain, dtype=np.float64)

    def control(self, master, slave, fp: FinancialParams, vp: VoltaParams) -> np.ndarray:
        """Control input u for master and slave states of shape (..., 3)."""
        return control_literal(master, slave, fp, vp, self.gain_array(vp))

    def design_matrix(self, vp: VoltaParams) -> np.ndarray:
        """Design matrix of the linearized error system under this gain."""
        return closed_loop_error_matrix(self.gain_array(vp), vp)

    def slave_field(self, fp: FinancialParams, vp: VoltaParams):
        """Slave row G(s) + u of the coupled field, as row(m, s, fm); fm is unused."""
        gain = self.gain_array(vp)

        def row(m, s, fm):
            return volta_rhs(s, vp) + control_literal(m, s, fp, vp, gain)

        return row


Controller = Union[ExactCancellation, LiteralFeedback]


def coupled_system(
    fp: FinancialParams, vp: VoltaParams, controller: Controller
) -> SystemDef:
    """Six-dimensional driven pair as an integrable system: F(m), then G(s) + u."""
    # The slave row is bound once here, so the right-hand side does not
    # dispatch on the controller at every call.
    slave_row = controller.slave_field(fp, vp)

    def rhs(t, y):
        m = y[..., :3]
        s = y[..., 3:]
        fm = financial_rhs(m, fp)
        return np.concatenate([fm, slave_row(m, s, fm)], axis=-1)

    return SystemDef(name="coupled", dimension=6, rhs=rhs)


# ---------------------------------------------------------------------------
# Spectrum of a 3x3 matrix and the fractional argument criterion.
# ---------------------------------------------------------------------------

_OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))


def eigen3(matrix) -> np.ndarray:
    """Eigenvalues of a real 3x3 matrix by the cubic formula.

    Roots of the characteristic polynomial are taken in closed form and
    polished with two Newton iterations, then sorted by real part and,
    on ties, imaginary part.

    Returns
    -------
    ndarray
        Three complex eigenvalues.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    m2 = (
        (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        + (m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0])
        + (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    )
    det = (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )
    # Monic cubic L^3 + c2 L^2 + c1 L + c0, depressed by L = x - c2/3.
    c2, c1, c0 = -tr, m2, -det
    shift = c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    qq = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    disc = complex(qq * qq / 4.0 + p**3 / 27.0)
    s = cmath.sqrt(disc)
    t1 = -qq / 2.0 + s
    t2 = -qq / 2.0 - s
    big = t1 if abs(t1) >= abs(t2) else t2
    if abs(big) == 0.0:
        roots = [complex(-shift)] * 3
    else:
        u = big ** (1.0 / 3.0)
        v = -p / (3.0 * u)
        roots = []
        w = complex(1.0)
        for _ in range(3):
            roots.append(w * u + v / w - shift)
            w *= _OMEGA

    def poly(z):
        return ((z + c2) * z + c1) * z + c0

    def dpoly(z):
        return (3.0 * z + 2.0 * c2) * z + c1

    polished = []
    for r in roots:
        z = r
        for _ in range(2):
            d = dpoly(z)
            if abs(d) > 1e-300:
                z = z - poly(z) / d
        polished.append(z)
    polished.sort(key=lambda z: (z.real, z.imag))
    return np.array(polished, dtype=np.complex128)


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum of a matrix against the per-order argument thresholds."""

    eigenvalues: tuple
    min_argument: float
    thresholds: tuple
    satisfied_per_order: tuple
    satisfied: bool
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "min_argument": float(self.min_argument),
            "thresholds": [float(v) for v in self.thresholds],
            "satisfied_per_order": [bool(v) for v in self.satisfied_per_order],
            "satisfied": bool(self.satisfied),
            "degenerate": bool(self.degenerate),
        }


def matignon_check(matrix, orders) -> StabilityReport:
    """Argument criterion |arg(lambda)| > q*pi/2 for each order component.

    A spectrum containing a numerically zero eigenvalue has no usable
    argument; the report is then flagged degenerate and not satisfied.
    """
    if hasattr(orders, "as_array"):
        q = orders.as_array()
    else:
        q = np.atleast_1d(np.asarray(orders, dtype=np.float64))
    lams = eigen3(matrix)
    scale = max(abs(z) for z in lams)
    degenerate = any(abs(z) <= 1e-12 * (1.0 + scale) for z in lams)
    if degenerate:
        min_arg = 0.0
    else:
        min_arg = min(abs(cmath.phase(z)) for z in lams)
    thresholds = tuple(float(v) * math.pi / 2.0 for v in q)
    per_order = tuple((not degenerate) and min_arg > thr for thr in thresholds)
    return StabilityReport(
        eigenvalues=tuple(lams),
        min_argument=float(min_arg),
        thresholds=thresholds,
        satisfied_per_order=per_order,
        satisfied=all(per_order),
        degenerate=degenerate,
    )


def chaos_threshold(matrix) -> float:
    """Order below which the argument criterion holds for `matrix`.

    Equals (2/pi) * min |arg(lambda)|, clamped to [0, 2]. Raises
    DegenerateEigenvalue when the spectrum touches zero.
    """
    lams = eigen3(matrix)
    scale = max(abs(z) for z in lams)
    if any(abs(z) <= 1e-12 * (1.0 + scale) for z in lams):
        raise DegenerateEigenvalue("spectrum touches zero; no argument threshold exists")
    qstar = (2.0 / math.pi) * min(abs(cmath.phase(z)) for z in lams)
    return min(max(qstar, 0.0), 2.0)
