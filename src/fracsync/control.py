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
is exactly -I, and e2 and e3 obey D^q e = -e. The closed loop keeps one
bilinear remainder, D^q e1 = -e1 + (1 - z2)(1 + y2), a term of the slave
state that does not vanish with the error, so e1 does not settle: the
default run (h = 1e-3 to t = 10) ends with |e1| near 1.3 while e2 and e3
are below 0.005, and it never synchronizes. Reports carry the design
matrix and its spectrum, which describe the linear part only.

Stability of a matrix under componentwise orders follows the argument
criterion: every eigenvalue must satisfy |arg(lambda)| > q * pi / 2. The
spectrum comes from LAPACK, which returns the repeated real roots of the
controllers' diagonal design matrices exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DegenerateEigenvalue, InvalidGain
from .systems import (FinancialParams, SystemDef, VoltaParams, financial_rhs, number_array,
                      order_array, volta_rhs)


def closed_loop_error_matrix(gain, p: VoltaParams) -> np.ndarray:
    """Design matrix of the linearized error system under gain A."""
    # Linear part of the error dynamics before feedback is added.
    base = np.array(
        [
            [-1.0, -p.a, 1.0],
            [-p.b, -1.0, 0.0],
            [-1.0, 0.0, p.c],
        ]
    )
    return base + number_array(gain, InvalidGain, "gain", (3, 3))


def gain_matrix_default(p: VoltaParams) -> np.ndarray:
    """Feedback gain that turns the design matrix into exactly -I.

    It is -I less the design matrix at zero gain. np.diag keeps the zeros
    of -I positive (-np.eye(3) has -0.0 there), so the zeros of the gain,
    which reports echo, stay 0.0.
    """
    return np.diag([-1.0, -1.0, -1.0]) - closed_loop_error_matrix(np.zeros((3, 3)), p)


def control_literal(master, slave, fp: FinancialParams, vp: VoltaParams, gain) -> np.ndarray:
    """Algebraic control law plus linear error feedback; shapes (..., 3)."""
    return _literal_law(master, slave, fp, vp, number_array(gain, InvalidGain, "gain", (3, 3)))


def _literal_law(master, slave, fp, vp, gain):
    # The law for a gain already checked; the coupled row calls it every step.
    m = np.asarray(master, dtype=np.float64)
    s = np.asarray(slave, dtype=np.float64)
    try:
        x1, y1, z1 = m.T
        x2, y2, z2 = s.T
    except TypeError:  # a 0-d state, which has no axis to unpack
        raise ValueError("states must have a last axis of length 3, got shape ()") from None
    v = (s - m) @ gain.T
    v1, v2, v3 = v.T
    u = np.empty(v.shape)
    o = u.T
    o[0] = -(fp.alpha - 1.0) * x1 + (x1 + vp.a) * y1 + (1.0 + y2) + v1
    o[1] = -(fp.beta - 1.0) * y1 + (vp.b - x1) * x1 + x2 * z2 + 1.0 + v2
    o[2] = -(y2 + 1.0) * x2 - (vp.c + fp.gamma) * z1 - 1.0 + v3
    return u


def control_exact(master, slave, fp: FinancialParams, vp: VoltaParams, lam) -> np.ndarray:
    """Cancellation law u = F(master) - G(slave) + diag(lam) e; shapes (..., 3)."""
    lam = _check_lambda(lam)
    m = np.asarray(master, dtype=np.float64)
    s = np.asarray(slave, dtype=np.float64)
    return financial_rhs(m, fp) - volta_rhs(s, vp) + (s - m) * lam


def _check_lambda(lam) -> np.ndarray:
    # One rate, as a number or a one-element list, is used for all three components.
    arr = number_array(lam, InvalidGain, "lam")
    if arr.shape in ((), (1,)):
        arr = np.full(3, arr.item())
    if arr.shape != (3,):
        raise InvalidGain(f"lam must give 3 rates, got shape {arr.shape}")
    if np.any(arr >= 0.0):
        raise InvalidGain(f"every error rate must be negative, got {arr.tolist()}")
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
            arr = number_array(self.gain, InvalidGain, "gain", (3, 3))
            object.__setattr__(self, "gain", tuple(tuple(float(v) for v in row) for row in arr))

    def gain_array(self, vp: VoltaParams) -> np.ndarray:
        if self.gain is None:
            return gain_matrix_default(vp)
        return np.array(self.gain)

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
            return volta_rhs(s, vp) + _literal_law(m, s, fp, vp, gain)

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
        out = np.empty(y.shape)  # refuses a last axis of 4, which the exact row broadcasts
        try:
            m, s = y[..., :3], y[..., 3:]
        except IndexError:  # a 0-d state
            raise ValueError("state must have a last axis of length 6, got shape ()") from None
        out[..., :3] = fm = financial_rhs(m, fp)
        out[..., 3:] = slave_row(m, s, fm)
        return out

    return SystemDef(name="coupled", dimension=6, rhs=rhs)


# ---------------------------------------------------------------------------
# Spectrum of a 3x3 matrix and the fractional argument criterion.
# ---------------------------------------------------------------------------


def eigen3(matrix) -> np.ndarray:
    """The three eigenvalues of a real 3x3 matrix as a complex array.

    LAPACK computes them (`numpy.linalg.eigvals`); they are sorted by real
    part, then imaginary part. Real roots have an imaginary part of exactly
    0 and complex roots come as exact conjugates, the lower one first.
    `matrix` must be a 3x3 array of finite numbers (`systems.number_array`):
    strings, booleans, None, NaN, infinities, ragged lists and any other
    shape raise ValueError.
    """
    return np.sort_complex(np.linalg.eigvals(number_array(matrix, ValueError, "matrix", (3, 3))))


def _min_argument(lams) -> Optional[float]:
    """Smallest |arg| over a spectrum, or None when an eigenvalue is numerically zero."""
    scale = max(abs(z) for z in lams)
    if any(abs(z) <= 1e-12 * (1.0 + scale) for z in lams):
        return None
    return min(abs(cmath.phase(z)) for z in lams)


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum of a matrix against the per-order argument thresholds."""

    eigenvalues: tuple
    min_argument: float
    thresholds: tuple
    satisfied_per_order: tuple
    satisfied: bool
    degenerate: bool = False

    @property
    def chaos_threshold(self) -> Optional[float]:
        """(2/pi) * min |arg(lambda)| clamped to [0, 2], or None when the spectrum is degenerate."""
        if self.degenerate:
            return None
        return min(max((2.0 / math.pi) * self.min_argument, 0.0), 2.0)

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

    `orders` is a `FractionalOrders`, a number or 3 numbers, each finite
    and in (0, 1]; a number gives all three thresholds. Anything else
    raises InvalidOrder (see `systems.order_array`). `matrix` follows
    `eigen3`'s rule and raises ValueError. A spectrum containing
    a numerically zero eigenvalue has no usable argument; the report is
    then flagged degenerate and not satisfied.
    """
    q = order_array(orders, (3,))
    lams = eigen3(matrix)
    min_arg = _min_argument(lams)
    degenerate = min_arg is None
    thresholds = tuple(float(v) * math.pi / 2.0 for v in q)
    per_order = tuple((not degenerate) and min_arg > thr for thr in thresholds)
    return StabilityReport(
        eigenvalues=tuple(lams),
        min_argument=0.0 if degenerate else float(min_arg),
        thresholds=thresholds,
        satisfied_per_order=per_order,
        satisfied=all(per_order),
        degenerate=degenerate,
    )


def chaos_threshold(matrix) -> float:
    """Order below which the argument criterion holds for `matrix`.

    Equals `StabilityReport.chaos_threshold` of `matignon_check(matrix, 1)`.
    Raises ValueError for a matrix `eigen3` refuses, and
    DegenerateEigenvalue when the spectrum touches zero.
    """
    threshold = matignon_check(matrix, 1.0).chaos_threshold
    if threshold is None:
        raise DegenerateEigenvalue("spectrum touches zero; no argument threshold exists")
    return threshold
