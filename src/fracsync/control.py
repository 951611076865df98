"""Master-slave coupling of the two fields and linear stability checks.

The financial system drives, the Volta system follows, and a control
input u added to the follower shapes the error e = slave - master. Two
controller families are provided. Each carries its law (`control`), the
design matrix of its error system (`design_matrix`) and the slave row of
the coupled field (`slave_field`), so callers never branch on the type.
Each law has one body, which the slave row and `control` both evaluate.

ExactCancellation removes both vector fields and replaces them with a
chosen linear error field: u = F(master) - G(slave) + diag(lam) e, so
each error component obeys the scalar equation D^q e_i = lam_i * e_i.
`control` evaluates the law's body with G(slave). The slave row
G(s) + u, in which G(s) cancels, is the same body with G(s) left at
zero: F(m) + diag(lam) e, bit for bit, since x - 0.0 is x for every
float.

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

from .errors import InvalidInput
from .systems import (FinancialParams, SystemDef, VoltaParams, broadcast_numbers, componentwise,
                      financial_system, number_array, order_array, volta_system)


def closed_loop_error_matrix(gain, p: VoltaParams) -> np.ndarray:
    """Design matrix of the linearized error system under gain A.

    `gain` must be a 3x3 array of finite numbers (`systems.number_array`),
    and its sum with the linear part of the error dynamics must be finite
    too: anything else raises InvalidInput.
    """
    # Linear part of the error dynamics before feedback is added.
    base = np.array(
        [
            [-1.0, -p.a, 1.0],
            [-p.b, -1.0, 0.0],
            [-1.0, 0.0, p.c],
        ]
    )
    with np.errstate(over="ignore"):  # an overflow is refused just below
        matrix = base + number_array(gain, "gain", (3, 3))
    if not np.isfinite(matrix).all():
        raise InvalidInput(f"the design matrix overflows float64: {matrix.tolist()}")
    return matrix


def gain_matrix_default(p: VoltaParams) -> np.ndarray:
    """Feedback gain that turns the design matrix into exactly -I.

    It is -I less the design matrix at zero gain. np.diag keeps the zeros
    of -I positive (-np.eye(3) has -0.0 there), so the zeros of the gain,
    which reports echo, stay 0.0.
    """
    return np.diag([-1.0, -1.0, -1.0]) - closed_loop_error_matrix(np.zeros((3, 3)), p)


def control_literal(master, slave, fp: FinancialParams, vp: VoltaParams, gain) -> np.ndarray:
    """Algebraic control law plus linear error feedback; shapes (..., 3)."""
    gain = number_array(gain, "gain", (3, 3)).tolist()
    return componentwise(lambda m, s: _literal(m, s, fp, vp, gain), master, slave)


def _literal(m, s, fp, vp, gain):
    # The law on the components of master and slave, floats or equal-shape
    # arrays, for a gain given as three rows of floats. Each v_i is summed
    # left to right and added last, so no sum depends on a BLAS kernel.
    (x1, y1, z1), (x2, y2, z2) = m, s
    e1, e2, e3 = x2 - x1, y2 - y1, z2 - z1
    v1, v2, v3 = (a1 * e1 + a2 * e2 + a3 * e3 for a1, a2, a3 in gain)
    return (
        -(fp.alpha - 1.0) * x1 + (x1 + vp.a) * y1 + (1.0 + y2) + v1,
        -(fp.beta - 1.0) * y1 + (vp.b - x1) * x1 + x2 * z2 + 1.0 + v2,
        -(y2 + 1.0) * x2 - (vp.c + fp.gamma) * z1 - 1.0 + v3,
    )


def control_exact(master, slave, fp: FinancialParams, vp: VoltaParams, lam) -> np.ndarray:
    """Cancellation law u = F(master) - G(slave) + diag(lam) e; shapes (..., 3)."""
    law = _exact(_check_lambda(lam).tolist())
    financial, volta = financial_system(fp).rhs, volta_system(vp).rhs
    return componentwise(lambda m, s: law(m, s, financial(0.0, m), *volta(0.0, s)), master, slave)


def _exact(lam):
    # The law's one body for three rates given as floats: u = F(m) - G(s) +
    # lam * (s - m) on the components of m, s, fm = F(m) and G(s). G(s)
    # left at zero gives the slave row exactly, since x - 0.0 is x for
    # every float.
    l1, l2, l3 = lam

    def law(m, s, fm, g1=0.0, g2=0.0, g3=0.0):
        (m1, m2, m3), (s1, s2, s3), (f1, f2, f3) = m, s, fm
        return f1 - g1 + (s1 - m1) * l1, f2 - g2 + (s2 - m2) * l2, f3 - g3 + (s3 - m3) * l3

    return law


def _check_lambda(lam) -> np.ndarray:
    # One rate, as a number or a one-element list, serves all three components.
    arr = broadcast_numbers(lam, "lambda", (3,))
    if np.any(arr >= 0.0):
        raise InvalidInput(f"every error rate must be negative, got {arr.tolist()}")
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

        G(s) cancels against the -G(s) inside u, so the row is the law's
        body with G(s) left at zero, F(m) + lam * (s - m), bit for bit: it
        reuses the master row and evaluates no field of its own. This
        differs from G(s) + u by rounding only. m, s and fm are three
        components each, floats or equal-shape arrays, and so are the row's.
        """
        return _exact(self.lam)


@dataclass(frozen=True)
class LiteralFeedback:
    """Controller config for the algebraic law; gain=None means the default gain."""

    gain: Optional[tuple] = None

    def __post_init__(self):
        if self.gain is not None:
            arr = number_array(self.gain, "gain", (3, 3))
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
        """Slave row G(s) + u of the coupled field, as row(m, s, fm); fm is unused.

        G(s) and u are the Volta body and the law's body on the components
        of m and s, floats or equal-shape arrays, added component by
        component; `control` evaluates the same law body on state arrays.
        """
        gain = self.gain_array(vp).tolist()
        volta = volta_system(vp).rhs

        def row(m, s, fm):
            (g1, g2, g3), (u1, u2, u3) = volta(0.0, s), _literal(m, s, fp, vp, gain)
            return g1 + u1, g2 + u2, g3 + u3

        return row


Controller = Union[ExactCancellation, LiteralFeedback]


def coupled_system(
    fp: FinancialParams, vp: VoltaParams, controller: Controller
) -> SystemDef:
    """Six-dimensional driven pair as an integrable system: F(m), then G(s) + u.

    Its rhs takes the six components master then slave, floats or
    equal-shape arrays, and returns six; any other count raises Python's
    unpacking ValueError, unchecked. `systems.componentwise` evaluates it
    on states of shape (..., 6), overflow included, as it does the fields.
    """
    # Both rows are bound once here, so the right-hand side does not
    # dispatch on the controller at every call.
    master_row = financial_system(fp).rhs
    slave_row = controller.slave_field(fp, vp)

    def rhs(t, y):
        m, s = y[:3], y[3:]
        fm = master_row(t, m)
        return (*fm, *slave_row(m, s, fm))

    return SystemDef(dimension=6, rhs=rhs)


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
    shape raise InvalidInput, and so does a finite matrix whose spectrum
    overflows float64 or that LAPACK's iteration fails on (entries near
    1e308 can make it stop unconverged).
    """
    try:
        lams = np.sort_complex(np.linalg.eigvals(number_array(matrix, "matrix", (3, 3))))
    except np.linalg.LinAlgError as exc:
        raise InvalidInput(f"matrix has no computable spectrum: {exc}") from None
    if not np.isfinite(lams).all():
        raise InvalidInput(f"the spectrum overflows float64: {lams.tolist()}")
    return lams


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
        """(2/pi) * min |arg(lambda)|, or None when the spectrum is degenerate.

        It lies in [0, 2] unclamped: min_argument is an abs(cmath.phase(...))
        in [0, pi], rounding is monotone and (2.0 / math.pi) * math.pi == 2.0.
        """
        if self.degenerate:
            return None
        return (2.0 / math.pi) * self.min_argument

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
    raises InvalidInput (see `systems.order_array`). `matrix` follows
    `eigen3`'s rule and raises InvalidInput. A spectrum containing
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
    Raises InvalidInput for a matrix `eigen3` refuses, and when the
    spectrum touches zero.
    """
    threshold = matignon_check(matrix, 1.0).chaos_threshold
    if threshold is None:
        raise InvalidInput("spectrum touches zero; no argument threshold exists")
    return threshold
