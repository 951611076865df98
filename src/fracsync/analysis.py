"""Post-processing: error prediction, sync timing, separation, convergence.

The closed-loop error of the cancellation controller obeys scalar
fractional relaxation, so its exact solution is e_i(0) times the
one-parameter Mittag-Leffler function at -t^q_i. That function is
evaluated here by fixed-cost Gauss-Legendre quadrature of its completely
monotone integral representation (Gorenflo, Loutchko & Luchko, Fract.
Calc. Appl. Anal. 5, 2002), in the style of Garrappa's bounded-time
evaluators (SIAM J. Numer. Anal. 53(3), 2015): every call on the domain
q in (0, 1], |z| <= 30 costs a bounded number of vectorised integrand
evaluations, and the tests hold it to 1e-10 relative error against a
wide-precision series on a grid spanning that domain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainExceeded,
    GridMismatch,
    MissingErrors,
    ZeroInitialSeparation,
)
from .solver import SolverConfig, Trajectory, integrate
from .systems import SystemDef, count_number, number_array, order_array, positive_number

_MAX_ABS_ARG = 30.0
# exp(-s) underflows past s = 745, so the integrands vanish (or reach 1)
# beyond u = 745^q.
_S_CUTOFF = 745.0
# Breakpoints s = u^(1/q) = 2^k resolve the knee of exp(-u^(1/q)) at u = 1,
# which is about q wide; below s = 2^-40 the factor is 1 - s to roundoff.
_S_BREAKS = 2.0 ** np.arange(-40.0, math.log2(_S_CUTOFF))
# Breakpoints u = x * 2^j resolve the Lorentzian factor, whose scale is x;
# past the last one it holds under 2^-60 of its mass.
_X_BREAKS = 2.0 ** np.arange(-2.0, 61.0)
# |E_q(z) - 1| <= |z| / Gamma(1 + q) + O(z^2) is under half an ulp of 1 here.
_UNIT_ARG = 2.0**-56
# E_q(x) > exp(x^(1/q)) / q, which overflows once x^(1/q) > ln(DBL_MAX).
_LOG_LOG_MAX = math.log(math.log(sys.float_info.max))


# The 32-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial's
# leggauss(32) gives it (the tests hold it to that bit for bit): the positive
# nodes in increasing order and their weights. The rule is symmetric, so the
# negative half mirrors them.
_GL_HALF_NODES = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_GL_HALF_WEIGHTS = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])


def mittag_leffler(q: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_q(z) for q in (0, 1], |z| <= 30.

    E_1 is exp. For 0 < q < 1 and x = |z| > 0, substituting u = (r x^(1/q))^q
    in the Gorenflo-Loutchko-Luchko integral gives

        E_q(-x) = sin(q pi)/(q pi) * int_0^inf exp(-u^(1/q)) L_-(u) du,
        E_q(x)  = 1 + expm1(x^(1/q))/q
                  + sin(q pi)/(q pi) * int_0^inf -expm1(-u^(1/q)) L_+(u) du,

    with the Lorentzian L_(+/-)(u) = x / ((u - c)^2 + w^2), centre
    c = -/+ x cos(q pi) and width w = x sin(q pi). Both integrands are
    positive, so nothing cancels. The second form is the usual
    exp(x^(1/q))/q minus the first integral with the sign of the cosine
    flipped, rewritten with the Lorentzian's total mass (1 - q)/q so that
    small q loses no digits. Past u = 745^q the factor exp(-u^(1/q)) is 0
    and -expm1 is 1, so the positive-axis tail is the Lorentzian's closed
    form. The rest is composite 32-point Gauss-Legendre on panels whose
    breakpoints follow the scales of both factors: a geometric grid in
    s = u^(1/q) up to 745, multiples 2^j of x, and, when the centre lies in
    the range, c +/- w 2^j. Nodes are laid out as offsets from c, so a
    narrow peak (q near 1 on the negative axis, near 0 on the positive
    one) keeps its relative resolution.

    The tests hold the result to 1e-10 relative error against a
    wide-precision series (or the large-x asymptotic series) on a grid
    spanning q from 1e-3 to 1 and |z| from 1e-12 to 30; measured errors
    are below 2e-13. A call costs at most about 130 panels of 32 integrand
    evaluations (about 0.1 ms) for q in [1e-3, 0.999]; the peak's panels
    grow with log(1/q) or log(1/(1 - q)) beyond, to about 2 050 panels
    (10 ms) at the smallest normal q. |z| < 2^-56 returns 1.0, the
    correctly rounded value. Raises InvalidOrder for a q that is not a
    number in (0, 1] (`systems.order_array`), and DomainExceeded for
    |z| > 30, for a z that is not a finite real number, for a subnormal q
    (1/q overflows), and for a positive z whose E_q(z) overflows float64,
    that is from x^(1/q) > ln(DBL_MAX) on.
    """
    q = float(order_array(q, ()))
    z = float(number_array(z, DomainExceeded, "argument", ()))
    x = abs(z)
    if x > _MAX_ABS_ARG:
        raise DomainExceeded(f"|z| = {x:g} exceeds the supported domain ({_MAX_ABS_ARG:g})")
    if x < _UNIT_ARG:
        return 1.0
    if q == 1.0:
        return math.exp(z)
    if q < sys.float_info.min:
        raise DomainExceeded(f"order {q!r} is subnormal: 1/q overflows float64")
    if z > 0.0 and math.log(x) > q * _LOG_LOG_MAX:
        raise DomainExceeded(f"E_{q:g}({z:g}) overflows float64: z^(1/q) exceeds ln(DBL_MAX)")
    sin_q = math.sin(math.pi * min(q, 1.0 - q))  # exact-argument form near q = 1
    cos_q = math.cos(math.pi * q)
    c = math.copysign(x, z) * cos_q
    w = x * sin_q
    top = _S_CUTOFF**q
    offsets = [np.array([0.0, top]) - c, x * _X_BREAKS - c, _S_BREAKS**q - c]
    if c > 0.0:
        peak = 2.0 ** np.arange(-2.0, math.ceil(math.log2(abs(cos_q) / sin_q)) + 1.0)
        offsets += [np.zeros(1), -w * peak, w * peak]
    d = np.sort(np.clip(np.concatenate(offsets), -c, top - c))
    step = d[1:] - d[:-1]
    keep = step > 0.0
    half = 0.5 * step[keep]
    # Nodes as left end plus a nonnegative step: c + node >= 0 in rounding.
    node = d[:-1][keep, None] + half[:, None] * (1.0 + _GL_NODES)
    s = (c + node) ** (1.0 / q)
    weight = np.exp(-s) if z < 0.0 else -np.expm1(-s)
    h = np.hypot(node, w)  # scaled so tiny x and w neither underflow nor overflow
    total = float(np.sum(weight * (x / h) * (half[:, None] * _GL_WEIGHTS / h)))
    integral = sin_q / (q * math.pi) * total
    if z < 0.0:
        return integral
    value = 1.0 + math.expm1(x ** (1.0 / q)) / q + integral + math.atan2(w, top - c) / (q * math.pi)
    if not math.isfinite(value):
        raise DomainExceeded(f"E_{q:g}({z:g}) overflows float64")
    return value


def predicted_error(e0, orders, t: float) -> np.ndarray:
    """Exact error components e0_i * E_{q_i}(-t^{q_i}) of the cancellation loop.

    e0 is an array of finite numbers of any shape and t a finite number
    >= 0, both under the `systems.number_array` rule, which raises
    ValueError for strings, booleans, None, NaN, infinities and ragged
    lists. The orders are broadcast to the shape of e0
    (`systems.order_array`), and the result has that shape.
    """
    t = float(number_array(t, ValueError, "time", ()))
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    e0 = number_array(e0, ValueError, "e0")
    q = order_array(orders, e0.shape)
    terms = [e * mittag_leffler(v, -(t**v)) for e, v in zip(e0.flat, q.flat)]
    return np.array(terms).reshape(e0.shape)


@dataclass(frozen=True)
class SyncSummary:
    """First time the error norm stays under tol, plus the final errors."""

    sync_time: Optional[float]
    final_errors: tuple
    tol: float

    @property
    def final_max_error(self) -> float:
        return max(abs(float(v)) for v in self.final_errors)

    @property
    def final_below_tol(self) -> bool:
        return self.final_max_error < self.tol

    def to_dict(self) -> dict:
        return {
            "sync_time": None if self.sync_time is None else float(self.sync_time),
            "final_errors": [float(v) for v in self.final_errors],
            "final_max_error": float(self.final_max_error),
            "final_below_tol": bool(self.final_below_tol),
            "tol": float(self.tol),
        }


def sync_time(traj: Trajectory, tol: float) -> SyncSummary:
    """Earliest grid time after which max_i |e_i| stays below tol for good.

    sync_time is None when the last grid point still violates the
    threshold; a trajectory that never violates it reports time zero. tol
    must be a positive number (`systems.positive_number`): a string, a
    boolean, NaN, an infinity or an array raises ValueError.
    """
    if traj.errors is None:
        raise MissingErrors("trajectory carries no error columns")
    tol = positive_number(tol, "tol")
    sup = np.max(np.abs(traj.errors), axis=1)
    above = np.flatnonzero(sup >= tol)
    if above.size == 0:
        t_star: Optional[float] = float(traj.times[0])
    elif above[-1] == sup.size - 1:
        t_star = None
    else:
        t_star = float(traj.times[above[-1] + 1])
    final = tuple(float(v) for v in traj.errors[-1])
    return SyncSummary(sync_time=t_star, final_errors=final, tol=tol)


def divergence_factor(a: Trajectory, b: Trajectory) -> float:
    """max_t ||a - b|| / ||a(0) - b(0)|| over a shared time grid."""
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise GridMismatch("trajectories do not share a time grid")
    if a.states.shape != b.states.shape:
        raise GridMismatch(
            f"state shapes differ: {a.states.shape} vs {b.states.shape}"
        )
    sep = np.linalg.norm(a.states - b.states, axis=1)
    if sep[0] == 0.0:
        raise ZeroInitialSeparation("trajectories start from the same state")
    return float(np.max(sep) / sep[0])


@dataclass(frozen=True)
class ConvergenceProblem:
    """Reference problem with a known exact solution at t_end."""

    system: SystemDef
    orders: Sequence[float]
    y0: Sequence[float]
    t_end: float
    exact: Callable[[float], np.ndarray]


@dataclass(frozen=True)
class ConvergenceReport:
    step_sizes: tuple
    errors: tuple
    orders: tuple

    def to_dict(self) -> dict:
        return {
            "step_sizes": [float(v) for v in self.step_sizes],
            "errors": [float(v) for v in self.errors],
            "orders": [float(v) for v in self.orders],
        }


def empirical_orders(errors: Sequence[float]) -> tuple:
    """log2 ratios of successive errors from a halving-step refinement.

    `errors` must be a list of at least two positive numbers by the
    `systems.number_array` rule; anything else raises ValueError.
    """
    arr = number_array(errors, ValueError, "errors")
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"need a list of at least two error values, got shape {arr.shape}")
    errs = arr.tolist()
    if any(e <= 0.0 for e in errs):
        raise ValueError("errors must be positive to take ratios")
    return tuple(math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1))


def convergence_order(problem: ConvergenceProblem, h0: float, levels: int) -> ConvergenceReport:
    """Terminal-error refinement study with step sizes h0 / 2^k.

    Runs `levels` integrations, measures max-abs error against the exact
    solution at t_end, and reports the pairwise empirical orders. `h0`
    must be a positive number and `levels` an integer >= 2 (a boolean or
    a float is not); anything else raises ValueError.
    """
    h0 = positive_number(h0, "h0")
    levels = count_number(levels, "levels", 2)
    hs = []
    errs = []
    for k in range(levels):
        h = h0 / (2.0**k)
        cfg = SolverConfig.for_horizon(h, problem.t_end)
        traj = integrate(problem.system, problem.orders, problem.y0, cfg)
        ref = number_array(problem.exact(problem.t_end), ValueError, "exact solution")
        errs.append(float(np.max(np.abs(traj.final_state - ref))))
        hs.append(h)
    return ConvergenceReport(
        step_sizes=tuple(hs), errors=tuple(errs), orders=empirical_orders(errs)
    )
