"""Post-processing: error prediction, sync timing, separation, convergence.

The closed-loop error of the cancellation controller obeys scalar
fractional relaxation, so its exact solution is e_i(0) times the
one-parameter Mittag-Leffler function at -t^q_i. That function is
evaluated here by fixed-cost Gauss-Legendre quadrature of its completely
monotone integral representation (Gorenflo, Loutchko & Luchko, Fract.
Calc. Appl. Anal. 5, 2002), in the style of Garrappa's bounded-time
evaluators (SIAM J. Numer. Anal. 53(3), 2015): every call on the domain
q in (0, 1], -30 <= z <= 0 costs a bounded number of vectorised integrand
evaluations, and the tests hold it to 1e-10 relative error against a
wide-precision series on a grid spanning that domain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidInput
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
# 1 - E_q(-x) <= x / Gamma(1 + q) is under half an ulp of 1 here.
_UNIT_ARG = 2.0**-56


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
    """One-parameter Mittag-Leffler function E_q(z) for q in (0, 1] and -30 <= z <= 0.

    Only the negative axis is served, because the exact error law
    e_i(0) * E_q(lam t^q) of the cancellation loop has lam < 0. There E_q
    is completely monotone with values in (0, 1], so no result overflows.
    E_1 is exp. For 0 < q < 1 and x = -z > 0, substituting
    u = (r x^(1/q))^q in the Gorenflo-Loutchko-Luchko integral gives

        E_q(-x) = sin(q pi)/(q pi) * int_0^inf exp(-u^(1/q)) L(u) du,

    with the Lorentzian L(u) = x / ((u - c)^2 + w^2), centre
    c = -x cos(q pi) and width w = x sin(q pi). The integrand is positive,
    so nothing cancels, and past u = 745^q, where exp(-u^(1/q))
    underflows, it is 0. The integral is composite 32-point Gauss-Legendre
    on panels whose breakpoints follow the scales of both factors: a
    geometric grid in s = u^(1/q) up to 745, multiples 2^j of x, and, when
    the centre lies in the range (q > 1/2), c +/- w 2^j. Nodes are laid
    out as offsets from c, so the narrow peak of q near 1 keeps its
    relative resolution.

    The tests hold the result to 1e-10 relative error against a
    wide-precision series (or the large-x asymptotic series) on a grid
    spanning q from 1e-3 to 1 and x from 1e-12 to 30; measured errors
    are below 2e-13. A call costs at most about 140 panels of 32
    integrand evaluations (well under 1 ms) for q up to 0.999; the peak's
    panels grow with log(1/(1 - q)) beyond, to about 220 next to q = 1.
    A z above -2^-56 returns 1.0, the correctly rounded value. Raises
    InvalidInput for a q that is not a number in (0, 1]
    (`systems.order_array`), for a z outside [-30, 0] or not a finite real
    number, and for a subnormal q (1/q overflows).
    """
    q = float(order_array(q, ()))
    z = float(number_array(z, "argument", ()))
    if not -_MAX_ABS_ARG <= z <= 0.0:
        raise InvalidInput(f"z = {z:g} lies outside the supported domain [-{_MAX_ABS_ARG:g}, 0]")
    x = -z
    if x < _UNIT_ARG:
        return 1.0
    if q == 1.0:
        return math.exp(z)
    if q < sys.float_info.min:
        raise InvalidInput(f"order {q!r} is subnormal: 1/q overflows float64")
    sin_q = math.sin(math.pi * min(q, 1.0 - q))  # exact-argument form near q = 1
    cos_q = math.cos(math.pi * q)
    c = -x * cos_q
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
    weight = np.exp(-((c + node) ** (1.0 / q)))
    h = np.hypot(node, w)  # scaled so tiny x and w neither underflow nor overflow
    total = float(np.sum(weight * (x / h) * (half[:, None] * _GL_WEIGHTS / h)))
    return sin_q / (q * math.pi) * total


def predicted_error(e0, orders, t: float) -> np.ndarray:
    """Exact error components e0_i * E_{q_i}(-t^{q_i}) of the cancellation loop.

    e0 is an array of finite numbers of any shape and t a finite number
    >= 0, both under the `systems.number_array` rule, which raises
    InvalidInput for strings, booleans, None, NaN, infinities and ragged
    lists. The orders are broadcast to the shape of e0
    (`systems.order_array`), and the result has that shape. `mittag_leffler`
    serves z = -t^q_i down to -30, so t must be at most 30^(1/q_i) for every
    order q_i (30 at q = 1, about 43.8 at q = 0.9); a later time raises
    InvalidInput before any evaluation.
    """
    t = float(number_array(t, "time", ()))
    if t < 0.0:
        raise InvalidInput(f"time must be nonnegative, got {t!r}")
    e0 = number_array(e0, "e0")
    q = order_array(orders, e0.shape)
    # t^q grows with q once t > 1, so the largest order is one that a late time passes.
    if any(t**v > _MAX_ABS_ARG for v in q.flat):
        raise InvalidInput(f"time must be <= 30^(1/q), got {t!r} at order q = {float(q.max())!r}")
    terms = [e * mittag_leffler(v, -(t**v)) for e, v in zip(e0.flat, q.flat)]
    return np.array(terms).reshape(e0.shape)


@dataclass(frozen=True)
class SyncSummary:
    """First time the error norm stays under tol, plus the final errors.

    tol must be a positive number (`systems.positive_number`), stored as a
    Python float, and there must be at least one final error; anything
    else raises InvalidInput. A NaN final error raises InvalidInput, as in
    `sync_time`, wherever it sits; an infinite one is a violation of tol.
    """

    sync_time: Optional[float]
    final_errors: tuple
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "tol", positive_number(self.tol, "tol"))
        if len(self.final_errors) == 0:
            raise InvalidInput("final errors must hold at least one value, got none")
        nan = [i for i, v in enumerate(self.final_errors) if math.isnan(v)]
        if nan:
            raise InvalidInput(f"final error is NaN at component {nan[0]}")

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


def _columns(rows: np.ndarray, name: str) -> np.ndarray:
    """`rows` if it is 2-D with at least one column; InvalidInput naming `name` otherwise."""
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise InvalidInput(f"{name} must be rows of at least one column, got shape {rows.shape}")
    return rows


def sync_time(traj: Trajectory, tol: float) -> SyncSummary:
    """Earliest grid time after which max_i |e_i| stays below tol for good.

    sync_time is None when the last grid point still violates the
    threshold; a trajectory that never violates it reports time zero. The
    errors must be a 2-D array of one row per grid point and at least one
    column, and tol a positive number (`systems.positive_number`): a
    string, a boolean, NaN, an infinity or an array raises InvalidInput. An infinite error is a violation; a NaN
    error raises InvalidInput naming the first grid index that holds one.
    """
    if traj.errors is None:
        raise InvalidInput("trajectory carries no error columns")
    errors = _columns(traj.errors, "errors")
    tol = positive_number(tol, "tol")
    sup = np.max(np.abs(errors), axis=1)
    nan = np.flatnonzero(np.isnan(sup))
    if nan.size:
        raise InvalidInput(f"error is NaN at grid index {nan[0]}")
    above = np.flatnonzero(sup >= tol)
    if above.size == 0:
        t_star: Optional[float] = float(traj.times[0])
    elif above[-1] == sup.size - 1:
        t_star = None
    else:
        t_star = float(traj.times[above[-1] + 1])
    final = tuple(float(v) for v in errors[-1])
    return SyncSummary(sync_time=t_star, final_errors=final, tol=tol)


def divergence_factor(a: Trajectory, b: Trajectory) -> float:
    """max_t ||a - b|| / ||a(0) - b(0)|| over a shared time grid.

    Each separation is a scaled Euclidean norm (`np.hypot`), so it is
    exact to rounding whenever it is a finite float: a separation of
    1e-200 or 1e160 is not squared out of range. A separation that is
    not finite, from a non-finite state or from a difference or norm that
    overflows, raises InvalidInput, and so does a ratio that overflows.
    Both trajectories must share their grid and their state shape, a 2-D
    array of at least one column, and start apart.
    """
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise InvalidInput("trajectories do not share a time grid")
    if a.states.shape != b.states.shape:
        raise InvalidInput(f"state shapes differ: {a.states.shape} vs {b.states.shape}")
    _columns(a.states, "states")
    with np.errstate(over="ignore", invalid="ignore"):
        sep = np.hypot.reduce(a.states - b.states, axis=1)
    bad = np.flatnonzero(~np.isfinite(sep))
    if bad.size:
        raise InvalidInput(f"separation is not finite at grid index {bad[0]}")
    top, first = float(np.max(sep)), float(sep[0])
    if first == 0.0:
        raise InvalidInput("trajectories start from the same state")
    if top / first == math.inf:  # a Python float quotient overflows to inf without a warning
        raise InvalidInput(f"divergence factor {top!r} / {first!r} overflows float64")
    return top / first


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
    """Errors of a refinement study at its step sizes, and their `empirical_orders`."""

    step_sizes: tuple
    errors: tuple
    orders: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "orders", empirical_orders(self.errors))

    def to_dict(self) -> dict:
        return {
            "step_sizes": [float(v) for v in self.step_sizes],
            "errors": [float(v) for v in self.errors],
            "orders": [float(v) for v in self.orders],
        }


def empirical_orders(errors: Sequence[float]) -> tuple:
    """log2 ratios of successive errors from a halving-step refinement.

    `errors` must be a list of at least two positive numbers by the
    `systems.number_array` rule; anything else raises InvalidInput. A
    ratio of successive errors that leaves the float range, 0 (1e-320 then
    1e300) or inf (1e308 then 1e-308), has no finite log2 and raises
    InvalidInput naming its pair.
    """
    arr = number_array(errors, "errors")
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidInput(f"need a list of at least two error values, got shape {arr.shape}")
    errs = arr.tolist()
    if any(e <= 0.0 for e in errs):
        raise InvalidInput("errors must be positive to take ratios")
    for i, (a, b) in enumerate(zip(errs, errs[1:])):
        if a / b in (0.0, math.inf):
            raise InvalidInput(f"error ratio {a!r} / {b!r} of pair {i} leaves the float range")
    return tuple(math.log2(a / b) for a, b in zip(errs, errs[1:]))


def terminal_errors(problem: ConvergenceProblem, h0: float, levels: int):
    """Terminal errors of a refinement study with step sizes h0 / 2^k.

    Runs `levels` integrations and returns the step sizes and a
    (levels, dimension) array of each component's absolute error against
    the exact solution at t_end. `h0` must be a positive number and
    `levels` an integer >= 2 (a boolean or a float is not), t_end a
    positive number, and the exact solution at t_end, evaluated once
    before any run, finite numbers of shape (dimension,) by the
    `systems.number_array` rule; anything else raises InvalidInput.
    """
    h0 = positive_number(h0, "h0")
    levels = count_number(levels, "levels", 2)
    t_end = positive_number(problem.t_end, "t_end")
    shape = (problem.system.dimension,)
    ref = number_array(problem.exact(t_end), "exact solution", shape)
    hs = tuple(h0 / (2.0**k) for k in range(levels))
    finals = [
        integrate(problem.system, problem.orders, problem.y0, SolverConfig.for_horizon(h, t_end))
        .final_state
        for h in hs
    ]
    return hs, np.abs(np.array(finals) - ref)


def convergence_order(problem: ConvergenceProblem, h0: float, levels: int) -> ConvergenceReport:
    """Terminal-error refinement study with step sizes h0 / 2^k.

    Measures the max-abs error of each of the `levels` runs of
    `terminal_errors`, whose input rules it shares, and reports the
    pairwise empirical orders.
    """
    hs, errors = terminal_errors(problem, h0, levels)
    return ConvergenceReport(hs, tuple(errors.max(axis=1).tolist()))
