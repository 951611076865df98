"""End-to-end runs assembled from the solver, control and analysis layers.

`run_simulation` is the one runner, and the one place a blowup is caught.
It returns a `Run`, which holds only what the run produced: the
trajectory and, for a synchronization, its settling summary. A run that
leaves the finite range is not an exception at this level: the `Run`
carries the valid prefix, and its `blowup` is the caught `NonFiniteState`
(its traceback dropped), so callers can persist partial results and
report `blowup.to_dict()`. A synchronization is `run_simulation` of the
coupled pair plus its error, control and settling columns. The
closed-loop verdict depends on the controller alone, not on the run, and
is taken where the controller is read:
`matignon_check(controller.design_matrix(vp), orders)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import control as ctl
from .analysis import (
    ConvergenceProblem,
    ConvergenceReport,
    SyncSummary,
    sync_time,
    terminal_errors,
)
from .errors import InvalidInput, NonFiniteState
from .solver import SolverConfig, Trajectory, integrate
from .systems import (
    FinancialParams,
    SystemDef,
    VoltaParams,
    financial_system,
    number_array,
    order_array,
    positive_number,
    volta_system,
    zero_system,
)


@dataclass
class Run:
    """What a run produced: its trajectory, its blowup record, and a synchronized run's summary."""

    trajectory: Trajectory
    blowup: Optional[NonFiniteState] = None
    summary: Optional[SyncSummary] = None


# System name -> (builder from both parameter sets, default initial state).
SYSTEMS = {
    "financial": (lambda fp, vp: financial_system(fp), (2.0, -1.0, 1.0)),
    "volta": (lambda fp, vp: volta_system(vp), (8.0, 2.0, 3.0)),
    "zero": (lambda fp, vp: zero_system(), (0.0, 0.0, 0.0)),
}


def build_system(name: str, fp: FinancialParams, vp: VoltaParams) -> SystemDef:
    if not isinstance(name, str) or name not in SYSTEMS:
        raise InvalidInput(f"system must be one of {', '.join(SYSTEMS)}, got {name!r}")
    return SYSTEMS[name][0](fp, vp)


def run_simulation(system: SystemDef, orders, y0, config: SolverConfig) -> Run:
    """The run of `integrate`, or its valid prefix with the NonFiniteState as the blowup record."""
    try:
        return Run(integrate(system, orders, y0, config))
    except NonFiniteState as exc:
        # A traceback would keep the solver's frames, and the full states array, alive.
        return Run(exc.trajectory, exc.with_traceback(None))


def run_synchronization(
    fp: FinancialParams,
    vp: VoltaParams,
    controller: ctl.Controller,
    orders,
    master0,
    slave0,
    config: SolverConfig,
    tol: float,
) -> Run:
    q = order_array(orders, (3,))
    positive_number(tol, "tol")  # sync_time's check, made before the run rather than after it
    system = ctl.coupled_system(fp, vp, controller)
    y0 = np.concatenate([number_array(s, "initial state", (3,)) for s in (master0, slave0)])
    # Master and slave components share the same three orders.
    run = run_simulation(system, np.tile(q, 2), y0, config)

    states = run.trajectory.states
    master, slave = states[:, :3], states[:, 3:]
    controls = controller.control(master, slave, fp, vp)
    traj = Trajectory(run.trajectory.times, states, errors=slave - master, controls=controls)
    return Run(traj, run.blowup, None if run.blowup is not None else sync_time(traj, tol))


# ---------------------------------------------------------------------------
# Step-halving self test on a problem with a known solution.
# ---------------------------------------------------------------------------

# Derivative orders of the study; each band is centered on the expected order 1 + q.
CONVERGENCE_CASES = (0.5, 0.8, 1.0)
CONVERGENCE_BAND = 0.2
CONVERGENCE_H0 = 1.0 / 32.0
CONVERGENCE_LEVELS = 4


def power_forcing_problem(*orders: float) -> ConvergenceProblem:
    """D^q_i y_i = Gamma(5)/Gamma(5-q_i) * t^(4-q_i), one column per order, solution t^4.

    The driver runs every column on its own, so each column is, bit for
    bit, the scalar problem of its order alone.
    """
    terms = [(math.gamma(5.0) / math.gamma(5.0 - q), 4.0 - q) for q in orders]
    return ConvergenceProblem(
        system=SystemDef(len(orders), lambda t, y: [c * t**p for c, p in terms]),
        orders=orders,
        y0=(0.0,) * len(orders),
        t_end=1.0,
        exact=lambda t: np.full(len(orders), t**4.0),
    )


@dataclass(frozen=True)
class ConvergenceCase:
    """The refinement study of order `q` and its check against the band around 1 + q."""

    q: float
    report: ConvergenceReport

    @property
    def band(self) -> tuple:
        expected = 1.0 + self.q
        return expected - CONVERGENCE_BAND, expected + CONVERGENCE_BAND

    @property
    def in_band(self) -> bool:
        lo, hi = self.band
        return all(lo <= v <= hi for v in self.report.orders)

    def to_dict(self) -> dict:
        d = self.report.to_dict()
        d.update(
            {
                "q": float(self.q),
                "expected_order": float(1.0 + self.q),
                "band": [float(self.band[0]), float(self.band[1])],
                "in_band": bool(self.in_band),
            }
        )
        return d


def convergence_selftest() -> tuple[list[ConvergenceCase], bool]:
    """Run the refinement study at each case order and check its band.

    The cases are the columns of one `power_forcing_problem`, so each
    step size takes one integration, and each column's report is
    `convergence_order` of its order's problem alone, bit for bit.
    """
    problem = power_forcing_problem(*CONVERGENCE_CASES)
    hs, errors = terminal_errors(problem, CONVERGENCE_H0, CONVERGENCE_LEVELS)
    cases = [ConvergenceCase(q, ConvergenceReport(hs, tuple(errs)))
             for q, errs in zip(CONVERGENCE_CASES, errors.T.tolist())]
    return cases, all(c.in_band for c in cases)
