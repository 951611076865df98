"""End-to-end runs assembled from the solver, control and analysis layers.

Each runner returns a small bundle holding the trajectory and whatever
summaries the run produces. A run that leaves the finite range is not an
exception at this level: the bundle carries the valid prefix, and its
`blowup` is the caught `NonFiniteState` (its traceback dropped), so
callers can persist partial results and report `blowup.to_dict()`.
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
    convergence_order,
    sync_time,
)
from .errors import NonFiniteState
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
class SimRun:
    trajectory: Trajectory
    blowup: Optional[NonFiniteState] = None


@dataclass
class SyncRun:
    trajectory: Trajectory
    summary: Optional[SyncSummary]
    stability: ctl.StabilityReport
    design_matrix: np.ndarray
    blowup: Optional[NonFiniteState] = None


# System name -> (builder from both parameter sets, default initial state).
SYSTEMS = {
    "financial": (lambda fp, vp: financial_system(fp), (2.0, -1.0, 1.0)),
    "volta": (lambda fp, vp: volta_system(vp), (8.0, 2.0, 3.0)),
    "zero": (lambda fp, vp: zero_system(), (0.0, 0.0, 0.0)),
}


def build_system(name: str, fp: FinancialParams, vp: VoltaParams) -> SystemDef:
    if name not in SYSTEMS:
        raise ValueError(f"unknown system {name!r}")
    return SYSTEMS[name][0](fp, vp)


def _integrate(system: SystemDef, orders, y0, config: SolverConfig):
    """(trajectory, None), or the valid prefix and the NonFiniteState as the blowup record."""
    try:
        return integrate(system, orders, y0, config), None
    except NonFiniteState as exc:
        # A traceback would keep the solver's frames, and the full states array, alive.
        return exc.trajectory, exc.with_traceback(None)


def run_simulation(system: SystemDef, orders, y0, config: SolverConfig) -> SimRun:
    return SimRun(*_integrate(system, orders, y0, config))


def run_synchronization(
    fp: FinancialParams,
    vp: VoltaParams,
    controller: ctl.Controller,
    orders,
    master0,
    slave0,
    config: SolverConfig,
    tol: float,
) -> SyncRun:
    q = order_array(orders, (3,))
    positive_number(tol, "tol")  # sync_time's check, made before the run rather than after it
    system = ctl.coupled_system(fp, vp, controller)
    states = [number_array(s, ValueError, "initial state", (3,)) for s in (master0, slave0)]
    y0 = np.concatenate(states)
    # Master and slave components share the same three orders.
    traj, blowup = _integrate(system, np.tile(q, 2), y0, config)

    master, slave = traj.states[:, :3], traj.states[:, 3:]
    errors = slave - master
    controls = controller.control(master, slave, fp, vp)
    traj = Trajectory(times=traj.times, states=traj.states, errors=errors, controls=controls)

    matrix = controller.design_matrix(vp)
    stability = ctl.matignon_check(matrix, q)
    summary = None if blowup is not None else sync_time(traj, tol)
    return SyncRun(traj, summary, stability, design_matrix=matrix, blowup=blowup)


# ---------------------------------------------------------------------------
# Step-halving self test on a problem with a known solution.
# ---------------------------------------------------------------------------

# Derivative orders of the study; each band is centered on the expected order 1 + q.
CONVERGENCE_CASES = (0.5, 0.8, 1.0)
CONVERGENCE_BAND = 0.2
CONVERGENCE_H0 = 1.0 / 32.0
CONVERGENCE_LEVELS = 4


def power_forcing_problem(q: float) -> ConvergenceProblem:
    """Scalar problem D^q y = Gamma(5)/Gamma(5-q) * t^(4-q), solution t^4."""
    c = math.gamma(5.0) / math.gamma(5.0 - q)
    system = SystemDef(
        name="power-forcing",
        dimension=1,
        rhs=lambda t, y: np.array([c * t ** (4.0 - q)]),
    )
    return ConvergenceProblem(
        system=system,
        orders=(q,),
        y0=(0.0,),
        t_end=1.0,
        exact=lambda t: np.array([t**4.0]),
    )


@dataclass(frozen=True)
class ConvergenceCase:
    q: float
    expected: float
    band: tuple
    report: ConvergenceReport
    in_band: bool

    def to_dict(self) -> dict:
        d = self.report.to_dict()
        d.update(
            {
                "q": float(self.q),
                "expected_order": float(self.expected),
                "band": [float(self.band[0]), float(self.band[1])],
                "in_band": bool(self.in_band),
            }
        )
        return d


def convergence_selftest() -> tuple[list[ConvergenceCase], bool]:
    """Run the refinement study at each case order and check its band."""
    cases = []
    for q in CONVERGENCE_CASES:
        expected = 1.0 + q
        report = convergence_order(power_forcing_problem(q), CONVERGENCE_H0, CONVERGENCE_LEVELS)
        lo, hi = expected - CONVERGENCE_BAND, expected + CONVERGENCE_BAND
        in_band = all(lo <= v <= hi for v in report.orders)
        cases.append(
            ConvergenceCase(q=q, expected=expected, band=(lo, hi), report=report, in_band=in_band)
        )
    return cases, all(c.in_band for c in cases)
