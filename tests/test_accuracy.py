"""The predictor-corrector's 1 + q order where the paper's claims live.

Diethelm, Ford & Freed (Numer. Algorithms 36, 2004) show that the
fractional Adams-Bashforth-Moulton scheme converges at order 1 + q for
q < 1 when the solution behaves like the relaxation problem below. The
power-forcing study of the `convergence` command cannot show that rate (its
right-hand side depends on t only), so these tests pin it on problems whose
exact solution is a Mittag-Leffler function, the closed form that
synchronization error predictions rest on.
"""

import numpy as np
import pytest

from fracsync import (
    ExactCancellation,
    FinancialParams,
    SolverConfig,
    SystemDef,
    VoltaParams,
    mittag_leffler,
)
from fracsync.analysis import ConvergenceProblem, convergence_order
from fracsync.experiments import run_synchronization


def relaxation_problem(q):
    """D^q y = -y, y(0) = 1, whose solution is E_q(-t^q)."""
    return ConvergenceProblem(
        system=SystemDef(dimension=1, rhs=lambda t, y: (-y[0],)),
        orders=(q,),
        y0=(1.0,),
        t_end=1.0,
        exact=lambda t: np.array([mittag_leffler(q, -(t**q))]),
    )


@pytest.mark.parametrize("q", [0.5, 0.8, 0.99])
def test_relaxation_converges_at_order_one_plus_q(q):
    # Measured: 1.548/1.533/1.523, 1.799/1.795/1.793 and 1.994/1.992/1.991.
    report = convergence_order(relaxation_problem(q), 1.0 / 32.0, 6)
    assert len(report.orders) == 5
    for order in report.orders[-3:]:
        assert abs(order - (1.0 + q)) <= 0.06, report.orders


Q_SYNC = 0.99


def _sync_errors(h, t_end):
    """Exact-mode synchronization errors and the closed form e0 E_q(-t^q) on the grid."""
    run = run_synchronization(
        FinancialParams(), VoltaParams(), ExactCancellation(), Q_SYNC,
        (2.0, -1.0, 1.0), (8.0, 2.0, 3.0), SolverConfig.for_horizon(h, t_end), 1e-3,
    )
    assert run.blowup is None
    return run.trajectory.times, run.trajectory.errors


def _relative_deviation(times, errors, e0):
    closed = np.array([mittag_leffler(Q_SYNC, -(t**Q_SYNC)) for t in times])
    predicted = np.outer(closed, e0)
    return np.abs(errors - predicted) / np.abs(predicted)


def test_exact_synchronization_error_follows_mittag_leffler():
    # The exact law leaves D^q e = -e, so the error is the scheme's relaxation
    # solution for each component; measured deviation 6.3e-7 over (0, 10].
    times, errors = _sync_errors(1e-3, 10.0)
    assert times[-1] == pytest.approx(10.0)
    deviation = _relative_deviation(times[::10], errors[::10], errors[0])
    assert deviation.shape == (1001, 3)
    assert np.max(deviation) <= 2e-6


def test_exact_synchronization_refines_at_order_two():
    # At q = 0.99 the 1 + q rate is 2; measured 1.99, 1.99, 1.99.
    steps = (1e-2, 2e-3, 1e-3, 5e-4)
    devs = []
    for h in steps:
        times, errors = _sync_errors(h, 5.0)
        assert times[-1] == pytest.approx(5.0)
        devs.append(np.max(_relative_deviation(times[-1:], errors[-1:], errors[0])))
    orders = np.log(np.array(devs[:-1]) / devs[1:]) / np.log(np.array(steps[:-1]) / steps[1:])
    assert np.all((orders >= 1.8) & (orders <= 2.2)), orders
