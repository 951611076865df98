"""Discrete closed forms of the synchronization error, held by the scheme itself.

A "unit run" is `integrate` of the one-column field D^q y = lam * y from
y = 1 on the run's grid. The predictor-corrector is linear in its rhs
values, so a component whose error obeys D^q e = lam * e exactly in the
field has, at every grid point, the initial error times the unit run at
lam, to roundoff; no Mittag-Leffler evaluation enters.

- Exact law: every error component is e0_i times the unit run at lam_i
  (identical synchronization).
- Literal law at its default gain: e2 and e3 are e0_i times the unit run
  at -1, while e1 carries (1 - z2)(1 + y2) and stays away from zero.
- Literal law, two slaves under one master: the master is the same run,
  and the slaves' y and z gaps are the initial gap times the unit run at
  -1, so the slaves converge to each other (generalized synchronization;
  Rulkov, Sushchik, Tsimring & Abarbanel, Phys. Rev. E 51, 980, 1995).
- The unit run at (k lam, k^(-1/q) h) is the unit run at (lam, h): the
  scheme depends on lam and h only through h^q lam.
"""

import numpy as np
import pytest

from fracsync import (
    ExactCancellation,
    FinancialParams,
    LiteralFeedback,
    SolverConfig,
    SystemDef,
    VoltaParams,
    integrate,
)
from fracsync.experiments import run_synchronization

FP, VP = FinancialParams(), VoltaParams()
MASTER0, SLAVE0, OTHER_SLAVE0 = (2.0, -1.0, 1.0), (8.0, 2.0, 3.0), (-5.0, 6.0, -4.0)
GRID = SolverConfig(h=1e-3, n_steps=2000)
ORDERS = pytest.mark.parametrize("q", [0.9, 0.99])


def unit_run(lam, q, config=GRID):
    """The run of D^q y = lam * y from y = 1 on the grid of `config`."""
    system = SystemDef(1, lambda t, y: [lam * y[0]])
    return integrate(system, q, (1.0,), config).states[:, 0]


def _synchronize(controller, q, slave0=SLAVE0):
    return run_synchronization(FP, VP, controller, q, MASTER0, slave0, GRID, 1e-3).trajectory


@ORDERS
def test_exact_law_errors_are_the_unit_runs_at_their_rates(q):
    rates = (-1.0, -2.0, -4.0)
    errors = _synchronize(ExactCancellation(rates), q).errors
    e0 = np.subtract(SLAVE0, MASTER0)
    for i, lam in enumerate(rates):
        np.testing.assert_allclose(errors[:, i], e0[i] * unit_run(lam, q), rtol=0, atol=1e-13)


@ORDERS
def test_literal_law_relaxes_e2_and_e3_alone(q):
    traj = _synchronize(LiteralFeedback(), q)
    e0 = np.subtract(SLAVE0, MASTER0)
    for i in (1, 2):
        np.testing.assert_allclose(traj.errors[:, i], e0[i] * unit_run(-1.0, q),
                                   rtol=0, atol=1e-13)
    # e1 carries (1 - z2)(1 + y2): no identical synchronization (1.26 at
    # q = 0.99 and 1.55 at q = 0.9).
    assert traj.times[-1] == 2.0
    assert abs(traj.errors[-1, 0]) > 0.5


@ORDERS
def test_two_literal_slaves_converge_to_each_other(q):
    a = _synchronize(LiteralFeedback(), q)
    b = _synchronize(LiteralFeedback(), q, OTHER_SLAVE0)
    # The master's columns never read the slave's.
    assert a.states[:, :3].tobytes() == b.states[:, :3].tobytes()
    gap0 = np.subtract(SLAVE0, OTHER_SLAVE0)
    for i in (1, 2):
        np.testing.assert_allclose(a.states[:, 3 + i] - b.states[:, 3 + i],
                                   gap0[i] * unit_run(-1.0, q), rtol=0, atol=1e-13)


@ORDERS
@pytest.mark.parametrize("k", [4.0, 16.0])
def test_unit_run_depends_on_h_to_the_q_times_lambda(q, k):
    h, n_steps = 1e-2, 3000
    scaled = unit_run(-k, q, SolverConfig(k ** (-1.0 / q) * h, n_steps))
    np.testing.assert_allclose(scaled, unit_run(-1.0, q, SolverConfig(h, n_steps)),
                               rtol=0, atol=1e-14)
