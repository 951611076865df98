"""Controllers, the coupled system, and the argument criterion."""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest

from fracsync import (
    ExactCancellation,
    FinancialParams,
    LiteralFeedback,
    SolverConfig,
    SystemDef,
    VoltaParams,
    chaos_threshold,
    closed_loop_error_matrix,
    control_exact,
    control_literal,
    coupled_system,
    eigen3,
    financial_equilibria,
    financial_jacobian,
    financial_rhs,
    gain_matrix_default,
    integrate,
    matignon_check,
    volta_rhs,
)
from fracsync.errors import DegenerateEigenvalue, InvalidGain
from fracsync.experiments import run_synchronization

MASTER0 = np.array([2.0, -1.0, 1.0])
SLAVE0 = np.array([8.0, 2.0, 3.0])
Y0 = np.concatenate([MASTER0, SLAVE0])
FP = FinancialParams()
VP = VoltaParams()


def _unfolded_rhs(controller, y):
    m, s = y[..., :3], y[..., 3:]
    u = controller.control(m, s, FP, VP)
    return np.concatenate([financial_rhs(m, FP), volta_rhs(s, VP) + u], axis=-1)


class TestGainAndDesignMatrix:
    def test_default_gain_entries(self):
        expect = np.array([[0.0, 19.0, -1.0], [11.0, 0.0, 0.0], [1.0, 0.0, -1.73]])
        assert np.array_equal(gain_matrix_default(VP), expect)

    def test_default_gain_zeros_are_positive(self):
        # array_equal treats -0.0 as 0.0; the echoed gain in report.json does not.
        text = json.dumps(gain_matrix_default(VP).tolist())
        assert text == "[[0.0, 19.0, -1.0], [11.0, 0.0, 0.0], [1.0, 0.0, -1.73]]"

    def test_default_gain_gives_minus_identity(self):
        closed = closed_loop_error_matrix(gain_matrix_default(VP), VP)
        assert np.all(np.abs(closed + np.eye(3)) <= 1e-15)

    def test_minus_identity_over_random_parameters(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            vp = VoltaParams(
                a=rng.uniform(-20.0, 20.0),
                b=rng.uniform(-20.0, 20.0),
                c=rng.uniform(-5.0, 5.0),
            )
            closed = closed_loop_error_matrix(gain_matrix_default(vp), vp)
            assert np.all(np.abs(closed + np.eye(3)) <= 1e-15)

    def test_zero_gain_returns_open_loop_part(self):
        closed = closed_loop_error_matrix(np.zeros((3, 3)), VP)
        expect = np.array([[-1.0, -19.0, 1.0], [-11.0, -1.0, 0.0], [-1.0, 0.0, 0.73]])
        assert np.array_equal(closed, expect)

    def test_gain_shifts_are_exact(self):
        base = closed_loop_error_matrix(np.zeros((3, 3)), VP)
        target = np.diag([-2.0, -3.0, -4.0])
        closed = closed_loop_error_matrix(target - base, VP)
        assert np.array_equal(closed, target)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidGain):
            closed_loop_error_matrix(np.zeros((2, 3)), VP)


class TestLiteralControl:
    def test_hand_values(self):
        u = control_literal(MASTER0, SLAVE0, FP, VP, gain_matrix_default(VP))
        assert np.allclose(u, [37.0, 108.1, -24.19], rtol=0.0, atol=1e-12)

    def test_zero_state(self):
        u = control_literal(np.zeros(3), np.zeros(3), FP, VP, gain_matrix_default(VP))
        assert np.array_equal(u, np.array([1.0, 1.0, -1.0]))

    def test_gain_only_acts_through_the_error(self):
        # with slave == master the feedback term vanishes for any gain
        rng = np.random.default_rng(42)
        state = rng.uniform(-3.0, 3.0, size=3)
        u_default = control_literal(state, state, FP, VP, gain_matrix_default(VP))
        u_doubled = control_literal(state, state, FP, VP, 2.0 * gain_matrix_default(VP))
        assert np.array_equal(u_default, u_doubled)

    def test_feedback_part_is_linear_in_error(self):
        rng = np.random.default_rng(43)
        gain = gain_matrix_default(VP)
        for _ in range(50):
            m = rng.uniform(-3.0, 3.0, size=3)
            s = rng.uniform(-3.0, 3.0, size=3)
            with_v = control_literal(m, s, FP, VP, gain)
            without_v = control_literal(m, s, FP, VP, np.zeros((3, 3)))
            v = gain @ (s - m)
            scale = 1.0 + np.max(np.abs(with_v))
            assert np.max(np.abs(with_v - without_v - v)) <= 1e-12 * scale

    def test_batched_evaluation(self):
        rng = np.random.default_rng(44)
        m = rng.uniform(-2.0, 2.0, size=(7, 3))
        s = rng.uniform(-2.0, 2.0, size=(7, 3))
        gain = gain_matrix_default(VP)
        batch = control_literal(m, s, FP, VP, gain)
        for k in range(7):
            assert np.array_equal(batch[k], control_literal(m[k], s[k], FP, VP, gain))

    def test_rejects_bad_gain(self):
        numeric_strings = [["0", "19", "-1"], ["11", "0", "0"], ["1", "0", "-1.73"]]
        for bad in (np.zeros((3, 2)), "abc", {"a": 1}, [["a", "b", "c"]] * 3, numeric_strings):
            with pytest.raises(InvalidGain):
                control_literal(MASTER0, SLAVE0, FP, VP, bad)
            with pytest.raises(InvalidGain):
                closed_loop_error_matrix(bad, VP)


    def test_default_gain_leaves_a_state_term_in_e1(self):
        # Under the default gain e2 and e3 obey D^q e = -e, while D^q e1 keeps
        # (1 - z2)(1 + y2), a term of the slave state that does not vanish with e.
        rng = np.random.default_rng(45)
        y = rng.uniform(-3.0, 3.0, size=(20, 6))
        d = coupled_system(FP, VP, LiteralFeedback()).rhs(0.0, y)
        e, de = y[:, 3:] - y[:, :3], d[:, 3:] - d[:, :3]
        forcing = np.zeros_like(e)
        forcing[:, 0] = (1.0 - y[:, 5]) * (1.0 + y[:, 4])
        assert np.allclose(de, forcing - e, rtol=0.0, atol=1e-12)

    def test_default_run_settles_e2_and_e3_but_not_e1(self):
        run = run_synchronization(FP, VP, LiteralFeedback(), 0.99, MASTER0, SLAVE0,
                                  SolverConfig.for_horizon(1e-3, 10.0), 1e-3)
        e1, e2, e3 = np.abs(run.trajectory.errors[-1])
        assert e1 > 0.1 and e2 < 0.01 and e3 < 0.01
        assert run.blowup is None and run.summary.sync_time is None


class TestExactControl:
    def test_hand_values(self):
        u = control_exact(MASTER0, SLAVE0, FP, VP, np.array([-1.0, -1.0, -1.0]))
        assert np.allclose(u, [43.0, 108.1, -24.19], rtol=0.0, atol=1e-12)

    def test_cancellation_identity(self):
        # G(s) + u - F(m) must equal lam * (s - m)
        rng = np.random.default_rng(45)
        lam = np.array([-1.0, -2.5, -0.5])
        for _ in range(100):
            m = rng.uniform(-4.0, 4.0, size=3)
            s = rng.uniform(-4.0, 4.0, size=3)
            u = control_exact(m, s, FP, VP, lam)
            lhs = volta_rhs(s, VP) + u - financial_rhs(m, FP)
            scale = 1.0 + np.max(np.abs(u))
            assert np.max(np.abs(lhs - lam * (s - m))) <= 1e-12 * scale

    def test_identical_states_leave_pure_cancellation(self):
        u = control_exact(MASTER0, MASTER0, FP, VP, np.array([-1.0, -1.0, -1.0]))
        expect = financial_rhs(MASTER0, FP) - volta_rhs(MASTER0, VP)
        assert np.array_equal(u, expect)

    def test_scalar_rate_broadcasts(self):
        a = control_exact(MASTER0, SLAVE0, FP, VP, -2.0)
        b = control_exact(MASTER0, SLAVE0, FP, VP, np.array([-2.0, -2.0, -2.0]))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "bad",
        [0.0, 1.0, [-1.0, 0.0, -1.0], float("nan"), "abc", [[-1.0]], {"a": -1.0}, None, "-1",
         ["-1", "-1", "-1"]],
    )
    def test_rejects_nonnegative_rates(self, bad):
        with pytest.raises(InvalidGain):
            control_exact(MASTER0, SLAVE0, FP, VP, bad)


class TestControllerConfigs:
    def test_exact_defaults(self):
        ctl = ExactCancellation()
        assert ctl.lam == (-1.0, -1.0, -1.0)

    def test_exact_rejects_unstable_rates(self):
        for bad in ((0.0, -1.0, -1.0), (2.0, -1.0, -1.0), "abc", [[-1.0]], "-1", ("-1",) * 3):
            with pytest.raises(InvalidGain):
                ExactCancellation(lam=bad)

    def test_exact_single_rate_broadcasts(self):
        assert ExactCancellation(lam=-2.0).lam == (-2.0, -2.0, -2.0)
        assert ExactCancellation(lam=[-2.0]).lam == (-2.0, -2.0, -2.0)

    def test_literal_default_uses_parameter_gain(self):
        assert LiteralFeedback().gain is None
        assert np.array_equal(LiteralFeedback().gain_array(VP), gain_matrix_default(VP))

    def test_literal_custom_gain_round_trips(self):
        gain = ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))
        assert np.array_equal(LiteralFeedback(gain=gain).gain_array(VP), np.diag([1.0, 2.0, 3.0]))

    def test_literal_rejects_bad_gain(self):
        for bad in (
            ((1.0, 2.0), (3.0, 4.0)),
            ((float("inf"),) * 3,) * 3,
            "abc",
            [["a", "b", "c"]] * 3,
            {"a": 1},
            [[1.0, 2.0, 3.0], [4.0, 5.0], [6.0]],
            list(range(9)),
            [["0", "19", "-1"], ["11", "0", "0"], ["1", "0", "-1.73"]],
            [[0.0, 19.0, -1.0], [11.0, 0.0, 0.0], [True, 0.0, -1.73]],
        ):
            with pytest.raises(InvalidGain):
                LiteralFeedback(gain=bad)

    def test_dispatch(self):
        exact = ExactCancellation(lam=(-1.0, -2.0, -0.5))
        literal = LiteralFeedback()
        assert np.array_equal(
            exact.control(MASTER0, SLAVE0, FP, VP),
            control_exact(MASTER0, SLAVE0, FP, VP, (-1.0, -2.0, -0.5)),
        )
        assert np.array_equal(
            literal.control(MASTER0, SLAVE0, FP, VP),
            control_literal(MASTER0, SLAVE0, FP, VP, gain_matrix_default(VP)),
        )
        assert np.array_equal(exact.design_matrix(VP), np.diag([-1.0, -2.0, -0.5]))
        assert np.array_equal(
            literal.design_matrix(VP), closed_loop_error_matrix(gain_matrix_default(VP), VP)
        )


class TestCoupledSystem:
    def test_exact_mode_derivatives(self):
        out = coupled_system(FP, VP, ExactCancellation()).rhs(0.0, Y0)
        assert np.allclose(out, [-3.0, -2.9, -3.0, -9.0, -5.9, -5.0], atol=1e-12)

    def test_literal_mode_derivatives(self):
        out = coupled_system(FP, VP, LiteralFeedback()).rhs(0.0, Y0)
        assert np.allclose(out, [-3.0, -2.9, -3.0, -15.0, -5.9, -5.0], atol=1e-12)

    def test_system_rhs_matches_coupled_rhs(self):
        # The coupled right-hand side written out: F(m), then G(s) + u. The exact
        # law's slave row is folded to F(m) + lam*e, equal up to rounding; the
        # literal row is the same arithmetic and so the same bits.
        rng = np.random.default_rng(7)
        ys = np.vstack([Y0, rng.uniform(-3.0, 3.0, (50, 6))])
        for controller, tol in ((ExactCancellation(), 1e-13), (LiteralFeedback(), 0.0)):
            sysdef = coupled_system(FP, VP, controller)
            assert sysdef.dimension == 6
            assert np.max(np.abs(sysdef.rhs(0.0, ys) - _unfolded_rhs(controller, ys))) <= tol

    def test_folded_exact_law_tracks_unfolded_run(self):
        controller = ExactCancellation()
        unfolded = SystemDef("unfolded", 6, lambda t, y: _unfolded_rhs(controller, y))
        cfg = SolverConfig(h=0.005, n_steps=200)
        a = integrate(coupled_system(FP, VP, controller), 0.99, Y0, cfg)
        b = integrate(unfolded, 0.99, Y0, cfg)
        assert np.max(np.abs(a.states - b.states)) <= 1e-10

    def test_exact_mode_shrinks_the_error(self):
        sysdef = coupled_system(FP, VP, ExactCancellation())
        traj = integrate(sysdef, 0.99, Y0, SolverConfig(h=0.005, n_steps=400))
        err0 = np.max(np.abs(SLAVE0 - MASTER0))
        err1 = np.max(np.abs(traj.states[-1, 3:] - traj.states[-1, :3]))
        assert err1 < 0.2 * err0


def _match_spectra(mine, reference):
    """Greedy pairing of two eigenvalue triples; returns the worst distance."""
    pool = list(mine)
    worst = 0.0
    for z in reference:
        dists = [abs(z - w) for w in pool]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        pool.pop(k)
    return worst


class TestEigen3:
    def test_diagonal(self):
        lams = eigen3(np.diag([-4.0, -2.0, -3.0]))
        assert np.allclose(lams, [-4.0, -3.0, -2.0], atol=1e-12)

    def test_identity(self):
        assert np.allclose(eigen3(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-12)

    def test_rotation_block_spectrum(self):
        m = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        lams = eigen3(m)
        assert np.max(np.abs(lams - np.array([-1j, 1j, 2.0]))) <= 1e-15
        assert lams[2].imag == 0.0

    def test_repeated_root(self):
        m = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
        assert np.allclose(eigen3(m), [2.0, 2.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize(
        "diag",
        [(-1.0, -1.0, -0.77), (-1.0, -1.0, -2.0), (-0.5, -0.5, -3.0), (-1.0, -1.0, -1.0 - 1e-7)],
    )
    def test_repeated_diagonal_roots_are_exact(self, diag):
        # Controller design matrices put repeated real roots exactly here.
        lams = eigen3(np.diag(diag))
        assert np.all(lams.imag == 0.0)
        assert np.max(np.abs(lams.real - np.sort(diag))) <= 1e-15
        assert chaos_threshold(np.diag(diag)) == 2.0

    def test_complex_pair_is_conjugate_lower_first(self):
        rng = np.random.default_rng(49)
        pairs = 0
        for _ in range(200):
            lams = eigen3(rng.normal(scale=3.0, size=(3, 3)))
            complex_roots = lams[lams.imag != 0.0]
            if complex_roots.size:
                pairs += 1
                lo, hi = complex_roots
                assert lo == np.conj(hi)
                assert lo.imag < 0.0
        assert pairs > 20

    def test_random_sweep_against_mpmath(self):
        rng = np.random.default_rng(46)
        with mpmath.workdps(40):
            for _ in range(200):
                m = rng.normal(scale=3.0, size=(3, 3))
                ref = [complex(z) for z in mpmath.eig(mpmath.matrix(m.tolist()), right=False)]
                scale = 1.0 + max(abs(z) for z in ref)
                assert _match_spectra(eigen3(m), ref) <= 1e-13 * scale

    def test_characteristic_residual(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            m = rng.uniform(-5.0, 5.0, size=(3, 3))
            norm = np.linalg.norm(m)
            for lam in eigen3(m):
                res = np.linalg.det(m - lam * np.eye(3))
                assert abs(res) <= 1e-8 * (1.0 + norm**3)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            eigen3(np.zeros((2, 2)))


class TestMatignon:
    def test_minus_identity_satisfies_all_orders(self):
        for q in (0.5, 0.9, 0.98, 0.99, 1.0):
            rep = matignon_check(-np.eye(3), q)
            assert rep.satisfied
            assert rep.min_argument == pytest.approx(math.pi)

    def test_identity_never_satisfies(self):
        for q in (0.1, 0.5, 1.0):
            assert not matignon_check(np.eye(3), q).satisfied

    def test_quarter_pi_spectrum_splits_on_half(self):
        m = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -5.0]])
        assert matignon_check(m, 0.4).satisfied
        assert not matignon_check(m, 0.6).satisfied
        assert chaos_threshold(m) == pytest.approx(0.5, abs=1e-12)

    def test_componentwise_orders(self):
        m = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -5.0]])
        rep = matignon_check(m, (0.4, 0.6, 0.9))
        assert rep.satisfied_per_order == (True, False, False)
        assert not rep.satisfied
        assert len(rep.thresholds) == 3

    def test_degenerate_spectrum_flagged(self):
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        rep = matignon_check(m, 0.9)
        assert rep.degenerate
        assert not rep.satisfied
        assert rep.min_argument == 0.0

    def test_threshold_consistency(self):
        rng = np.random.default_rng(48)
        count = 0
        while count < 200:
            m = rng.normal(scale=2.0, size=(3, 3))
            try:
                qstar = chaos_threshold(m)
            except DegenerateEigenvalue:
                continue
            q = rng.uniform(0.01, 1.0)
            if abs(q - qstar) < 1e-9:
                continue
            rep = matignon_check(m, q)
            assert rep.satisfied == (q < qstar)
            count += 1

    def test_report_serialization(self):
        d = matignon_check(-np.eye(3), (0.9, 0.95, 1.0)).to_dict()
        assert d["satisfied"] is True
        assert len(d["eigenvalues"]) == 3
        assert d["eigenvalues"][0] == [-1.0, 0.0]


class TestChaosThreshold:
    def test_minus_identity_hits_the_cap(self):
        assert chaos_threshold(-np.eye(3)) == 2.0

    def test_identity_is_zero(self):
        assert chaos_threshold(np.eye(3)) == 0.0

    def test_saddle_focus_of_the_financial_system(self):
        p = FinancialParams()
        point = financial_equilibria(p)[1]
        jac = financial_jacobian(point, p)
        assert chaos_threshold(jac) == pytest.approx(0.8536482401280289, abs=1e-12)

    def test_singular_matrix_raises(self):
        with pytest.raises(DegenerateEigenvalue):
            chaos_threshold(np.diag([0.0, 1.0, 2.0]))
