"""Mittag-Leffler evaluation, settling detection, refinement diagnostics."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import fracsync
from fracsync import (
    ConvergenceProblem,
    SolverConfig,
    SystemDef,
    Trajectory,
    convergence_order,
    divergence_factor,
    empirical_orders,
    integrate,
    mittag_leffler,
    predicted_error,
    sync_time,
)
from fracsync import analysis
from fracsync.errors import (
    DomainExceeded,
    GridMismatch,
    InvalidOrder,
    MissingErrors,
    ZeroInitialSeparation,
)
from fracsync.experiments import convergence_selftest, power_forcing_problem


def _half_order_oracle(z: float) -> float:
    # E_{1/2}(z) = exp(z^2) * erfc(-z), evaluated in high precision
    with mpmath.workdps(60):
        return float(mpmath.exp(z * z) * mpmath.erfc(-z))


def _series_oracle(q: float, z: float) -> float:
    """E_q(z) = sum_k z^k / Gamma(q k + 1), summed in mpmath.

    The alternating terms peak near exp(|z|^(1/q)) before the sum settles,
    so the working precision is that many digits plus 40. The order enters
    as mpf(q): a float q inside gamma is off by orders of magnitude at
    q = 0.9, |z| = 30.
    """
    s = abs(z) ** (1.0 / q)
    digits = int(s * math.log10(math.e)) + 40
    with mpmath.workdps(digits):
        zm, qm = mpmath.mpf(z), mpmath.mpf(q)
        tol = mpmath.mpf(10) ** (5 - digits)
        total, power, k = mpmath.mpf(0), mpmath.mpf(1), 0
        while True:
            term = power * mpmath.rgamma(qm * k + 1)
            total += term
            if k > s / q and abs(term) < tol:
                return float(total)
            k += 1
            power *= zm


def _asymptotic_oracle(q: float, x: float) -> float:
    """E_q(-x) ~ sum_{k>=1} (-1)^(k+1) x^(-k) / Gamma(1 - q k) for large x^(1/q).

    The series diverges, but its terms first fall to exp(-x^(1/q)) times
    the leading one; summing until a nonzero term drops below 1e-35 of the
    total stops well before that.
    """
    with mpmath.workdps(40):
        qm, xm = mpmath.mpf(q), mpmath.mpf(x)
        total, k = mpmath.mpf(0), 1
        while True:
            term = (-1) ** (k + 1) * xm ** (-k) * mpmath.rgamma(1 - qm * k)
            total += term
            if term != 0 and abs(term) < mpmath.mpf(10) ** -35 * abs(total):
                return float(total)
            k += 1


SWEEP_Q = (1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999, 1.0)
SWEEP_X = (1e-12, 1e-6, 1e-3, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0)
SWEEP_CALL_S = 0.05
SWEEP_REL = 1e-10


class TestMittagLeffler:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.99, 1.0])
    def test_zero_argument(self, q):
        assert mittag_leffler(q, 0.0) == 1.0

    @pytest.mark.parametrize("x", [-30.0, -10.0, -1.0, 0.5, 3.0])
    def test_unit_order_is_exp(self, x):
        got = mittag_leffler(1.0, x)
        assert abs(got - math.exp(x)) <= 1e-12 * math.exp(x)

    def test_half_order_negative_unit(self):
        expect = _half_order_oracle(-1.0)
        assert abs(mittag_leffler(0.5, -1.0) - expect) <= 1e-13 * abs(expect)

    def test_half_order_deep_cancellation(self):
        # the alternating terms peak near 1e388 before the sum collapses
        # to 1.9e-2; only the wide-precision path survives that
        expect = _half_order_oracle(-30.0)
        got = mittag_leffler(0.5, -30.0)
        assert abs(got - expect) <= 1e-12 * abs(expect)

    def test_half_order_positive_argument(self):
        expect = _half_order_oracle(2.0)
        assert abs(mittag_leffler(0.5, 2.0) - expect) <= 1e-12 * abs(expect)

    def test_series_oracle_at_interior_order(self):
        # plain high-precision summation, independent of the library's path
        q, z = 0.8, -7.5
        with mpmath.workdps(60):
            acc = mpmath.mpf(0)
            term_k = 0
            while term_k < 2000:
                acc += mpmath.mpf(z) ** term_k / mpmath.gamma(mpmath.mpf(q) * term_k + 1)
                term_k += 1
            expect = float(acc)
        # float64 summation keeps this case, so only the documented
        # 1e-7 relative bound applies (measured error is near 3e-9)
        assert abs(mittag_leffler(q, z) - expect) <= 1e-7 * abs(expect)

    def test_reroute_rescues_cancelled_float_sums(self):
        # term magnitudes here fit float64, but the sum cancels to far
        # below the plain-summation noise floor; the evaluator must hand
        # these to the wide-precision path and come back near-exact
        for x in (-15.0, -10.0, -17.0):
            got = mittag_leffler(1.0, x)
            with mpmath.workdps(60):
                expect = float(mpmath.exp(x))
            assert abs(got - expect) <= 1e-12 * abs(expect)

    def test_completely_monotone_on_negative_axis(self):
        vals = [mittag_leffler(0.9, -t) for t in np.linspace(0.0, 25.0, 60)]
        assert all(v > 0.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("q", [0.0, -0.2, 1.2, float("nan")])
    def test_order_validation(self, q):
        with pytest.raises(InvalidOrder):
            mittag_leffler(q, -1.0)

    @pytest.mark.parametrize("z", [30.5, -31.0, float("inf"), float("nan"), None, "-1", [-1.0]])
    def test_argument_domain(self, z):
        with pytest.raises(DomainExceeded):
            mittag_leffler(0.9, z)

    def test_small_order_asymptotic(self):
        # x^(1/q) = 2^20 here: the series would need about 2e7 terms, and
        # the asymptotic expansion is exact to far below float64
        expect = _asymptotic_oracle(0.05, 2.0)
        assert abs(mittag_leffler(0.05, -2.0) - expect) <= 1e-12 * expect

    @pytest.mark.parametrize("q", SWEEP_Q)
    def test_domain_sweep(self, q):
        # one untimed call first, so that the time bound leaves out the
        # first-use build of the quadrature nodes
        mittag_leffler(0.5, -1.0)
        log_max = math.log(sys.float_info.max)
        negative = []
        for x in SWEEP_X:
            for z in (-x, x):
                # the leading term exp(x^(1/q)) / q overflows past this
                s = math.exp(min(math.log(x) / q, 700.0))
                overflows = z > 0 and s - math.log(q) > log_max
                t0 = time.perf_counter()
                if overflows:
                    with pytest.raises(DomainExceeded):
                        mittag_leffler(q, z)
                    assert time.perf_counter() - t0 < SWEEP_CALL_S
                    continue
                got = mittag_leffler(q, z)
                elapsed = time.perf_counter() - t0
                assert elapsed < SWEEP_CALL_S, f"E_{q}({z}) took {elapsed:.3f} s"
                if z < 0 and s > 200.0:
                    expect = _asymptotic_oracle(q, x)
                else:
                    expect = _series_oracle(q, z)
                assert abs(got - expect) <= SWEEP_REL * abs(expect), (q, z, got, expect)
                if q == 1.0:
                    assert abs(got - math.exp(z)) <= 1e-14 * math.exp(z)
                if q == 0.5:
                    closed = _half_order_oracle(z)
                    assert abs(got - closed) <= SWEEP_REL * closed
                if q == SWEEP_Q[0] and z < 1.0:
                    # q -> 0: E_q(z) = 1/(1 - z) + Euler's gamma q z/(1 - z)^2 + O(q^2)
                    limit = 1.0 / (1.0 - z) + 0.5772156649015329 * q * z / (1.0 - z) ** 2
                    assert abs(got - limit) <= 5.0 * q * q * limit
                if z < 0:
                    negative.append(got)
        assert all(b < a for a, b in zip(negative, negative[1:]))

    @pytest.mark.parametrize("z", [-30.0, -1.0, -1e-6, 1.0, 30.0])
    def test_order_near_one(self, z):
        # the Lorentzian peak is 1e-9 of its centre wide here; nodes taken
        # as absolute positions would lose about 7 digits resolving it
        q = 1.0 - 1e-9
        expect = _series_oracle(q, z)
        assert abs(mittag_leffler(q, z) - expect) <= SWEEP_REL * expect

    @pytest.mark.parametrize("z", [-30.0, -2.0, -0.5, 0.5, 0.9])
    def test_vanishing_order_limit(self, z):
        # E_q(z) = 1/(1 - z) + Euler's gamma q z/(1 - z)^2 + O(q^2): at
        # q = 1e-9 the remainder is below roundoff, and any 1/q loss shows
        q = 1e-9
        limit = 1.0 / (1.0 - z) + 0.5772156649015329 * q * z / (1.0 - z) ** 2
        assert abs(mittag_leffler(q, z) - limit) <= 1e-14 * limit

    def test_quadrature_rule_is_numpys_leggauss(self):
        # The hard-coded rule is numpy's to the bit, so every value is as well.
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(32)
        assert np.array_equal(analysis._GL_NODES, nodes)
        assert np.array_equal(analysis._GL_WEIGHTS, weights)

    def test_import_leaves_out_mpmath(self):
        code = "import sys, fracsync; sys.exit('mpmath' in sys.modules)"
        src = str(Path(fracsync.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestPredictedError:
    def test_time_zero_returns_initial_error(self):
        e0 = np.array([6.0, 3.0, 2.0])
        assert np.array_equal(predicted_error(e0, (0.9, 0.95, 1.0), 0.0), e0)

    def test_unit_order_is_exponential_decay(self):
        e0 = np.array([6.0, 3.0, 2.0])
        got = predicted_error(e0, (1.0, 1.0, 1.0), 3.0)
        expect = e0 * math.exp(-3.0)
        assert np.allclose(got, expect, rtol=1e-12, atol=0.0)

    def test_matches_solver_on_scalar_loop(self):
        # D^q e = -e integrated numerically against the closed form
        q = 0.9
        system = SystemDef(name="loop", dimension=1, rhs=lambda t, y: -y)
        cfg = SolverConfig.for_horizon(h=1e-3, t_end=1.0)
        traj = integrate(system, q, [1.0], cfg)
        expect = predicted_error(np.array([1.0]), (q,), 1.0)[0]
        assert abs(traj.final_state[0] - expect) <= 1e-3

    def test_orders_broadcast_to_the_initial_errors(self):
        scalar = predicted_error(1.0, 0.9, 1.0)
        assert isinstance(scalar, np.ndarray) and scalar.shape == ()
        assert scalar == mittag_leffler(0.9, -1.0)
        e0 = np.array([6.0, 3.0, 2.0])
        assert np.array_equal(predicted_error(e0, 0.9, 1.0), e0 * mittag_leffler(0.9, -1.0))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            predicted_error(np.array([1.0, 2.0]), (0.9, 0.9, 0.9), 1.0)
        with pytest.raises(ValueError):
            predicted_error(np.array([1.0, 1.0, 1.0]), (0.9, 0.9, 0.9), -1.0)
        with pytest.raises(DomainExceeded):
            predicted_error(np.array([1.0]), (1.0,), 31.0)


def _error_trajectory(times, sup):
    sup = np.asarray(sup, dtype=np.float64)
    states = np.zeros((sup.size, 1))
    return Trajectory(
        times=np.asarray(times, dtype=np.float64),
        states=states,
        errors=sup.reshape(-1, 1),
    )


class TestSyncTime:
    def test_never_above_reports_start(self):
        traj = _error_trajectory(np.arange(5) * 0.5, [1e-5, 2e-5, 0.0, 1e-6, 5e-6])
        summary = sync_time(traj, 1e-3)
        assert summary.sync_time == 0.0
        assert summary.final_below_tol

    def test_exponential_decay_crossing(self):
        times = np.arange(1001) * 0.01
        traj = _error_trajectory(times, 6.0 * np.exp(-times))
        summary = sync_time(traj, 1e-3)
        # 6 exp(-t) crosses 1e-3 between t = 8.69 and t = 8.70
        assert summary.sync_time == pytest.approx(8.70, abs=1e-9)

    def test_excursion_resets_the_clock(self):
        traj = _error_trajectory(np.arange(5.0), [5.0, 5e-4, 5.0, 5e-4, 5e-4])
        assert sync_time(traj, 1e-3).sync_time == 3.0

    def test_violation_at_the_end_means_unsettled(self):
        traj = _error_trajectory(np.arange(4.0), [5.0, 5e-4, 5e-4, 5.0])
        summary = sync_time(traj, 1e-3)
        assert summary.sync_time is None
        assert summary.final_max_error == 5.0
        assert not summary.final_below_tol

    def test_threshold_is_strict(self):
        # sitting exactly on tol counts as a violation
        traj = _error_trajectory(np.arange(3.0), [1e-3, 1e-3, 1e-3])
        assert sync_time(traj, 1e-3).sync_time is None

    def test_larger_tolerance_settles_no_later(self):
        times = np.arange(1201) * 0.01
        sup = 5.0 * np.abs(np.sin(3.0 * times)) * np.exp(-times) + 1e-8
        traj = _error_trajectory(times, sup)
        t_tight = sync_time(traj, 1e-2).sync_time
        t_loose = sync_time(traj, 1e-1).sync_time
        assert t_tight is not None and t_loose is not None
        assert t_loose <= t_tight

    def test_requires_error_columns(self):
        bare = Trajectory(times=np.arange(3.0), states=np.zeros((3, 1)))
        with pytest.raises(MissingErrors):
            sync_time(bare, 1e-3)

    def test_rejects_bad_tolerance(self):
        traj = _error_trajectory(np.arange(3.0), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            sync_time(traj, 0.0)

    @pytest.mark.parametrize("n_errors,n_times", [(5, 3), (2, 5)])
    def test_error_rows_must_match_the_grid(self, n_errors, n_times):
        with pytest.raises(ValueError, match="times and errors must have one row per grid point"):
            Trajectory(times=np.arange(float(n_times)), states=np.zeros((n_times, 1)),
                       errors=np.zeros((n_errors, 1)))

    def test_control_rows_must_match_the_grid(self):
        with pytest.raises(ValueError, match="times and controls must have one row per grid point"):
            Trajectory(times=np.arange(3.0), states=np.zeros((3, 6)), errors=np.zeros((3, 3)),
                       controls=np.zeros((2, 3)))

    def test_empty_trajectory_is_refused(self):
        # sync_time and divergence_factor read row 0 and the last row.
        with pytest.raises(ValueError, match="at least one grid point"):
            Trajectory(times=np.zeros(0), states=np.zeros((0, 1)), errors=np.zeros((0, 1)))

    def test_summary_serialization(self):
        traj = _error_trajectory(np.arange(3.0), [5.0, 5e-4, 5e-4])
        d = sync_time(traj, 1e-3).to_dict()
        assert d["sync_time"] == 1.0
        assert d["final_below_tol"] is True
        assert d["tol"] == 1e-3
        assert len(d["final_errors"]) == 1


def _pair(times, a_col, b_col):
    times = np.asarray(times, dtype=np.float64)
    a = Trajectory(times=times, states=np.asarray(a_col, dtype=np.float64).reshape(-1, 1))
    b = Trajectory(times=times, states=np.asarray(b_col, dtype=np.float64).reshape(-1, 1))
    return a, b


class TestDivergenceFactor:
    def test_exponential_growth(self):
        times = np.linspace(0.0, 5.0, 51)
        a, b = _pair(times, np.zeros(51), 1e-6 * np.exp(times))
        assert divergence_factor(a, b) == pytest.approx(math.exp(5.0), rel=1e-12)

    def test_peak_need_not_be_terminal(self):
        a, b = _pair([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 5.0, 2.0])
        assert divergence_factor(a, b) == 5.0

    def test_symmetry(self):
        rng = np.random.default_rng(51)
        times = np.arange(20.0)
        a, b = _pair(times, rng.normal(size=20), rng.normal(size=20) + 2.0)
        assert divergence_factor(a, b) == divergence_factor(b, a)

    def test_grid_mismatch(self):
        a, _ = _pair([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        _, b = _pair([0.0, 2.0], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(GridMismatch):
            divergence_factor(a, b)

    def test_zero_initial_separation(self):
        a, b = _pair([0.0, 1.0], [1.0, 2.0], [1.0, 3.0])
        with pytest.raises(ZeroInitialSeparation):
            divergence_factor(a, b)


class TestEmpiricalOrders:
    def test_exact_halving_ratios(self):
        assert empirical_orders([4.0, 1.0]) == (2.0,)
        assert empirical_orders([8.0, 4.0, 1.0]) == (1.0, 2.0)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            empirical_orders([1.0])
        with pytest.raises(ValueError):
            empirical_orders([1.0, 0.0])
        with pytest.raises(ValueError):
            empirical_orders([1.0, -2.0])


class TestRefinementStudy:
    def test_unit_order_shows_second_order(self):
        report = convergence_order(power_forcing_problem(1.0), 1.0 / 32.0, 4)
        assert len(report.orders) == 3
        assert all(abs(v - 2.0) <= 0.2 for v in report.orders)

    def test_step_sizes_halve(self):
        report = convergence_order(power_forcing_problem(1.0), 1.0 / 16.0, 3)
        assert report.step_sizes == (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0)
        assert report.to_dict()["errors"] == list(report.errors)

    def test_pure_forcing_measures_quadrature_order(self):
        # a state-independent right-hand side exposes only the corrector's
        # product-trapezoid accuracy, which is second order for every q
        report = convergence_order(power_forcing_problem(0.5), 1.0 / 32.0, 4)
        assert all(v > 1.9 for v in report.orders)

    def test_state_coupled_problem_shows_fractional_order(self):
        # adding a y-dependence that vanishes on the solution drops the
        # observed rate to about 1 + q
        q = 0.5
        c = math.gamma(5.0) / math.gamma(5.0 - q)
        system = SystemDef(
            name="power-coupled",
            dimension=1,
            rhs=lambda t, y: np.array([c * t ** (4.0 - q) + y[0] - t**4.0]),
        )
        problem = ConvergenceProblem(
            system=system, orders=(q,), y0=(0.0,), t_end=1.0, exact=lambda t: np.array([t**4.0])
        )
        report = convergence_order(problem, 1.0 / 32.0, 4)
        assert all(1.3 <= v <= 1.8 for v in report.orders)

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            convergence_order(power_forcing_problem(1.0), 1.0 / 32.0, 1)

    def test_selftest_reports_the_half_order_gap(self):
        cases, all_in_band = convergence_selftest()
        assert [c.q for c in cases] == [0.5, 0.8, 1.0]
        by_q = {c.q: c for c in cases}
        assert by_q[1.0].in_band
        assert by_q[0.8].in_band
        # the q = 0.5 study lands near 2, outside its 1.5-centered band
        assert not by_q[0.5].in_band
        assert all_in_band is False
        d = by_q[0.5].to_dict()
        assert d["band"] == [1.3, 1.7]
        assert d["in_band"] is False
