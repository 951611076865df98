"""Mittag-Leffler evaluation, settling detection, refinement diagnostics."""

import dataclasses
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
    SyncSummary,
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
from fracsync.errors import InvalidInput
from fracsync.experiments import (
    CONVERGENCE_H0,
    CONVERGENCE_LEVELS,
    ConvergenceCase,
    convergence_selftest,
    power_forcing_problem,
)


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


def _assert_refused(q, z):
    """E_q(z) off the domain [-30, 0] raises InvalidInput within the per-call bound."""
    t0 = time.perf_counter()
    with pytest.raises(InvalidInput, match="z = .* outside the supported domain"):
        mittag_leffler(q, z)
    assert time.perf_counter() - t0 < SWEEP_CALL_S


class TestMittagLeffler:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.99, 1.0])
    def test_zero_argument(self, q):
        assert mittag_leffler(q, 0.0) == 1.0

    @pytest.mark.parametrize("x", [-30.0, -10.0, -1.0, 0.5, 3.0])
    def test_unit_order_is_exp(self, x):
        if x > 0.0:  # the positive axis is refused at q = 1 as at every order
            _assert_refused(1.0, x)
            return
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
        # E_{1/2}(2) = exp(4) erfc(-2) is finite, but no caller evaluates z > 0
        _assert_refused(0.5, 2.0)

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
        with pytest.raises(InvalidInput, match="orders must"):
            mittag_leffler(q, -1.0)

    @pytest.mark.parametrize("q", [5e-324, 1e-310])
    def test_subnormal_order_is_refused(self, q):
        with pytest.raises(InvalidInput, match=f"^order {q!r} is subnormal"):
            mittag_leffler(q, -1.0)

    @pytest.mark.parametrize("z", [30.5, -31.0, float("inf"), float("nan"), None, "-1", [-1.0]])
    def test_argument_domain(self, z):
        with pytest.raises(InvalidInput, match="^(argument must|z = )"):
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
        values = []
        for x in SWEEP_X:
            z = -x
            t0 = time.perf_counter()
            got = mittag_leffler(q, z)
            elapsed = time.perf_counter() - t0
            assert elapsed < SWEEP_CALL_S, f"E_{q}({z}) took {elapsed:.3f} s"
            if math.log(x) / q > math.log(200.0):  # x^(1/q) > 200
                expect = _asymptotic_oracle(q, x)
            else:
                expect = _series_oracle(q, z)
            assert abs(got - expect) <= SWEEP_REL * abs(expect), (q, z, got, expect)
            if q == 1.0:
                assert abs(got - math.exp(z)) <= 1e-14 * math.exp(z)
            if q == 0.5:
                closed = _half_order_oracle(z)
                assert abs(got - closed) <= SWEEP_REL * closed
            if q == SWEEP_Q[0]:
                # q -> 0: E_q(z) = 1/(1 - z) + Euler's gamma q z/(1 - z)^2 + O(q^2)
                limit = 1.0 / (1.0 - z) + 0.5772156649015329 * q * z / (1.0 - z) ** 2
                assert abs(got - limit) <= 5.0 * q * q * limit
            values.append(got)
        assert all(b < a for a, b in zip(values, values[1:]))
        # the positive axis is refused, from the least subnormal on
        for z in (5e-324, *SWEEP_X):
            _assert_refused(q, z)

    @pytest.mark.parametrize("z", [-30.0, -1.0, -1e-6, 1.0, 30.0])
    def test_order_near_one(self, z):
        # the Lorentzian peak is 1e-9 of its centre wide here; nodes taken
        # as absolute positions would lose about 7 digits resolving it
        q = 1.0 - 1e-9
        if z > 0.0:
            _assert_refused(q, z)
            return
        expect = _series_oracle(q, z)
        assert abs(mittag_leffler(q, z) - expect) <= SWEEP_REL * expect

    @pytest.mark.parametrize("z", [-30.0, -2.0, -0.5, 0.5, 0.9])
    def test_vanishing_order_limit(self, z):
        # E_q(z) = 1/(1 - z) + Euler's gamma q z/(1 - z)^2 + O(q^2): at
        # q = 1e-9 the remainder is below roundoff, and any 1/q loss shows
        q = 1e-9
        if z > 0.0:
            _assert_refused(q, z)
            return
        limit = 1.0 / (1.0 - z) + 0.5772156649015329 * q * z / (1.0 - z) ** 2
        assert abs(mittag_leffler(q, z) - limit) <= 1e-14 * limit

    def test_quadrature_rule_is_numpys_leggauss(self):
        # The hard-coded rule is numpy's to the bit, so every value is as well.
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(32)
        assert np.array_equal(analysis._GL_NODES, nodes)
        assert np.array_equal(analysis._GL_WEIGHTS, weights)

    def test_import_leaves_out_mpmath(self):
        # mpmath is a test extra: loading every module of the package must not need it.
        code = (
            "import importlib, pkgutil, sys, fracsync\n"
            "for m in pkgutil.iter_modules(fracsync.__path__):\n"
            "    if m.name != '__main__':\n"
            "        importlib.import_module(f'fracsync.{m.name}')\n"
            "sys.exit('mpmath' in sys.modules)\n"
        )
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
        system = SystemDef(dimension=1, rhs=lambda t, y: (-y[0],))
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
        late = r"^time must be <= 30\^\(1/q\), got "
        with pytest.raises(InvalidInput, match=late + "31.0 at order q = 1.0$"):
            predicted_error(np.array([1.0]), (1.0,), 31.0)

    def test_a_time_past_the_served_domain_is_refused_by_name(self):
        # t = 100 at q = 0.9 was refused as "z = -63.0957 lies outside the
        # supported domain [-30, 0]", naming an internal, not the time.
        late = r"^time must be <= 30\^\(1/q\), got "
        with pytest.raises(InvalidInput, match=late + "100.0 at order q = 0.9$"):
            predicted_error([1.0], 0.9, 100.0)
        # Only the largest order passes 30 at t = 40.
        with pytest.raises(InvalidInput, match="at order q = 1.0$"):
            predicted_error([1.0, 1.0], (0.9, 1.0), 40.0)
        assert predicted_error([1.0, 1.0], (0.9, 1.0), 30.0)[1] == mittag_leffler(1.0, -30.0)
        assert predicted_error([], 0.9, 1e300).shape == (0,)


def _error_trajectory(times, sup):
    sup = np.asarray(sup, dtype=np.float64)
    states = np.zeros((sup.size, 1))
    return Trajectory(
        times=np.asarray(times, dtype=np.float64),
        states=states,
        errors=sup.reshape(-1, 1),
    )


class TestSyncTime:
    @pytest.mark.parametrize("shape", [(3,), (3, 0), (3, 2, 1)])
    def test_refuses_errors_it_cannot_read(self, shape):
        # 1-D errors raised numpy's AxisError, 3-D a TypeError, and no column
        # a bare "zero-size array to reduction operation maximum".
        traj = Trajectory(times=np.arange(3.0), states=np.zeros((3, 1)), errors=np.ones(shape))
        with pytest.raises(InvalidInput, match="errors must be rows of at least one column"):
            sync_time(traj, 1e-3)

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
        with pytest.raises(InvalidInput, match="no error columns"):
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

    @pytest.mark.parametrize(
        "columns, match",
        [
            ({"times": [0.0, 1.0], "states": np.zeros((2, 3))}, "times must be a 1-D array"),
            ({"times": np.array(5.0), "states": np.zeros((1, 3))}, "times must be a 1-D array"),
            ({"times": np.arange(2.0), "states": np.zeros((2, 3)), "errors": [[1.0], [0.0]]},
             "errors must be an array with a first axis"),
        ],
        ids=["list-times", "0-d-times", "list-errors"],
    )
    def test_columns_that_are_not_arrays_are_refused(self, columns, match):
        with pytest.raises(ValueError, match=match):
            Trajectory(**columns)

    def test_empty_trajectory_is_refused(self):
        # sync_time and divergence_factor read row 0 and the last row.
        with pytest.raises(ValueError, match="at least one grid point"):
            Trajectory(times=np.zeros(0), states=np.zeros((0, 1)), errors=np.zeros((0, 1)))

    def test_nan_error_is_refused_not_read_as_settled(self):
        # NaN fails every comparison, so it read as below tol and max() skipped it
        traj = _error_trajectory(np.arange(5) * 0.1, [1.0, 0.5, np.nan, 1e-5, 1e-5])
        with pytest.raises(InvalidInput, match="error is NaN at grid index 2"):
            sync_time(traj, 1e-3)
        final_nan = Trajectory(times=np.arange(2.0), states=np.zeros((2, 3)),
                               errors=np.array([[1.0, 1.0, 1.0], [1e-5, np.nan, 0.0]]))
        with pytest.raises(InvalidInput, match="error is NaN at grid index 1"):
            sync_time(final_nan, 1e-3)
        # an infinite error stays a violation
        traj.errors[2] = np.inf
        assert sync_time(traj, 1e-3).sync_time == pytest.approx(0.3)

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_summary_refuses_a_nan_final_error_wherever_it_sits(self, where):
        # max() keeps its first operand when a comparison with NaN is False,
        # so the verdict depended on where the NaN sat.
        errors = [1e-5, 2e-5, 0.0]
        errors[where] = math.nan
        with pytest.raises(InvalidInput, match=f"final error is NaN at component {where}"):
            SyncSummary(sync_time=0.0, final_errors=tuple(errors), tol=1e-3)

    def test_summary_reads_an_infinite_final_error_as_a_violation(self):
        for errors in [(math.inf, 1e-5, 0.0), (1e-5, -math.inf, 0.0)]:
            summary = SyncSummary(sync_time=None, final_errors=errors, tol=1e-3)
            assert summary.final_max_error == math.inf
            assert not summary.final_below_tol
        finite = SyncSummary(sync_time=0.0, final_errors=(1e-5, -2e-5, 0.0), tol=1e-3)
        assert finite.final_max_error == 2e-5
        assert finite.final_below_tol

    @pytest.mark.parametrize("tol,message", [(-1.0, "tol must be positive, got -1.0"),
                                             (math.nan, "tol must be finite, got nan"),
                                             ("x", "tol must be a number, got 'x'")])
    def test_summary_refuses_a_tol_that_is_not_a_positive_number(self, tol, message):
        # A summary reports its tol, so one it cannot report is refused when it is built.
        with pytest.raises(InvalidInput) as info:
            SyncSummary(sync_time=None, final_errors=(1.0,), tol=tol)
        assert str(info.value) == message

    def test_summary_refuses_no_final_errors(self):
        # The final max error needs at least one value.
        with pytest.raises(InvalidInput) as info:
            SyncSummary(sync_time=0.0, final_errors=(), tol=1e-3)
        assert str(info.value) == "final errors must hold at least one value, got none"

    @pytest.mark.parametrize("errors,message", [
        (("a",), "final errors must be numbers, got ('a',)"),
        ((None,), "final errors must be numbers, got (None,)"),
        ((1 + 2j,), "final errors must be numbers, got ((1+2j),)"),
        (("1.5",), "final errors must be numbers, got ('1.5',)"),
        ((True,), "final errors must be numbers, got (True,)"),
        (5.0, "final errors must be a list of numbers, got 5.0"),
        (((1.0,),), "final errors must be a list of numbers, got ((1.0,),)"),
    ])
    def test_summary_refuses_final_errors_that_are_not_real_numbers(self, errors, message):
        # These raised a bare TypeError, or in the case of (True,) were reported as [1.0].
        with pytest.raises(InvalidInput) as info:
            SyncSummary(sync_time=None, final_errors=errors, tol=1e-3)
        assert str(info.value) == message

    def test_summary_stores_final_errors_as_floats(self):
        summary = SyncSummary(sync_time=0.0, final_errors=[np.float32(0.5), 2, -math.inf],
                              tol=1e-3)
        assert summary.final_errors == (0.5, 2.0, -math.inf)
        assert all(type(v) is float for v in summary.final_errors)
        assert summary.to_dict()["final_errors"] == [0.5, 2.0, -math.inf]
        assert not summary.final_below_tol

    @pytest.mark.parametrize("time,message", [
        (math.nan, "sync time must be finite, got nan"),
        (math.inf, "sync time must be finite, got inf"),
        ("x", "sync time must be a number, got 'x'"),
        ([1.0], "sync time must have shape (), got shape (1,)"),
        (True, "sync time must be a number, got True"),
    ], ids=["nan", "inf", "string", "list", "bool"])
    def test_summary_refuses_a_sync_time_that_is_not_a_finite_number(self, time, message):
        # NaN and inf were written to JSON as NaN and Infinity, "x" and [1.0] failed
        # only in to_dict, and True was written as 1.0.
        with pytest.raises(InvalidInput) as info:
            SyncSummary(sync_time=time, final_errors=(1.0,), tol=1e-3)
        assert str(info.value) == message

    def test_a_grid_time_that_is_not_finite_is_refused(self):
        # The summary was built with sync_time NaN and written to JSON as NaN.
        traj = _error_trajectory([0.0, math.nan, 2.0], [5.0, 5e-4, 5e-4])
        with pytest.raises(InvalidInput, match="sync time must be finite, got nan"):
            sync_time(traj, 1e-3)

    @pytest.mark.parametrize("errors", [
        np.array([["1.0"], ["0.5"]]),
        np.array([[1.0], [None]], dtype=object),
        np.array([[True], [False]]),
    ], ids=["strings", "none", "bools"])
    def test_error_columns_that_are_not_numbers_are_refused(self, errors):
        # Strings raised numpy's UFuncTypeError, None a bare TypeError, and
        # booleans were read as 1.0 and 0.0.
        traj = Trajectory(times=np.arange(2.0), states=np.zeros((2, 1)), errors=errors)
        with pytest.raises(InvalidInput, match=r"^errors must be numbers, got "):
            sync_time(traj, 1e-3)

    def test_a_reported_grid_time_that_is_not_a_number_is_refused(self):
        # float() read the digit string '1'; a time that is not reported is not read.
        traj = Trajectory(times=np.array(["0", "1"]), states=np.zeros((2, 1)),
                          errors=np.array([[5.0], [5e-4]]))
        with pytest.raises(InvalidInput, match=r"^times must be a number, got np\.str_\('1'\)$"):
            sync_time(traj, 1e-3)
        traj.errors[-1] = 5.0
        assert sync_time(traj, 1e-3).sync_time is None

    def test_integer_error_columns_are_read_as_floats(self):
        traj = Trajectory(times=np.arange(3), states=np.zeros((3, 1)),
                          errors=np.array([[5], [0], [0]]))
        summary = sync_time(traj, 1e-3)
        assert summary.sync_time == 1.0 and type(summary.sync_time) is float
        assert summary.final_errors == (0.0,)

    @pytest.mark.parametrize("time,stored", [(None, None), (np.float32(0.5), 0.5), (2, 2.0),
                                             (-1.5, -1.5)],
                             ids=["none", "float32", "int", "negative"])
    def test_summary_stores_sync_time_as_a_float(self, time, stored):
        # A user trajectory may start before 0, so a negative time passes.
        summary = SyncSummary(sync_time=time, final_errors=(1.0,), tol=1e-3)
        assert summary.sync_time == stored
        assert type(summary.sync_time) is type(stored)
        assert summary.to_dict()["sync_time"] == stored

    def test_summary_stores_tol_as_a_float(self):
        summary = SyncSummary(sync_time=0.0, final_errors=(0.5,), tol=1)
        assert type(summary.tol) is float
        assert summary.to_dict()["tol"] == 1.0

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
    @pytest.mark.parametrize("shape", [(2,), (2, 0), (2, 3, 1)])
    def test_refuses_states_it_cannot_read(self, shape):
        # 1-D states raised numpy's AxisError; no column read as no separation.
        times = np.arange(2.0)
        a, b = Trajectory(times, np.zeros(shape)), Trajectory(times, np.ones(shape))
        with pytest.raises(InvalidInput, match="states must be rows of at least one column"):
            divergence_factor(a, b)

    @pytest.mark.parametrize("states", [
        np.array([["0.0"], ["1.0"]]),
        np.array([[0.0], [None]], dtype=object),
        np.array([[False], [True]]),
    ], ids=["strings", "none", "bools"])
    def test_states_that_are_not_numbers_are_refused(self, states):
        # Strings raised numpy's UFuncTypeError.
        times = np.arange(2.0)
        a, b = Trajectory(times, np.ones((2, 1))), Trajectory(times, states)
        for pair in [(a, b), (b, a)]:
            with pytest.raises(InvalidInput, match=r"^states must be numbers, got "):
                divergence_factor(*pair)

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
        with pytest.raises(InvalidInput, match="do not share a time grid"):
            divergence_factor(a, b)

    def test_state_shape_mismatch(self):
        times = np.arange(3.0)
        a, b = Trajectory(times, np.zeros((3, 2))), Trajectory(times, np.ones((3, 3)))
        with pytest.raises(InvalidInput, match=r"^state shapes differ: \(3, 2\) vs \(3, 3\)$"):
            divergence_factor(a, b)

    def test_zero_initial_separation(self):
        a, b = _pair([0.0, 1.0], [1.0, 2.0], [1.0, 3.0])
        with pytest.raises(InvalidInput, match="start from the same state"):
            divergence_factor(a, b)

    @pytest.mark.parametrize("late", [np.nan, np.inf])
    def test_non_finite_state_is_refused(self, late):
        a, b = _pair([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, late, late])
        with pytest.raises(InvalidInput, match="separation is not finite at grid index 1"):
            divergence_factor(a, b)

    def test_overflowing_difference_is_refused(self):
        a, b = _pair([0.0, 1.0], [0.0, 1e308], [1.0, -1e308])
        with pytest.raises(InvalidInput, match="separation is not finite at grid index 1"):
            divergence_factor(a, b)

    # Each separation is a scaled norm: squaring it would leave the float
    # range for separations that are themselves ordinary floats.
    def test_tiny_initial_separation_is_not_zero(self):
        a, b = _pair([0.0, 1.0], [0.0, 0.0], [1e-200, 3e-200])
        assert divergence_factor(a, b) == 3.0

    def test_huge_finite_separation_is_not_refused(self):
        times = [0.0, 1.0]
        a = Trajectory(times=np.array(times), states=np.zeros((2, 3)))
        b = Trajectory(times=np.array(times), states=np.array([[1e159, 0, 0], [3e160, 4e160, 0]]))
        assert divergence_factor(a, b) == pytest.approx(50.0, rel=1e-15)

    def test_overflowing_ratio_is_refused(self):
        a, b = _pair([0.0, 1.0], [0.0, 0.0], [1e-160, 1e150])
        with pytest.raises(InvalidInput, match="divergence factor .* overflows"):
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

    @pytest.mark.parametrize("errors,pair", [([1e308, 1e-308], 0), ([1e-320, 1e300], 0),
                                             ([4.0, 1.0, 1e-300, 1e100], 2)])
    def test_ratio_out_of_the_float_range_is_refused(self, errors, pair):
        # The ratio overflowed to inf, or underflowed to 0 and math.log2 raised a bare error.
        with pytest.raises(InvalidInput, match=f"of pair {pair} leaves the float range"):
            empirical_orders(errors)

    def test_ratios_near_the_float_limits_keep_their_value(self):
        assert empirical_orders([2.0**1000, 2.0**-20]) == (1020.0,)
        assert empirical_orders([2.0**-1070, 2.0**0]) == (-1070.0,)


class TestConvergenceRecords:
    def test_a_report_derives_its_orders_from_its_errors(self):
        report = analysis.ConvergenceReport((0.1, 0.05), [1.0, 0.25])
        assert report.orders == (2.0,)
        assert report.to_dict() == {"step_sizes": [0.1, 0.05], "errors": [1.0, 0.25],
                                    "orders": [2.0]}

    def test_a_report_refuses_errors_without_orders(self):
        with pytest.raises(InvalidInput, match="errors must be positive"):
            analysis.ConvergenceReport((0.1, 0.05), [1.0, 0.0])

    @pytest.mark.parametrize("steps,errors,message", [
        (("a", "b"), [1.0, 0.25], "step sizes must be numbers, got ('a', 'b')"),
        ((True, False), [1.0, 0.25], "step sizes must be numbers, got (True, False)"),
        ((0.1,), [1.0, 0.25, 0.0625], "step sizes must have shape (3,), got shape (1,)"),
        ((0.1, 0.05, 0.025), [1.0, 0.25], "step sizes must have shape (2,), got shape (3,)"),
        ((0.1, 0.0), [1.0, 0.25], "step sizes must be positive, got (0.1, 0.0)"),
        ((0.1, -0.05), [1.0, 0.25], "step sizes must be positive, got (0.1, -0.05)"),
        ((0.1, math.inf), [1.0, 0.25], "step sizes must be finite, got (0.1, inf)"),
    ])
    def test_a_report_refuses_step_sizes_that_are_not_one_positive_number_per_error(
            self, steps, errors, message):
        # These raised a bare ValueError when written, were written as [1.0, 0.0], or passed.
        with pytest.raises(InvalidInput) as info:
            analysis.ConvergenceReport(steps, errors)
        assert str(info.value) == message

    def test_a_report_stores_its_step_sizes_as_floats(self):
        report = analysis.ConvergenceReport((1, np.float32(0.5)), [1.0, 0.25])
        assert report.step_sizes == (1.0, 0.5)
        assert all(type(v) is float for v in report.step_sizes)

    def test_a_report_stores_its_errors_as_floats(self):
        # The errors were kept as given: a list inside a frozen record.
        report = analysis.ConvergenceReport((0.1, 0.05), [1, np.float32(0.25)])
        assert report.errors == (1.0, 0.25)
        assert all(type(v) is float for v in report.errors)
        assert report.to_dict()["errors"] == [1.0, 0.25]

    @pytest.mark.parametrize("errors,in_band", [((1.0, 2.0**-1.5), True),
                                                ((1.0, 2.0**-2.0), False)])
    def test_a_case_derives_its_band_and_verdict(self, errors, in_band):
        case = ConvergenceCase(0.5, analysis.ConvergenceReport((0.1, 0.05), errors))
        assert case.band == (1.5 - 0.2, 1.5 + 0.2)
        assert case.in_band is in_band
        d = case.to_dict()
        assert list(d) == ["step_sizes", "errors", "orders", "q", "expected_order", "band",
                           "in_band"]
        assert d["expected_order"] == 1.5
        assert d["band"] == [1.5 - 0.2, 1.5 + 0.2]
        assert d["in_band"] is in_band


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
            dimension=1,
            rhs=lambda t, y: np.array([c * t ** (4.0 - q) + y[0] - t**4.0]),
        )
        problem = ConvergenceProblem(
            system=system, orders=(q,), y0=(0.0,), t_end=1.0, exact=lambda t: np.array([t**4.0])
        )
        report = convergence_order(problem, 1.0 / 32.0, 4)
        assert all(1.3 <= v <= 1.8 for v in report.orders)

    def test_exact_solution_is_evaluated_once(self):
        base = power_forcing_problem(0.5)
        calls = []

        def exact(t):
            calls.append(t)
            return base.exact(t)

        report = convergence_order(dataclasses.replace(base, exact=exact), 1.0 / 32.0, 4)
        assert calls == [1.0]
        assert report == convergence_order(base, 1.0 / 32.0, 4)
        # t_end is checked first, so the exact solution never sees a bad one.
        with pytest.raises(ValueError, match="t_end must be a number"):
            convergence_order(dataclasses.replace(base, t_end="1", exact=exact), 1.0 / 32.0, 4)
        assert calls == [1.0]

    def test_exact_solution_of_another_shape_is_refused(self):
        # A (2,) exact solution of a 1-D problem used to broadcast against the state.
        problem = dataclasses.replace(
            power_forcing_problem(0.5), exact=lambda t: np.array([t**4.0, t**4.0])
        )
        match = r"exact solution must have shape \(1,\), got shape \(2,\)"
        with pytest.raises(ValueError, match=match):
            convergence_order(problem, 1.0 / 32.0, 4)

    @pytest.mark.parametrize("levels", [40, 10**9])
    def test_levels_past_the_step_cap_are_refused_before_the_first_run(self, monkeypatch, levels):
        # Each level doubles the step count; every grid is checked before any run.
        calls = []
        monkeypatch.setattr(analysis, "integrate", lambda *args: calls.append(args))
        with pytest.raises(InvalidInput, match="needs more than 5000000 steps"):
            convergence_order(power_forcing_problem(0.5), 1.0 / 32.0, levels)
        assert calls == []

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

    def test_selftest_reports_each_problem_run_alone(self):
        # The self test runs its cases as the columns of one system.
        cases, _ = convergence_selftest()
        for case in cases:
            alone = convergence_order(
                power_forcing_problem(case.q), CONVERGENCE_H0, CONVERGENCE_LEVELS
            )
            assert case.report == alone
