"""Integration driver: accuracy, tiled history sums, determinism, failure paths."""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import fracsync
from fracsync import (
    ExactCancellation,
    FinancialParams,
    FractionalOrders,
    LiteralFeedback,
    SolverConfig,
    SystemDef,
    VoltaParams,
    financial_system,
    integrate,
    volta_system,
    weights_a,
    weights_b,
    zero_system,
)
from fracsync import kernels
from fracsync.control import coupled_system
from fracsync.errors import InvalidInput, NonFiniteState
from fracsync.experiments import run_simulation, run_synchronization


def _scalar_system(fn):
    return SystemDef(dimension=1, rhs=fn)


def _on_arrays(rhs):
    """`rhs` as a function of a state array: it is handed the components as a list."""
    return lambda t, y: np.array(rhs(t, y.tolist()))


def _reference_abm(rhs, orders, y0, h, n_steps):
    """Textbook per-step evaluation built only on the published weights."""
    rhs = _on_arrays(rhs)
    y0 = np.asarray(y0, dtype=np.float64)
    d = y0.size
    qa = np.asarray(orders, dtype=np.float64)
    if qa.ndim == 0:
        qa = np.full(d, float(qa))
    states = np.empty((n_steps + 1, d))
    f = np.empty((n_steps + 1, d))
    states[0] = y0
    f[0] = rhs(0.0, y0)
    for n in range(n_steps):
        t1 = (n + 1) * h
        pred = np.empty(d)
        for i in range(d):
            qi = qa[i]
            b = weights_b(qi, n)
            pred[i] = y0[i] + h**qi / math.gamma(qi + 1.0) * np.dot(b, f[: n + 1, i])
        fp = rhs(t1, pred)
        ynew = np.empty(d)
        for i in range(d):
            qi = qa[i]
            a = weights_a(qi, n)
            acc = np.dot(a[: n + 1], f[: n + 1, i]) + a[n + 1] * fp[i]
            ynew[i] = y0[i] + h**qi / math.gamma(qi + 2.0) * acc
        states[n + 1] = ynew
        f[n + 1] = rhs(t1, ynew)
    return states


def _classical_pece(rhs, y0, h, n_steps):
    """Classical predictor-corrector: Euler predictor, trapezoid corrector.

    Written in the global-sum form that the fractional scheme takes at
    q = 1, so a q = 1 run of `integrate` matches it to rounding error:

        predict:  y0 + h * sum_{j<=n} f_j
        correct:  y0 + h * (sum_{j<=n} f_j - f_0/2 + f(t_{n+1}, predicted)/2)
    """
    rhs = _on_arrays(rhs)
    y0 = np.asarray(y0, dtype=np.float64)
    states = np.empty((n_steps + 1, y0.size))
    states[0] = y0
    f0 = rhs(0.0, y0)
    sf = f0
    for n in range(n_steps):
        t1 = (n + 1) * h
        fp = rhs(t1, y0 + h * sf)
        states[n + 1] = y0 + h * (sf - 0.5 * f0 + 0.5 * fp)
        sf = sf + rhs(t1, states[n + 1])
    return states


@functools.lru_cache(maxsize=None)
def _exact_weights(q, count):
    """b[k], a[k] and a0(k) for k < count from 40-digit powers, as floats."""
    with mpmath.workdps(40):
        qm = mpmath.mpf(q)
        pq = [mpmath.mpf(k) ** qm for k in range(count + 2)]
        pp = [mpmath.mpf(k) ** (qm + 1) for k in range(count + 2)]
        b = [float(pq[k + 1] - pq[k]) for k in range(count)]
        a = [float(pp[k + 2] + pp[k] - 2 * pp[k + 1]) for k in range(count)]
        a0 = [float(pp[k] - (k - qm) * pq[k + 1]) for k in range(count)]
    return np.array(b), np.array(a), np.array(a0)


def _direct_abm(rhs, orders, y0, h, n_steps):
    """Predictor-corrector by direct summation over the full history.

    Independent of the package's weight code and of its tiled history
    sums: the weights come from high-precision powers, and every step
    sums its whole history term by term.
    """
    rhs = _on_arrays(rhs)
    y0 = np.asarray(y0, dtype=np.float64)
    d = y0.size
    qa = np.broadcast_to(np.asarray(orders, dtype=np.float64), (d,))
    kb, ka, a0 = (np.stack(c, axis=1) for c in zip(*(_exact_weights(q, n_steps) for q in qa)))
    c1 = np.array([h**q / math.gamma(q + 1.0) for q in qa])
    c2 = np.array([h**q / math.gamma(q + 2.0) for q in qa])
    y = np.empty((n_steps + 1, d))
    f = np.empty((n_steps + 1, d))
    y[0] = y0
    f[0] = rhs(0.0, y0)
    for n in range(n_steps):
        t1 = (n + 1) * h
        pred = y0 + c1 * np.sum(kb[n::-1] * f[: n + 1], axis=0)
        corr = np.sum(ka[n - 1 :: -1][:n] * f[1 : n + 1], axis=0) + a0[n] * f[0]
        y[n + 1] = y0 + c2 * (rhs(t1, pred) + corr)
        f[n + 1] = rhs(t1, y[n + 1])
    return y


class TestExactness:
    def test_zero_field_keeps_state(self):
        traj = integrate(zero_system(), 0.6, [3.0, -2.0, 5.0], SolverConfig(h=0.1, n_steps=20))
        assert np.array_equal(traj.states, np.tile([3.0, -2.0, 5.0], (21, 1)))

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.85, 1.0])
    def test_constant_field_first_step(self, q):
        c = 0.7
        system = _scalar_system(lambda t, y: np.array([c]))
        h = 0.02
        traj = integrate(system, q, [1.5], SolverConfig(h=h, n_steps=1))
        expect = 1.5 + c * h**q / math.gamma(q + 1.0)
        assert abs(traj.states[1, 0] - expect) <= 1e-14

    def test_grid_and_initial_state(self):
        system = _scalar_system(lambda t, y: (-y[0],))
        cfg = SolverConfig(h=0.01, n_steps=50)
        traj = integrate(system, 0.9, [2.0], cfg)
        assert traj.n_points == 51
        assert np.array_equal(traj.times, np.arange(51) * 0.01)
        assert traj.states[0, 0] == 2.0
        assert np.array_equal(traj.final_state, traj.states[-1])


class TestAccuracy:
    @pytest.mark.parametrize("q,tol", [(0.5, 5e-4), (1.0, 1e-3)])
    def test_power_forcing_recovers_quartic(self, q, tol):
        g = math.gamma(5.0) / math.gamma(5.0 - q)
        system = _scalar_system(lambda t, y: np.array([g * t ** (4.0 - q)]))
        cfg = SolverConfig.for_horizon(h=1.0 / 64.0, t_end=1.0)
        traj = integrate(system, q, [0.0], cfg)
        assert abs(traj.states[-1, 0] - 1.0) <= tol

    def test_unit_order_decay_matches_exponential(self):
        system = _scalar_system(lambda t, y: (-y[0],))
        cfg = SolverConfig.for_horizon(h=1e-3, t_end=1.0)
        traj = integrate(system, 1.0, [1.0], cfg)
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-5

    def test_matches_reference_scalar(self):
        system = _scalar_system(lambda t, y: (t - y[0],))
        cfg = SolverConfig(h=0.01, n_steps=100)
        traj = integrate(system, 0.6, [1.0], cfg)
        ref = _reference_abm(system.rhs, 0.6, [1.0], 0.01, 100)
        assert np.max(np.abs(traj.states - ref)) <= 1e-10

    def test_matches_reference_financial(self):
        system = financial_system()
        orders = FractionalOrders((0.9, 0.95, 1.0))
        cfg = SolverConfig(h=0.005, n_steps=120)
        traj = integrate(system, orders, [2.0, -1.0, 1.0], cfg)
        ref = _reference_abm(system.rhs, orders.q, [2.0, -1.0, 1.0], 0.005, 120)
        assert np.max(np.abs(traj.states - ref)) <= 1e-9


class TestClassicalLimit:
    def test_scalar_unit_order_agrees_per_step(self):
        system = _scalar_system(lambda t, y: (-y[0],))
        cfg = SolverConfig(h=0.01, n_steps=100)
        frac = integrate(system, 1.0, [1.0], cfg)
        classical = _classical_pece(system.rhs, [1.0], cfg.h, cfg.n_steps)
        assert np.max(np.abs(frac.states - classical)) <= 1e-12

    def test_financial_unit_order_agrees_per_step(self):
        system = financial_system()
        cfg = SolverConfig(h=0.005, n_steps=200)
        frac = integrate(system, 1.0, [2.0, -1.0, 1.0], cfg)
        classical = _classical_pece(system.rhs, [2.0, -1.0, 1.0], cfg.h, cfg.n_steps)
        assert np.max(np.abs(frac.states - classical)) <= 1e-12


class TestTiledHistory:
    # 1 500 steps reach FFT tiles of 64, 128, 256 and 512 steps.
    N_STEPS = 1500
    H = 0.005
    Y0 = (2.0, -1.0, 1.0)
    ORDERS = [(0.99, 0.99, 0.99), (0.7, 0.9, 1.0)]

    @pytest.mark.parametrize("orders", ORDERS)
    def test_matches_direct_sums(self, orders):
        system = financial_system()
        cfg = SolverConfig(h=self.H, n_steps=self.N_STEPS)
        got = integrate(system, orders, self.Y0, cfg).states
        want = _direct_abm(system.rhs, orders, self.Y0, self.H, self.N_STEPS)
        assert np.max(np.abs(got - want)) <= 1e-12

    # The step loop is written out for each state width d: one, two and
    # seven components of mixed orders, and the coupled pair of six.
    WIDTHS = {
        1: (SystemDef(1, lambda t, y: (math.sin(t) - y[0],)), 0.8, (1.0,)),
        2: (SystemDef(2, lambda t, y: (y[1], -y[0] - 0.1 * y[1])), (0.9, 0.95), (1.0, 0.0)),
        6: (
            coupled_system(FinancialParams(), VoltaParams(), ExactCancellation()),
            (0.99, 0.95, 0.9) * 2,
            Y0 + (8.0, 2.0, 3.0),
        ),
        7: (
            SystemDef(7, lambda t, y: [0.2 * y[i - 1] - 0.5 * y[i] for i in range(7)]),
            (0.6, 0.7, 0.8, 0.9, 1.0, 0.9, 0.8),
            (1.0, -1.0, 2.0, 0.5, 0.0, -2.0, 1.5),
        ),
    }

    @pytest.mark.parametrize("d", WIDTHS)
    def test_matches_direct_sums_at_each_width(self, d):
        system, orders, y0 = self.WIDTHS[d]
        cfg = SolverConfig(h=self.H, n_steps=self.N_STEPS)
        got = integrate(system, orders, y0, cfg).states
        want = _direct_abm(system.rhs, orders, y0, self.H, self.N_STEPS)
        assert got.shape == (self.N_STEPS + 1, d)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_one_step_loop_per_width(self):
        assert kernels._step_loop(3) is kernels._step_loop(3)
        assert kernels._step_loop(3) is not kernels._step_loop(6)

    def test_a_wide_state_runs_each_column_alone(self):
        # The finiteness check is one flat `and` of d `isfinite` calls, which
        # the compiler takes at any width; a chain of 5 000 additions would
        # stop it with a RecursionError.
        d, cfg = 5000, SolverConfig(h=0.01, n_steps=70)
        decay = SystemDef(d, lambda t, y: [-v for v in y])
        one = integrate(SystemDef(1, decay.rhs), 0.9, [1.0], cfg).states
        wide = integrate(decay, 0.9, [1.0] * d, cfg).states
        assert wide.shape == (71, d)
        assert np.array_equal(wide, np.repeat(one, d, axis=1))

    def test_finite_components_whose_sum_overflows_run_on(self):
        # 1e308 + 1e308 overflows, but every component stays finite, so the
        # run goes to its end with every state as it started.
        y0 = (1e308, 1e308, 1.0)
        traj = integrate(zero_system(), 0.9, y0, SolverConfig(h=0.01, n_steps=300))
        assert np.array_equal(traj.states, np.tile(y0, (301, 1)))

    def test_a_traceback_shows_the_step_loop(self):
        # The loop is compiled from generated source; linecache holds its lines.
        field = financial_system().rhs

        def failing(t, y):
            if t > 0.0:
                raise ZeroDivisionError("in the field")
            return field(t, y)

        with pytest.raises(ZeroDivisionError) as info:
            integrate(SystemDef(3, failing), 0.9, self.Y0, SolverConfig(h=0.01, n_steps=5))
        frame = [e for e in info.traceback if e.path == "<fracsync step loop, d=3>"]
        assert len(frame) == 1
        assert str(frame[0].statement).strip() == "f = rhs(t1, [p0, p1, p2])"

    # The pending sums of step n live in history row n + 1: check the first
    # and last steps and the steps around the first block boundary.
    @pytest.mark.parametrize("n_steps", [1, 2, 63, 64, 65])
    def test_matches_direct_sums_at_block_edges(self, n_steps):
        system = financial_system()
        orders = self.ORDERS[1]
        cfg = SolverConfig(h=self.H, n_steps=n_steps)
        got = integrate(system, orders, self.Y0, cfg).states
        want = _direct_abm(system.rhs, orders, self.Y0, self.H, n_steps)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    def _peak_bytes(self, n_steps):
        """tracemalloc peak of one financial run of n_steps over t = 10, after a warm-up run."""
        cfg = SolverConfig(h=10.0 / n_steps, n_steps=n_steps)
        integrate(financial_system(), 0.99, self.Y0, cfg)  # lazy imports and caches
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            integrate(financial_system(), 0.99, self.Y0, cfg)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    def test_history_and_pending_sums_share_rows(self):
        # At 5 000 steps the states take 0.12 MB and the history rows, which
        # also hold the pending sums, 0.24 MB; the peak is 0.90 MB. A separate
        # pending-sum array would add 0.24 MB.
        assert self._peak_bytes(5000) < 1.08e6

    def test_fft_tiles_stay_narrow(self):
        # At 20 000 steps the states and history take 1.44 MB and the peak is
        # 2.64 MB. A kernel per component and full-width tiles would bring the
        # peak to 3.81 MB.
        assert self._peak_bytes(20000) < 3.0e6

    # A tile of FFT length L runs in groups of TILE_BUDGET // L components: a
    # budget of 1 splits every tile into single components, one of 2**40
    # runs every tile as one call. At 3 000 steps the default already splits
    # the longest tiles into groups of two or four components.
    @pytest.mark.parametrize("budget", [1, 2**40])
    @pytest.mark.parametrize(
        "system,orders,y0",
        [
            (financial_system(), 0.99, Y0),
            (volta_system(), (0.98, 0.99, 0.97), (8.0, 2.0, 3.0)),
            (
                coupled_system(FinancialParams(), VoltaParams(), ExactCancellation()),
                (0.99, 0.95, 0.9, 0.99, 0.95, 0.9),
                (2.0, -1.0, 1.0, 8.0, 2.0, 3.0),
            ),
        ],
        ids=["financial", "volta", "coupled-exact-mixed"],
    )
    def test_tile_groups_are_bit_identical(self, monkeypatch, budget, system, orders, y0):
        cfg = SolverConfig(h=5e-4, n_steps=3000)
        default = integrate(system, orders, y0, cfg).states
        monkeypatch.setattr(kernels, "TILE_BUDGET", budget)
        assert np.array_equal(integrate(system, orders, y0, cfg).states, default)

    def test_kernel_has_one_column_per_distinct_order(self, monkeypatch):
        # Every kernel build calls conv_weights_b once per column. The coupled
        # run repeats its three orders on master and slave, so it builds three
        # columns where the commensurate run builds one, on the same schedule.
        calls = []
        weights = kernels.conv_weights_b

        def counted(q, count):
            calls.append(q)
            return weights(q, count)

        monkeypatch.setattr(kernels, "conv_weights_b", counted)
        cfg = SolverConfig(h=5e-4, n_steps=3000)
        integrate(financial_system(), 0.99, self.Y0, cfg)
        commensurate = len(calls)
        calls.clear()
        coupled = coupled_system(FinancialParams(), VoltaParams(), ExactCancellation())
        integrate(coupled, (0.99, 0.95, 0.9) * 2, self.Y0 + (8.0, 2.0, 3.0), cfg)
        assert len(calls) == 3 * commensurate

    def test_independent_of_blas_threads(self, tmp_path):
        code = (
            "import sys, numpy as np\n"
            "from fracsync import SolverConfig, financial_system, integrate\n"
            "cfg = SolverConfig(h=0.0005, n_steps=3000)\n"
            "traj = integrate(financial_system(), 0.99, [2.0, -1.0, 1.0], cfg)\n"
            "np.save(sys.argv[1], traj.states)\n"
        )
        src = str(Path(fracsync.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"threads-{threads or 'default'}.npy"
            proc = subprocess.run(
                [sys.executable, "-c", code, str(out)],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(np.load(out))
        assert np.array_equal(runs[0], runs[1])


class TestDeterminism:
    def test_determinism(self):
        system = financial_system()
        cfg = SolverConfig(h=0.002, n_steps=250)
        a = integrate(system, 0.9, [2.0, -1.0, 1.0], cfg)
        b = integrate(system, 0.9, [2.0, -1.0, 1.0], cfg)
        assert np.array_equal(a.states, b.states)

    def test_an_rhs_that_integrates_matches_the_field_alone(self):
        # Each integrate call keeps its own near-sum scratch: a nested run
        # inside every rhs call leaves the outer sums, and so the states, as
        # they are.
        field = financial_system()
        inner = SolverConfig(h=0.01, n_steps=8)

        def nested(t, y):
            integrate(field, 0.9, y, inner)
            return field.rhs(t, y)

        cfg = SolverConfig(h=0.002, n_steps=150)
        plain = integrate(field, 0.99, [2.0, -1.0, 1.0], cfg)
        outer = integrate(SystemDef(3, nested), 0.99, [2.0, -1.0, 1.0], cfg)
        assert np.array_equal(outer.states, plain.states)


class TestFailurePaths:
    def test_runaway_named_system_reports_prefix(self):
        system = financial_system(FinancialParams(alpha=-1000.0))
        cfg = SolverConfig(h=0.01, n_steps=400)
        with pytest.raises(NonFiniteState) as info:
            integrate(system, 0.9, [2.0, -1.0, 1.0], cfg)
        err = info.value
        assert err.step >= 1
        assert err.trajectory is not None
        assert err.trajectory.n_points == err.step
        assert np.all(np.isfinite(err.trajectory.states))
        assert err.time == pytest.approx(err.step * 0.01)
        assert "non-finite" in str(err)

    def test_blowup_record_is_always_complete(self):
        # Integration always knows the prefix, the time and the component.
        with pytest.raises(TypeError):
            NonFiniteState(5)

    def test_runaway_generic_system(self):
        system = _scalar_system(lambda t, y: (y[0] * y[0],))
        with pytest.raises(NonFiniteState) as info:
            integrate(system, 1.0, [10.0], SolverConfig(h=0.1, n_steps=200))
        assert np.all(np.isfinite(info.value.trajectory.states))

    @pytest.mark.parametrize("q,s", [(1.0, 2.05), (0.9, 2.3756), (0.99, 2.0213), (0.5, 1.3559)])
    def test_slow_divergence_past_the_fft_tiles_is_a_blowup(self, q, s):
        # Just past the scheme's bound the unit run grows slowly, so the history
        # nears the largest float at a block boundary and the FFT tiles overflow
        # before any state is non-finite. The run still ends as a blowup, and
        # the suite's error filter turns any RuntimeWarning into a failure.
        system = _scalar_system(lambda t, y: (-s * y[0],))
        with pytest.raises(NonFiniteState) as info:
            integrate(system, q, [1.0], SolverConfig(h=1.0, n_steps=20000))
        err = info.value
        assert err.step > 1000
        assert err.trajectory.n_points == err.step
        assert np.all(np.isfinite(err.trajectory.states))

    # The driver at q = 1, where the scheme is the classical trapezoid predictor-corrector.
    CLASSICAL_DRIVERS = pytest.mark.parametrize(
        "solve", [lambda system, cfg: integrate(system, 1.0, [1.0], cfg)], ids=["fractional-q1"]
    )

    @CLASSICAL_DRIVERS
    def test_classical_blowup_keeps_the_finite_prefix(self, solve):
        # y' = y^2, y(0) = 1 is 1/(1 - t); the run overflows at row 106.
        calls = []

        def quad(t, y):
            calls.append(t)
            return (y[0] * y[0],)

        with pytest.raises(NonFiniteState) as info:
            solve(_scalar_system(quad), SolverConfig(h=0.01, n_steps=300))
        # It stops at the non-finite predictor of row 106: one call for f_0,
        # then two a step, none after the failure.
        assert len(calls) == 1 + 2 * 105
        err = info.value
        assert err.to_dict() == {"step": 106, "time": 1.06}
        assert err.component == 0
        assert str(err) == "state became non-finite at step 106 (t = 1.06) in component 0"
        assert err.trajectory.n_points == 106
        assert np.array_equal(err.trajectory.times, np.arange(106) * 0.01)
        assert np.all(np.isfinite(err.trajectory.states))

    @CLASSICAL_DRIVERS
    def test_classical_corrector_blowup_keeps_the_finite_prefix(self, solve):
        # y' = -y until the field turns infinite after t = 0.5: the predictor
        # of row 51 is finite, and its corrector, at f(0.51) = inf, is not.
        calls = []

        def cliff(t, y):
            calls.append(t)
            return (math.inf,) if t > 0.5 else (-y[0],)

        with pytest.raises(NonFiniteState) as info:
            solve(_scalar_system(cliff), SolverConfig(h=0.01, n_steps=100))
        # f_0, two calls for each of the 50 finished steps, then the predicted
        # state of the failing one.
        assert len(calls) == 1 + 2 * 50 + 1
        err = info.value
        assert err.to_dict() == {"step": 51, "time": 0.51}
        assert err.trajectory.n_points == 51
        assert np.all(np.isfinite(err.trajectory.states))

    @pytest.mark.parametrize(
        "solve", [lambda system, cfg: integrate(system, 0.9, [1.0], cfg)], ids=["fractional"]
    )
    @pytest.mark.parametrize("n_steps", [1, 2, 500])
    def test_finished_run_makes_two_rhs_calls_a_step(self, solve, n_steps):
        # f_0, then the predicted and the corrected state of every step but
        # the last, whose corrected field no sum reads.
        calls = []

        def relax(t, y):
            calls.append(t)
            return (-y[0],)

        solve(_scalar_system(relax), SolverConfig(h=0.01, n_steps=n_steps))
        assert len(calls) == 2 * n_steps

    # The driver at q = 0.9.
    FRACTIONAL_DRIVER = pytest.mark.parametrize(
        "solve", [lambda system, y0, cfg: integrate(system, 0.9, y0, cfg)], ids=["fractional"]
    )

    @FRACTIONAL_DRIVER
    def test_rhs_of_the_wrong_shape_is_refused_at_the_first_call(self, solve):
        # A (1,) field for a 3-dimensional state would broadcast, or fail mid-step.
        calls = []

        def narrow(t, y):
            calls.append(t)
            return (-y[0],)

        system = SystemDef(dimension=3, rhs=narrow)
        with pytest.raises(InvalidInput) as info:
            solve(system, [1.0, 2.0, 3.0], SolverConfig(h=0.01, n_steps=10))
        assert str(info.value) == "rhs must return real numbers of shape (3,), got (-1.0,)"
        assert calls == [0.0]

    @FRACTIONAL_DRIVER
    def test_zero_dimensional_rhs_is_refused(self, solve):
        system = _scalar_system(lambda t, y: -y[0])
        with pytest.raises(InvalidInput) as info:
            solve(system, [1.0], SolverConfig(h=0.01, n_steps=10))
        assert str(info.value) == "rhs must return real numbers of shape (1,), got -1.0"

    def test_simulation_keeps_the_error_as_its_blowup_record(self):
        # At h = 0.05 the Volta system leaves the finite range at step 14.
        cfg = SolverConfig(h=0.05, n_steps=200)
        run = run_simulation(volta_system(), 0.99, (8.0, 2.0, 3.0), cfg)
        assert isinstance(run.blowup, NonFiniteState)
        assert run.blowup.to_dict() == {"step": 14, "time": 14 * 0.05}
        assert json.dumps(run.blowup.to_dict()) == '{"step": 14, "time": 0.7000000000000001}'
        # x goes first; the report entry stays step and time only.
        assert run.blowup.component == 0
        assert str(run.blowup) == "state became non-finite at step 14 (t = 0.7) in component 0"
        assert run.blowup.__traceback__ is None
        assert run.trajectory.n_points == 14
        assert run.blowup.trajectory is run.trajectory

    def test_synchronization_blowup_names_the_slave_component(self):
        # At lambda = -5000 and h = 5e-4, s = h^q |lambda| = 2.7 is past the
        # scheme's stability bound: the slave's x leaves the finite range
        # first, while the master stays on its attractor.
        run = run_synchronization(FinancialParams(), VoltaParams(), ExactCancellation(-5000.0),
                                  0.99, [2.0, -1.0, 1.0], [8.0, 2.0, 3.0],
                                  SolverConfig.for_horizon(5e-4, 10.0), 1e-3)
        assert run.blowup.to_dict() == {"step": 1020, "time": 0.51}
        assert run.blowup.component == 3
        assert "at step 1020 (t = 0.51) in component 3" in str(run.blowup)
        assert np.all(np.abs(run.trajectory.states[:, :3]) < 100.0)

    @pytest.mark.parametrize("controller,orders,blowup_step", [
        (ExactCancellation((-1.0, -2.0, -4.0)), (0.9, 0.95, 0.99), None),
        (LiteralFeedback(), (0.9, 0.95, 0.99), None),
        (ExactCancellation(-5000.0), (0.99, 0.99, 0.99), 1020),
    ])
    def test_synchronization_is_the_coupled_pairs_simulation(self, controller, orders, blowup_step):
        # One run path: the pair's states and blowup record are those of
        # run_simulation on coupled_system, bit for bit, with the slave's
        # components under the master's orders.
        fp, vp, q = FinancialParams(), VoltaParams(), np.array(orders)
        master0, slave0, cfg = [2.0, -1.0, 1.0], [8.0, 2.0, 3.0], SolverConfig(5e-4, 1100)
        sync = run_synchronization(fp, vp, controller, q, master0, slave0, cfg, 1e-3)
        run = run_simulation(coupled_system(fp, vp, controller), np.tile(q, 2),
                             master0 + slave0, cfg)
        assert run.trajectory.states.tobytes() == sync.trajectory.states.tobytes()
        assert run.trajectory.times.tobytes() == sync.trajectory.times.tobytes()
        assert (sync.blowup and sync.blowup.step) == (run.blowup and run.blowup.step) == blowup_step
        assert str(sync.blowup) == str(run.blowup)

    @pytest.mark.parametrize("bad", [0.0, 1.5, -0.3, float("nan")])
    def test_bad_order_rejected(self, bad):
        with pytest.raises(InvalidInput, match="^orders "):
            integrate(financial_system(), bad, [2.0, -1.0, 1.0], SolverConfig(h=0.01, n_steps=5))

    def test_wrong_order_count_rejected(self):
        with pytest.raises(InvalidInput, match="^orders "):
            integrate(financial_system(), [0.9, 0.9], [2.0, -1.0, 1.0], SolverConfig(h=0.01, n_steps=5))

    def test_bad_initial_state_rejected(self):
        cfg = SolverConfig(h=0.01, n_steps=5)
        with pytest.raises(ValueError):
            integrate(financial_system(), 0.9, [2.0, -1.0], cfg)
        with pytest.raises(ValueError):
            integrate(financial_system(), 0.9, [2.0, float("inf"), 1.0], cfg)
        with pytest.raises(ValueError):
            integrate(financial_system(), 0.9, ["2", "-1", "1"], cfg)

    @pytest.mark.parametrize("master", [["2", "-1", "1"], [True, -1.0, 1.0]])
    def test_synchronization_refuses_non_numeric_initial_state(self, master):
        with pytest.raises(ValueError, match="initial state must be numbers"):
            run_synchronization(FinancialParams(), VoltaParams(), ExactCancellation(), 0.9,
                                master, [8.0, 2.0, 3.0], SolverConfig(h=0.01, n_steps=5), 1e-3)

    @pytest.mark.parametrize(
        "master,slave", [([2.0, -1.0], [1.0, 8.0, 2.0, 3.0]), ([2.0, -1.0, 1.0, 8.0], [2.0, 3.0])]
    )
    def test_synchronization_refuses_a_split_of_six_components(self, master, slave):
        # Six components in total, but each state must be a (3,) vector on its own.
        with pytest.raises(ValueError, match=r"initial state must have shape \(3,\)"):
            run_synchronization(FinancialParams(), VoltaParams(), ExactCancellation(), 0.9,
                                master, slave, SolverConfig(h=0.01, n_steps=5), 1e-3)


class TestFieldContract:
    """rhs(t, y) gets a new list of d floats and returns d components."""

    CFG = SolverConfig(h=0.005, n_steps=300)  # past the first FFT tiles
    ORDERS = (0.7, 0.9, 1.0)
    Y0 = [2.0, -1.0, 1.0]

    @pytest.mark.parametrize("kind", [tuple, list, np.array])
    def test_tuple_list_and_array_values_give_the_same_bits(self, kind):
        field = financial_system().rhs
        system = SystemDef(3, lambda t, y: kind(field(t, y)))
        plain = integrate(financial_system(), self.ORDERS, self.Y0, self.CFG)
        assert np.array_equal(integrate(system, self.ORDERS, self.Y0, self.CFG).states, plain.states)

    def test_an_rhs_may_keep_its_argument(self):
        field = financial_system().rhs
        kept = []

        def keeping(t, y):
            kept.append((y, list(y)))
            return field(t, y)

        traj = integrate(SystemDef(3, keeping), self.ORDERS, self.Y0, self.CFG)
        # f_0, then the predicted and the corrected state of each step but the last.
        assert len(kept) == 2 * self.CFG.n_steps
        assert len({id(y) for y, _ in kept}) == len(kept)
        assert all(type(y) is list and y == values for y, values in kept)
        assert all(type(v) is float for y, _ in kept for v in y)
        assert [y for y, _ in kept[2::2]] == traj.states[1:-1].tolist()

    @pytest.mark.parametrize(
        "kind",
        [tuple, list, np.array, lambda f: np.array(f, np.float32), lambda f: tuple(map(int, f))],
        ids=["tuple", "list", "float64", "float32", "int"],
    )
    def test_rhs_gets_floats_whatever_it_returns(self, kind):
        # The predicted and the corrected state both reach rhs as Python
        # floats; a returned array once gave the corrector numpy scalars.
        field = financial_system().rhs
        seen = set()

        def spy(t, y):
            seen.update(type(v) for v in y)
            return kind(field(t, y))

        integrate(SystemDef(3, spy), self.ORDERS, self.Y0, self.CFG)
        assert seen == {float}

    def test_a_float32_value_is_read_as_its_float64_twin(self):
        # The corrector widens each returned component to a float once, so
        # float32 values give the bits of the same values as float64, not
        # float32 arithmetic.
        def narrow(t, y):
            return np.array([-y[0] + 0.1 * t], np.float32)

        def twin(t, y):
            return tuple(narrow(t, y).tolist())

        config = SolverConfig(h=0.01, n_steps=200)
        states = [integrate(SystemDef(1, f), 0.9, [1.0], config).states for f in (narrow, twin)]
        assert np.array_equal(*states)

    def _field(self, d):
        """(field, orders, initial state) of one, three or six components."""
        return {
            1: (lambda t, y: (-y[0],), 0.9, [1.0]),
            3: (financial_system().rhs, self.ORDERS, self.Y0),
            6: (
                coupled_system(FinancialParams(), VoltaParams(), ExactCancellation()).rhs,
                self.ORDERS * 2,
                self.Y0 + [8.0, 2.0, 3.0],
            ),
        }[d]

    # The financial system of three components, then one and six components.
    # The three-component cases keep their names, the length alone.
    @pytest.mark.parametrize(
        "d,length",
        [(3, 1), (3, 2), (3, 4), (1, 2), (1, 4), (6, 1), (6, 3), (6, 7)],
        ids=["1", "2", "4", "d1-2", "d1-4", "d6-1", "d6-3", "d6-7"],
    )
    @pytest.mark.parametrize("bad_call", [11, 12])  # step 4's corrected state, step 5's predicted one
    def test_a_later_value_of_another_length_is_refused(self, d, length, bad_call):
        field, orders, y0 = self._field(d)
        value = (1.0,) * length
        calls = []

        def faulty(t, y):
            calls.append(t)
            return value if len(calls) == bad_call else field(t, y)

        with pytest.raises(InvalidInput) as info:
            integrate(SystemDef(d, faulty), orders, y0, self.CFG)
        assert str(info.value) == f"rhs must return real numbers of shape ({d},), got {value!r}"
        assert len(calls) == bad_call

    # At call 11 the value fills step 4's history row; at call 12 it is
    # step 5's predicted field, which the corrector reads.
    @pytest.mark.parametrize("value", [(None,), (1j,), ([1.0],), ("x",), 1.0, (10**400,)],
                             ids=["none", "complex", "nested", "string", "bare", "huge-int"])
    @pytest.mark.parametrize("bad_call", [11, 12])
    def test_a_later_value_that_is_not_real_numbers_is_refused(self, value, bad_call):
        calls = []

        def faulty(t, y):
            calls.append(t)
            return value if len(calls) == bad_call else (-y[0],)

        with pytest.raises(InvalidInput) as info:
            integrate(SystemDef(1, faulty), 0.9, [1.0], self.CFG)
        assert str(info.value) == f"rhs must return real numbers of shape (1,), got {value!r}"
        assert len(calls) == bad_call

    # After the first value no type check runs: each component is read with
    # float(), and the rows are stored from those floats, so a digit string,
    # True, a Fraction or a Decimal gives the bits of the float it reads as.
    @pytest.mark.parametrize("kind", [repr, lambda v: True, Fraction, Decimal],
                             ids=["digits", "true", "fraction", "decimal"])
    @pytest.mark.parametrize("late_call", [11, 12])
    def test_a_later_value_is_read_as_float_reads_it(self, kind, late_call):
        field = financial_system().rhs

        def states(convert):
            calls = []

            def late(t, y):
                calls.append(t)
                value = list(field(t, y))
                if len(calls) == late_call:
                    value[1] = convert(value[1])
                return value

            return integrate(SystemDef(3, late), self.ORDERS, self.Y0, self.CFG).states

        assert states(kind).tobytes() == states(lambda v: float(kind(v))).tobytes()

    def test_a_value_gets_one_refusal_at_every_call(self):
        # Call 1 is f_0, checked before any step; calls 11 and 12 as above.
        for d in (1, 3, 6):
            field, orders, y0 = self._field(d)
            for value in ((1.0,) * (d + 1), "a", [[1.0, 2.0]] + [3.0] * (d - 1), None,
                          (1j,) + (0.0,) * (d - 1), 1.0):
                for bad_call in (1, 11, 12):
                    calls = []

                    def faulty(t, y):
                        calls.append(t)
                        return value if len(calls) == bad_call else field(t, y)

                    with pytest.raises(InvalidInput) as info:
                        integrate(SystemDef(d, faulty), orders, y0, self.CFG)
                    assert len(calls) == bad_call
                    expected = f"rhs must return real numbers of shape ({d},), got {value!r}"
                    assert str(info.value) == expected, (d, value, bad_call)

    @pytest.mark.parametrize("bad_call", [11, 12])
    def test_an_error_raised_inside_rhs_propagates_unchanged(self, bad_call):
        calls = []

        def faulty(t, y):
            calls.append(t)
            if len(calls) == bad_call:
                raise TypeError("inside the field")
            return (-y[0],)

        with pytest.raises(TypeError, match="inside the field") as info:
            integrate(SystemDef(1, faulty), 0.9, [1.0], self.CFG)
        assert type(info.value) is TypeError

    def test_the_first_value_is_checked_for_numbers_not_for_finiteness(self):
        # "a" raised numpy's bare "could not convert string to float", [1j] a TypeError.
        # Booleans are refused at the first call only, by the package's number
        # rule, also one among floats, which numpy alone reads as a float.
        for value in ("a", [1j, 0.0, 0.0], [[1.0, 2.0], 3.0, 4.0], (True, False, True),
                      (True, 2.0, 3.0), (1.0, np.bool_(False), 3.0), None, (10**400, 0.0, 0.0)):
            with pytest.raises(InvalidInput) as info:
                integrate(SystemDef(3, lambda t, y: value), self.ORDERS, self.Y0, self.CFG)
            assert str(info.value) == f"rhs must return real numbers of shape (3,), got {value!r}"
        # A NaN or an infinity is no type error: the run leaves the finite range at step 1.
        for bad in (math.nan, math.inf):
            system = SystemDef(3, lambda t, y: (bad, 0.0, 0.0))
            with pytest.raises(NonFiniteState) as info:
                integrate(system, self.ORDERS, self.Y0, self.CFG)
            assert info.value.step == 1


class TestSolverConfig:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SolverConfig(h=0.0, n_steps=10)
        with pytest.raises(ValueError):
            SolverConfig(h=-0.1, n_steps=10)
        with pytest.raises(ValueError):
            SolverConfig(h=0.1, n_steps=0)

    def test_for_horizon_rounds_step_count(self):
        cfg = SolverConfig.for_horizon(h=0.01, t_end=1.0)
        assert cfg.n_steps == 100
        assert SolverConfig.for_horizon(h=0.3, t_end=1.0).n_steps == 3
        with pytest.raises(ValueError):
            SolverConfig.for_horizon(h=0.01, t_end=-1.0)

    @pytest.mark.parametrize("h,t_end", [(1.0, 0.1), (0.01, 0.004)])
    def test_for_horizon_refuses_a_horizon_that_rounds_to_no_step(self, h, t_end):
        with pytest.raises(ValueError) as info:
            SolverConfig.for_horizon(h, t_end)
        assert str(info.value) == f"horizon {t_end} allows no step at h = {h}"

    # t_end / h overflows to inf, which round() would turn into OverflowError.
    @pytest.mark.parametrize("h,t_end", [(1e-300, 1e300), (1e-10, 1e300), (5e-324, 1.0)])
    def test_for_horizon_refuses_a_step_count_that_overflows(self, h, t_end):
        with pytest.raises(ValueError) as info:
            SolverConfig.for_horizon(h, t_end)
        assert str(info.value) == f"horizon {t_end} needs more than 5000000 steps at h = {h}"

    def test_for_horizon_caps_the_step_count(self):
        # round(t_end / h) may reach MAX_STEPS and not pass it; a config built
        # directly takes any step count.
        assert SolverConfig.for_horizon(1.0, 5e6).n_steps == 5_000_000
        assert SolverConfig.for_horizon(1.0, 5_000_000.5).n_steps == 5_000_000
        for h, t_end in ((1.0, 5_000_001.0), (1e-300, 1.0)):
            with pytest.raises(InvalidInput) as info:
                SolverConfig.for_horizon(h, t_end)
            assert str(info.value) == f"horizon {t_end} needs more than 5000000 steps at h = {h}"
        assert SolverConfig(h=1.0, n_steps=5_000_001).n_steps == 5_000_001

    def test_takes_no_memory_window(self):
        # Every run keeps its full history; h and n_steps are the only fields.
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["h", "n_steps"]
        with pytest.raises(TypeError):
            SolverConfig(h=0.1, n_steps=40, memory=5)
        with pytest.raises(TypeError):
            SolverConfig.for_horizon(h=0.1, t_end=4.0, memory=5)
