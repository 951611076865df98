"""Integration driver: accuracy, memory policy, determinism, failure paths."""

import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

import fracsync
from fracsync import (
    ExactCancellation,
    FinancialParams,
    FractionalOrders,
    SolverConfig,
    SystemDef,
    VoltaParams,
    financial_system,
    integrate,
    integrate_classical_pece,
    volta_system,
    weights_a,
    weights_b,
    zero_system,
)
from fracsync import kernels
from fracsync.control import coupled_system
from fracsync.errors import InvalidOrder, NonFiniteState
from fracsync.experiments import run_simulation, run_synchronization


def _scalar_system(name, fn):
    return SystemDef(name=name, dimension=1, rhs=fn)


def _reference_abm(rhs, orders, y0, h, n_steps):
    """Textbook per-step evaluation built only on the published weights."""
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


def _direct_abm(rhs, orders, y0, h, n_steps, memory=None):
    """Predictor-corrector by direct summation over the memory window.

    Independent of the package's weight code and of its tiled history
    sums: the weights come from high-precision powers, and every step
    sums its whole window term by term.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    d = y0.size
    qa = np.broadcast_to(np.asarray(orders, dtype=np.float64), (d,))
    w = n_steps + 1 if memory is None else memory
    kb, ka, a0 = (np.stack(c, axis=1) for c in zip(*(_exact_weights(q, n_steps) for q in qa)))
    c1 = np.array([h**q / math.gamma(q + 1.0) for q in qa])
    c2 = np.array([h**q / math.gamma(q + 2.0) for q in qa])
    y = np.empty((n_steps + 1, d))
    f = np.empty((n_steps + 1, d))
    y[0] = y0
    f[0] = rhs(0.0, y0)
    for n in range(n_steps):
        t1 = (n + 1) * h
        j0 = max(0, n + 1 - w)
        pred = y0 + c1 * np.sum(kb[n - j0 :: -1] * f[j0 : n + 1], axis=0)
        jlo = max(j0, 1)
        corr = np.sum(ka[n - jlo :: -1][: n + 1 - jlo] * f[jlo : n + 1], axis=0)
        if j0 == 0:
            corr = corr + a0[n] * f[0]
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
        system = _scalar_system("const", lambda t, y: np.array([c]))
        h = 0.02
        traj = integrate(system, q, [1.5], SolverConfig(h=h, n_steps=1))
        expect = 1.5 + c * h**q / math.gamma(q + 1.0)
        assert abs(traj.states[1, 0] - expect) <= 1e-14

    def test_grid_and_initial_state(self):
        system = _scalar_system("decay", lambda t, y: -y)
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
        system = _scalar_system("power", lambda t, y: np.array([g * t ** (4.0 - q)]))
        cfg = SolverConfig.for_horizon(h=1.0 / 64.0, t_end=1.0)
        traj = integrate(system, q, [0.0], cfg)
        assert abs(traj.states[-1, 0] - 1.0) <= tol

    def test_unit_order_decay_matches_exponential(self):
        system = _scalar_system("decay", lambda t, y: -y)
        cfg = SolverConfig.for_horizon(h=1e-3, t_end=1.0)
        traj = integrate(system, 1.0, [1.0], cfg)
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-5

    def test_matches_reference_scalar(self):
        system = _scalar_system("affine", lambda t, y: t - y)
        cfg = SolverConfig(h=0.01, n_steps=100)
        traj = integrate(system, 0.6, [1.0], cfg)
        ref = _reference_abm(system.rhs, 0.6, [1.0], 0.01, 100)
        assert np.max(np.abs(traj.states - ref)) <= 1e-10

    def test_matches_reference_financial(self):
        system = financial_system()
        orders = FractionalOrders((0.9, 0.95, 1.0))
        cfg = SolverConfig(h=0.005, n_steps=120)
        traj = integrate(system, orders, [2.0, -1.0, 1.0], cfg)
        ref = _reference_abm(system.rhs, orders.as_array(), [2.0, -1.0, 1.0], 0.005, 120)
        assert np.max(np.abs(traj.states - ref)) <= 1e-9


class TestClassicalLimit:
    def test_scalar_unit_order_agrees_per_step(self):
        system = _scalar_system("decay", lambda t, y: -y)
        cfg = SolverConfig(h=0.01, n_steps=100)
        frac = integrate(system, 1.0, [1.0], cfg)
        classical = integrate_classical_pece(system, [1.0], cfg)
        assert np.max(np.abs(frac.states - classical.states)) <= 1e-12

    def test_financial_unit_order_agrees_per_step(self):
        system = financial_system()
        cfg = SolverConfig(h=0.005, n_steps=200)
        frac = integrate(system, 1.0, [2.0, -1.0, 1.0], cfg)
        classical = integrate_classical_pece(system, [2.0, -1.0, 1.0], cfg)
        assert np.max(np.abs(frac.states - classical.states)) <= 1e-12


class TestMemoryWindow:
    def test_window_covering_whole_run_changes_nothing(self):
        system = volta_system()
        orders = 0.97
        y0 = [8.0, 2.0, 3.0]
        full = integrate(system, orders, y0, SolverConfig(h=0.002, n_steps=300))
        windowed = integrate(system, orders, y0, SolverConfig(h=0.002, n_steps=300, memory=301))
        assert np.array_equal(full.states, windowed.states)

    def test_short_window_alters_the_tail(self):
        system = financial_system()
        cfg_full = SolverConfig(h=0.01, n_steps=200)
        cfg_short = SolverConfig(h=0.01, n_steps=200, memory=30)
        full = integrate(system, 0.7, [2.0, -1.0, 1.0], cfg_full)
        short = integrate(system, 0.7, [2.0, -1.0, 1.0], cfg_short)
        assert np.all(np.isfinite(short.states))
        assert not np.array_equal(full.states, short.states)
        # the first 30 steps see identical history
        assert np.array_equal(full.states[:31], short.states[:31])


class TestTiledHistory:
    # 1 500 steps reach FFT tiles of 64, 128, 256 and 512 steps.
    N_STEPS = 1500
    H = 0.005
    Y0 = (2.0, -1.0, 1.0)
    ORDERS = [(0.99, 0.99, 0.99), (0.7, 0.9, 1.0)]

    @pytest.mark.parametrize("orders", ORDERS)
    @pytest.mark.parametrize("memory", [None, 1, 10, 63, 64, 65, 777])
    def test_matches_direct_sums(self, orders, memory):
        system = financial_system()
        cfg = SolverConfig(h=self.H, n_steps=self.N_STEPS, memory=memory)
        got = integrate(system, orders, self.Y0, cfg).states
        want = _direct_abm(system.rhs, orders, self.Y0, self.H, self.N_STEPS, memory)
        assert np.max(np.abs(got - want)) <= 1e-12

    # The pending sums of step n live in history row n + 1: check the first
    # and last steps and the steps around the first block boundary.
    @pytest.mark.parametrize("memory", [None, 1])
    @pytest.mark.parametrize("n_steps", [1, 2, 63, 64, 65])
    def test_matches_direct_sums_at_block_edges(self, n_steps, memory):
        system = financial_system()
        orders = self.ORDERS[1]
        cfg = SolverConfig(h=self.H, n_steps=n_steps, memory=memory)
        got = integrate(system, orders, self.Y0, cfg).states
        want = _direct_abm(system.rhs, orders, self.Y0, self.H, n_steps, memory)
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
        "system,orders,y0,memory",
        [
            (financial_system(), 0.99, Y0, None),
            (volta_system(), (0.98, 0.99, 0.97), (8.0, 2.0, 3.0), None),
            (volta_system(), (0.98, 0.99, 0.97), (8.0, 2.0, 3.0), 300),
            (
                coupled_system(FinancialParams(), VoltaParams(), ExactCancellation()),
                (0.99, 0.95, 0.9, 0.99, 0.95, 0.9),
                (2.0, -1.0, 1.0, 8.0, 2.0, 3.0),
                None,
            ),
        ],
        ids=["financial", "volta", "volta-memory300", "coupled-exact-mixed"],
    )
    def test_tile_groups_are_bit_identical(self, monkeypatch, budget, system, orders, y0, memory):
        cfg = SolverConfig(h=5e-4, n_steps=3000, memory=memory)
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

    @pytest.mark.parametrize("orders", ORDERS)
    def test_window_covering_whole_run_is_bit_identical(self, orders):
        system = financial_system()
        full = integrate(system, orders, self.Y0, SolverConfig(h=self.H, n_steps=self.N_STEPS))
        cfg = SolverConfig(h=self.H, n_steps=self.N_STEPS, memory=self.N_STEPS + 1)
        windowed = integrate(system, orders, self.Y0, cfg)
        assert np.array_equal(full.states, windowed.states)

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


class TestFailurePaths:
    # The runaway tests drive the state through float overflow on purpose.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_runaway_generic_system(self):
        system = _scalar_system("quad", lambda t, y: y * y)
        with pytest.raises(NonFiniteState) as info:
            integrate(system, 1.0, [10.0], SolverConfig(h=0.1, n_steps=200))
        assert np.all(np.isfinite(info.value.trajectory.states))

    # The classical driver and the fractional one at q = 1, which it matches step for step.
    CLASSICAL_DRIVERS = pytest.mark.parametrize(
        "solve",
        [
            lambda system, cfg: integrate_classical_pece(system, [1.0], cfg),
            lambda system, cfg: integrate(system, 1.0, [1.0], cfg),
        ],
        ids=["classical", "fractional-q1"],
    )

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @CLASSICAL_DRIVERS
    def test_classical_blowup_keeps_the_finite_prefix(self, solve):
        # y' = y^2, y(0) = 1 is 1/(1 - t); both schemes overflow at the same row.
        calls = []

        def quad(t, y):
            calls.append(t)
            return y * y

        with pytest.raises(NonFiniteState) as info:
            solve(_scalar_system("quad", quad), SolverConfig(h=0.01, n_steps=300))
        # Both stop at the non-finite predictor of row 106: one call for f_0,
        # then two a step, none after the failure.
        assert len(calls) == 1 + 2 * 105
        err = info.value
        assert err.to_dict() == {"step": 106, "time": 1.06}
        assert err.trajectory.n_points == 106
        assert np.array_equal(err.trajectory.times, np.arange(106) * 0.01)
        assert np.all(np.isfinite(err.trajectory.states))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @CLASSICAL_DRIVERS
    def test_classical_corrector_blowup_keeps_the_finite_prefix(self, solve):
        # y' = -y until the field turns infinite after t = 0.5: the predictor
        # of row 51 is finite, and its corrector, at f(0.51) = inf, is not.
        calls = []

        def cliff(t, y):
            calls.append(t)
            return np.full(y.shape, np.inf) if t > 0.5 else -y

        with pytest.raises(NonFiniteState) as info:
            solve(_scalar_system("cliff", cliff), SolverConfig(h=0.01, n_steps=100))
        # f_0, two calls for each of the 50 finished steps, then the predicted
        # state of the failing one.
        assert len(calls) == 1 + 2 * 50 + 1
        err = info.value
        assert err.to_dict() == {"step": 51, "time": 0.51}
        assert err.trajectory.n_points == 51
        assert np.all(np.isfinite(err.trajectory.states))

    @pytest.mark.parametrize(
        "solve",
        [
            lambda system, cfg: integrate_classical_pece(system, [1.0], cfg),
            lambda system, cfg: integrate(system, 0.9, [1.0], cfg),
        ],
        ids=["classical", "fractional"],
    )
    @pytest.mark.parametrize("n_steps", [1, 2, 500])
    def test_finished_run_makes_two_rhs_calls_a_step(self, solve, n_steps):
        # f_0, then the predicted and the corrected state of every step but
        # the last, whose corrected field no sum reads.
        calls = []

        def relax(t, y):
            calls.append(t)
            return -y

        solve(_scalar_system("relax", relax), SolverConfig(h=0.01, n_steps=n_steps))
        assert len(calls) == 2 * n_steps

    # Both drivers; the fractional one at q = 0.9.
    BOTH_DRIVERS = pytest.mark.parametrize(
        "solve",
        [
            lambda system, y0, cfg: integrate_classical_pece(system, y0, cfg),
            lambda system, y0, cfg: integrate(system, 0.9, y0, cfg),
        ],
        ids=["classical", "fractional"],
    )

    @BOTH_DRIVERS
    def test_rhs_of_the_wrong_shape_is_refused_at_the_first_call(self, solve):
        # A (1,) field for a 3-dimensional state would broadcast, or fail mid-step.
        calls = []

        def narrow(t, y):
            calls.append(t)
            return -y[:1]

        system = SystemDef(name="narrow", dimension=3, rhs=narrow)
        match = r"rhs returned shape \(1,\) for a state of shape \(3,\)"
        with pytest.raises(ValueError, match=match):
            solve(system, [1.0, 2.0, 3.0], SolverConfig(h=0.01, n_steps=10))
        assert calls == [0.0]

    @BOTH_DRIVERS
    def test_zero_dimensional_rhs_is_refused(self, solve):
        system = _scalar_system("scalar", lambda t, y: -y[0])
        match = r"rhs returned shape \(\) for a state of shape \(1,\)"
        with pytest.raises(ValueError, match=match):
            solve(system, [1.0], SolverConfig(h=0.01, n_steps=10))

    def test_simulation_keeps_the_error_as_its_blowup_record(self):
        # The Volta system under a 2000-step window leaves the finite range near t = 9.5.
        cfg = SolverConfig(h=5e-4, n_steps=100_000, memory=2000)
        run = run_simulation(volta_system(), 0.99, (8.0, 2.0, 3.0), cfg)
        assert isinstance(run.blowup, NonFiniteState)
        assert run.blowup.to_dict() == {"step": 18940, "time": 9.47}
        assert json.dumps(run.blowup.to_dict()) == '{"step": 18940, "time": 9.47}'
        assert run.blowup.__traceback__ is None
        assert run.trajectory.n_points == 18940
        assert run.blowup.trajectory is run.trajectory

    @pytest.mark.parametrize("bad", [0.0, 1.5, -0.3, float("nan")])
    def test_bad_order_rejected(self, bad):
        with pytest.raises(InvalidOrder):
            integrate(financial_system(), bad, [2.0, -1.0, 1.0], SolverConfig(h=0.01, n_steps=5))

    def test_wrong_order_count_rejected(self):
        with pytest.raises(InvalidOrder):
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

    def test_classical_rejects_bad_initial_state(self):
        cfg = SolverConfig(h=0.01, n_steps=5)
        with pytest.raises(ValueError):
            integrate_classical_pece(financial_system(), [2.0, -1.0], cfg)
        with pytest.raises(ValueError):
            integrate_classical_pece(financial_system(), [2.0, float("nan"), 1.0], cfg)


class TestSolverConfig:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SolverConfig(h=0.0, n_steps=10)
        with pytest.raises(ValueError):
            SolverConfig(h=-0.1, n_steps=10)
        with pytest.raises(ValueError):
            SolverConfig(h=0.1, n_steps=0)
        with pytest.raises(ValueError):
            SolverConfig(h=0.1, n_steps=10, memory=0)

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
        assert str(info.value) == f"horizon {t_end} allows no finite step count at h = {h}"

    def test_window_property(self):
        assert SolverConfig(h=0.1, n_steps=40).window == 41
        assert SolverConfig(h=0.1, n_steps=40, memory=7).window == 7
