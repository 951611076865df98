"""One number rule at every numeric entry point: `systems.number_array`."""

import json

import numpy as np
import pytest

from fracsync import (
    ExactCancellation,
    FinancialParams,
    LiteralFeedback,
    SolverConfig,
    Trajectory,
    VoltaParams,
    chaos_threshold,
    closed_loop_error_matrix,
    control_exact,
    control_literal,
    convergence_order,
    eigen3,
    empirical_orders,
    financial_system,
    integrate,
    integrate_classical_pece,
    matignon_check,
    predicted_error,
    sync_time,
    weights_a,
    weights_b,
)
from fracsync import experiments
from fracsync.cli import EXIT_CONFIG, main
from fracsync.errors import InvalidGain
from fracsync.experiments import power_forcing_problem, run_synchronization
from fracsync.systems import number_array, positive_number

_GRID = SolverConfig(h=0.01, n_steps=3)
_FP, _VP = FinancialParams(), VoltaParams()
_STATE = [2.0, -1.0, 1.0]
_MATRIX = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
_FLAT = sum(_MATRIX, [])
_GAIN = [[0.0, 19.0, -1.0], [11.0, 0.0, 0.0], [1.0, 0.0, -1.73]]
_RATES = [-1.0, -1.0, -1.0]
_SYNCED = Trajectory(times=np.arange(3.0), states=np.zeros((3, 6)), errors=np.zeros((3, 3)))


def _first(good, leaf):
    """`good` with its first number replaced by `leaf`."""
    return [_first(good[0], leaf), *good[1:]] if isinstance(good, list) else leaf


def _wrong_shape(good):
    return good[:-1] if isinstance(good, list) else [good, good]


# Each maker turns an entry point's valid value into a bad one of the same kind.
BAD_NUMBERS = {
    "string": lambda good: _first(good, "1"),
    "bool": lambda good: _first(good, True),
    "nan": lambda good: _first(good, float("nan")),
    "inf": lambda good: _first(good, float("inf")),
    "none": lambda good: None,
    "ragged": lambda good: [[1.0, 2.0, 3.0], [1.0]],
    "wrong-shape": _wrong_shape,
    "nested": lambda good: [good],
}
# predicted_error takes e0 of any shape, so a shape alone is never wrong there.
ANY_SHAPE = {"wrong-shape", "nested"}


def _synchronize(master0=_STATE, slave0=(8.0, 2.0, 3.0), tol=1e-3):
    return run_synchronization(_FP, _VP, ExactCancellation(), 0.9, master0, slave0, _GRID, tol)


# name: (call, valid value, documented error type, cases that are valid there)
ENTRY_POINTS = {
    "integrate y0": (
        lambda v: integrate(financial_system(), 0.9, v, _GRID), _STATE, ValueError, ()),
    "integrate_classical_pece y0": (
        lambda v: integrate_classical_pece(financial_system(), v, _GRID), _STATE, ValueError, ()),
    "run_synchronization master0": (lambda v: _synchronize(master0=v), _STATE, ValueError, ()),
    "run_synchronization slave0": (lambda v: _synchronize(slave0=v), _STATE, ValueError, ()),
    "eigen3": (eigen3, _MATRIX, ValueError, ()),
    "matignon_check": (lambda v: matignon_check(v, 0.9), _MATRIX, ValueError, ()),
    "chaos_threshold": (chaos_threshold, _MATRIX, ValueError, ()),
    "closed_loop_error_matrix": (
        lambda v: closed_loop_error_matrix(v, _VP), _GAIN, InvalidGain, ()),
    "control_literal": (
        lambda v: control_literal(_STATE, _STATE, _FP, _VP, v), _GAIN, InvalidGain, ()),
    # gain=None selects the default gain.
    "LiteralFeedback": (LiteralFeedback, _GAIN, InvalidGain, {"none"}),
    "ExactCancellation": (ExactCancellation, _RATES, InvalidGain, ()),
    "control_exact": (
        lambda v: control_exact(_STATE, _STATE, _FP, _VP, v), _RATES, InvalidGain, ()),
    "predicted_error e0": (lambda v: predicted_error(v, 0.9, 1.0), _STATE, ValueError, ANY_SHAPE),
    "SolverConfig h": (lambda v: SolverConfig(h=v, n_steps=3), 0.01, ValueError, ()),
    "for_horizon h": (lambda v: SolverConfig.for_horizon(v, 1.0), 0.01, ValueError, ()),
    "for_horizon t_end": (lambda v: SolverConfig.for_horizon(0.01, v), 1.0, ValueError, ()),
    "sync_time tol": (lambda v: sync_time(_SYNCED, v), 1e-3, ValueError, ()),
    "run_synchronization tol": (lambda v: _synchronize(tol=v), 1e-3, ValueError, ()),
    "FinancialParams alpha": (lambda v: FinancialParams(alpha=v), 1.0, ValueError, ()),
    "FinancialParams gamma": (lambda v: FinancialParams(gamma=v), 1.0, ValueError, ()),
    "VoltaParams a": (lambda v: VoltaParams(a=v), 19.0, ValueError, ()),
    "VoltaParams c": (lambda v: VoltaParams(c=v), 0.73, ValueError, ()),
    "empirical_orders": (empirical_orders, [4.0, 1.0], ValueError, ()),
    "convergence_order h0": (
        lambda v: convergence_order(power_forcing_problem(0.5), v, 2), 0.125, ValueError, ()),
}

CASES = [
    (entry, case)
    for entry, (_, _, _, valid) in ENTRY_POINTS.items()
    for case in BAD_NUMBERS
    if case not in valid
]


@pytest.mark.parametrize("entry,case", CASES, ids=[f"{e}-{c}" for e, c in CASES])
def test_bad_numbers_rejected_everywhere(entry, case):
    call, good, error, _ = ENTRY_POINTS[entry]
    call(good)  # the valid value runs
    with pytest.raises(Exception) as info:
        call(BAD_NUMBERS[case](good))
    # Exactly the documented type: numpy's LinAlgError, for one, is also a ValueError.
    assert type(info.value) is error, repr(info.value)


@pytest.mark.parametrize("bad", [(0.1, True), (0.1, 5, True), (0.1, 5.0), (0.1, "5")])
def test_solver_config_refuses_bad_counts(bad):
    with pytest.raises(ValueError) as info:
        SolverConfig(*bad)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("h,t_end", [(0.0, 1.0), (0.01, 0.0)])
def test_for_horizon_refuses_bad_grids(h, t_end):
    with pytest.raises(ValueError) as info:
        SolverConfig.for_horizon(h, t_end)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("levels", [2.5, True, "3", None, 1])
def test_convergence_order_refuses_bad_level_counts(levels):
    with pytest.raises(ValueError) as info:
        convergence_order(power_forcing_problem(0.5), 0.125, levels)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("errors", [["1", "0.5"], [True, 0.5]])
def test_empirical_orders_refuses_non_numbers(errors):
    # Both used to give (1.0,): float("1") and float(True) read as numbers.
    with pytest.raises(ValueError) as info:
        empirical_orders(errors)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("weights", [weights_a, weights_b])
@pytest.mark.parametrize("n", [1.5, True, "3", None])
def test_weights_refuse_bad_counts(weights, n):
    with pytest.raises(ValueError) as info:
        weights(0.5, n)
    assert type(info.value) is ValueError


def test_counts_accept_numpy_integers():
    assert SolverConfig(0.1, np.int64(5), memory=np.int32(2)).n_steps == 5
    assert np.array_equal(weights_b(0.5, np.int64(3)), weights_b(0.5, 3))


def test_tol_accepts_numpy_floats():
    assert sync_time(_SYNCED, np.float32(1e-3)).tol == float(np.float32(1e-3))


def test_synchronization_checks_tol_before_integrating(monkeypatch):
    def refuse(*args):
        raise AssertionError("integrated before checking tol")

    monkeypatch.setattr(experiments, "integrate", refuse)
    for bad in (0.0, True, "1e-3", float("nan")):
        with pytest.raises(ValueError):
            _synchronize(tol=bad)


class TestNumberArray:
    def test_returns_a_new_float64_array(self):
        src = np.array([1, 2, 3])
        out = number_array(src, ValueError, "x", (3,))
        assert out.dtype == np.float64
        out[0] = 9.0
        assert src[0] == 1
        floats = np.array([1.0, 2.0])
        assert number_array(floats, ValueError, "x") is not floats

    def test_neither_reshapes_nor_broadcasts(self):
        for value in ([1.0, 2.0, 3.0], 1.0, [[[1.0, 2.0, 3.0]]], [[1.0, 2.0, 3.0]] * 2):
            with pytest.raises(ValueError, match=r"x must have shape \(1, 3\)"):
                number_array(value, ValueError, "x", (1, 3))
        assert number_array([[1.0, 2.0, 3.0]], ValueError, "x", (1, 3)).shape == (1, 3)

    def test_names_the_input_and_raises_the_given_type(self):
        with pytest.raises(InvalidGain, match="rates must be finite"):
            number_array([1.0, float("-inf")], InvalidGain, "rates")
        with pytest.raises(InvalidGain, match="rates must be a number"):
            number_array("1", InvalidGain, "rates", ())

    def test_positive_number(self):
        assert positive_number(np.float32(0.5), "x") == 0.5
        assert type(positive_number(2, "x")) is float
        for bad in (0, -1.0, True, "1", [1.0], float("inf")):
            with pytest.raises(ValueError):
                positive_number(bad, "x")


@pytest.mark.parametrize("values", [[_FLAT], [[v] for v in _FLAT], _FLAT[:-1], _MATRIX[:2]])
def test_explicit_matrix_refuses_other_shapes(values, tmp_path):
    # Only three rows and the flat nine numbers are documented; other shapes are refused.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"matrix": {"source": "explicit", "values": values}}))
    out = tmp_path / "never"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
