"""Vector fields, Jacobians, equilibria, and order validation."""

import dataclasses

import numpy as np
import pytest

from fracsync import (
    FinancialParams,
    FractionalOrders,
    VoltaParams,
    financial_equilibria,
    financial_jacobian,
    financial_rhs,
    financial_system,
    volta_jacobian,
    volta_rhs,
    volta_system,
    zero_system,
)
from fracsync.errors import DegenerateParameters, InvalidOrder


class TestFinancialRhs:
    def test_hand_values(self):
        p = FinancialParams(alpha=1.0, beta=0.1, gamma=1.0)
        out = financial_rhs(np.array([2.0, -1.0, 1.0]), p)
        assert np.allclose(out, [-3.0, -2.9, -3.0], rtol=0.0, atol=1e-12)

    def test_origin(self):
        out = financial_rhs(np.zeros(3), FinancialParams())
        assert np.array_equal(out, np.array([0.0, 1.0, 0.0]))

    def test_vectorized_matches_rowwise(self):
        rng = np.random.default_rng(7)
        p = FinancialParams(alpha=0.9, beta=0.2, gamma=1.2)
        batch = rng.uniform(-4.0, 4.0, size=(6, 3))
        stacked = financial_rhs(batch, p)
        assert stacked.shape == (6, 3)
        for row, expect in zip(batch, stacked):
            assert np.array_equal(financial_rhs(row, p), expect)

    def test_does_not_mutate_input(self):
        s = np.array([1.0, 2.0, 3.0])
        kept = s.copy()
        financial_rhs(s, FinancialParams())
        assert np.array_equal(s, kept)


class TestVoltaRhs:
    def test_hand_values(self):
        p = VoltaParams(a=19.0, b=11.0, c=0.73)
        out = volta_rhs(np.array([8.0, 2.0, 3.0]), p)
        assert np.allclose(out, [-52.0, -114.0, 19.19], rtol=0.0, atol=1e-12)

    def test_origin(self):
        out = volta_rhs(np.zeros(3), VoltaParams())
        assert np.array_equal(out, np.array([0.0, 0.0, 1.0]))

    def test_vectorized_matches_rowwise(self):
        rng = np.random.default_rng(11)
        p = VoltaParams(a=5.0, b=2.0, c=0.5)
        batch = rng.uniform(-3.0, 3.0, size=(5, 3))
        stacked = volta_rhs(batch, p)
        for row, expect in zip(batch, stacked):
            assert np.array_equal(volta_rhs(row, p), expect)


FIELDS = [(financial_rhs, FinancialParams), (volta_rhs, VoltaParams)]


@pytest.mark.parametrize("rhs,cls", FIELDS)
@pytest.mark.parametrize("kind", [np.float32, np.int64, int])
def test_parameter_types_do_not_change_single_states(rhs, cls, kind):
    # A single state runs on Python floats, where NumPy 2 would keep float32
    # arithmetic for `float - np.float32`; parameters are stored as floats,
    # so it still equals the float64 batch row.
    values = {"alpha": 1.1, "beta": 0.1, "gamma": 3, "a": 19, "b": 11.3, "c": 0.73}
    names = [f.name for f in dataclasses.fields(cls)]
    p = cls(**{n: kind(values[n]) for n in names})
    assert all(type(getattr(p, n)) is float for n in names)
    batch = np.array([[2.0, -1.0, 1.0], [8.0, 2.0, 3.0], [0.3, 1e-3, -7.5]])
    for row, expect in zip(batch, rhs(batch, p)):
        assert np.array_equal(rhs(row, p), expect)


@pytest.mark.parametrize("rhs,cls", FIELDS)
@pytest.mark.parametrize("big", [1e200, np.inf, np.nan])
def test_non_finite_single_states_follow_numpy(rhs, cls, big):
    # Overflow to inf and inf - inf give inf and nan as in numpy: no Python
    # OverflowError or ZeroDivisionError from the float path.
    batch = np.array([[big, 1.0, -1.0], [1.0, big, -big], [-big, -big, big]])
    with np.errstate(all="ignore"):
        rows = rhs(batch, cls())
    for row, expect in zip(batch, rows):
        assert np.array_equal(rhs(row, cls()), expect, equal_nan=True)


@pytest.mark.parametrize(
    "system,rhs,cls",
    [(financial_system, financial_rhs, FinancialParams), (volta_system, volta_rhs, VoltaParams)],
)
def test_system_rhs_is_the_public_field_bit_for_bit(system, rhs, cls):
    # SystemDef.rhs enters the field body directly; on the float components
    # the driver hands it, it must give what financial_rhs and volta_rhs give
    # for every state.
    p = cls()
    field = system(p).rhs
    six = np.array([8.0, 0.5, 2.0, -1.5, 3.0, 1e-3])
    states = [
        np.array([2.0, -1.0, 1.0]),
        six[::2],
        six[:3],
        [8.0, 2.0, 3.0],
        np.array([2, -1, 3], dtype=np.int64),
        np.array([0.1, -2.5, 7.3], dtype=np.float32),
    ]
    for state in states:
        components = np.asarray(state, dtype=np.float64).tolist()
        out, expect = np.array(field(0.0, components)), rhs(state, p)
        assert out.dtype == expect.dtype == np.float64
        assert np.array_equal(out, expect)
    with pytest.raises(ValueError):
        field(0.0, [1.0] * 4)


def _fd_jacobian(rhs, state, params, eps=1e-6):
    out = np.empty((3, 3))
    for j in range(3):
        hi = state.copy()
        lo = state.copy()
        hi[j] += eps
        lo[j] -= eps
        out[:, j] = (rhs(hi, params) - rhs(lo, params)) / (2.0 * eps)
    return out


class TestJacobians:
    def test_financial_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        p = FinancialParams(alpha=1.0, beta=0.1, gamma=1.0)
        for _ in range(1000):
            s = rng.uniform(-5.0, 5.0, size=3)
            exact = financial_jacobian(s, p)
            approx = _fd_jacobian(financial_rhs, s, p)
            assert np.all(np.abs(exact - approx) <= 1e-5 * (1.0 + np.abs(exact)))

    def test_volta_matches_finite_differences(self):
        rng = np.random.default_rng(2025)
        p = VoltaParams(a=19.0, b=11.0, c=0.73)
        for _ in range(1000):
            s = rng.uniform(-5.0, 5.0, size=3)
            exact = volta_jacobian(s, p)
            approx = _fd_jacobian(volta_rhs, s, p)
            assert np.all(np.abs(exact - approx) <= 1e-5 * (1.0 + np.abs(exact)))

    def test_financial_entries(self):
        p = FinancialParams(alpha=3.0, beta=0.5, gamma=2.0)
        jac = financial_jacobian(np.array([1.0, 4.0, -2.0]), p)
        expect = np.array(
            [
                [1.0, 1.0, 1.0],
                [-2.0, -0.5, 0.0],
                [-1.0, 0.0, -2.0],
            ]
        )
        assert np.array_equal(jac, expect)


class TestEquilibria:
    def test_default_parameters_give_three_points(self):
        p = FinancialParams(alpha=1.0, beta=0.1, gamma=1.0)
        points = financial_equilibria(p)
        assert len(points) == 3
        assert np.allclose(points[0], [0.0, 10.0, 0.0], atol=1e-14)
        r = np.sqrt(0.8)
        assert np.allclose(points[1], [r, 2.0, -r], atol=1e-12)
        assert np.allclose(points[2], [-r, 2.0, r], atol=1e-12)

    def test_points_are_roots_of_the_field(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            p = FinancialParams(
                alpha=rng.uniform(0.1, 4.0),
                beta=rng.uniform(0.05, 2.0),
                gamma=rng.uniform(0.1, 3.0),
            )
            for point in financial_equilibria(p):
                res = financial_rhs(np.asarray(point), p)
                assert np.max(np.abs(res)) <= 1e-10

    def test_negative_discriminant_leaves_only_axis_point(self):
        p = FinancialParams(alpha=9.0, beta=1.0, gamma=1.0)
        points = financial_equilibria(p)
        assert len(points) == 1
        assert np.allclose(points[0], [0.0, 1.0, 0.0])

    def test_degenerate_parameters_raise(self):
        with pytest.raises(DegenerateParameters):
            financial_equilibria(FinancialParams(beta=0.0))
        with pytest.raises(DegenerateParameters):
            financial_equilibria(FinancialParams(gamma=0.0))

    @pytest.mark.parametrize("params", [{"beta": 1e-320}, {"gamma": -1e-320}])
    def test_overflowing_equilibrium_raises(self, params):
        # 1/beta puts the axis point at y = inf; 1/gamma makes the pair's x infinite
        with pytest.raises(DegenerateParameters, match="overflows"):
            financial_equilibria(FinancialParams(**params))


class TestFractionalOrders:
    def test_defaults(self):
        orders = FractionalOrders()
        assert orders.q == (0.99, 0.99, 0.99)

    def test_uniform(self):
        orders = FractionalOrders.uniform(0.8)
        assert orders.q == (0.8, 0.8, 0.8)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.2, float("nan"), float("inf")])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(InvalidOrder):
            FractionalOrders((bad, 0.9, 0.9))

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidOrder):
            FractionalOrders((0.9, 0.9))

    def test_unit_order_allowed(self):
        assert FractionalOrders.uniform(1.0).q == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "bad", [None, 0.9, "0.9", {"a": 0.9}, ("a", 0.9, 0.9), (True, 0.9, 0.9), ("0.9",) * 3]
    )
    def test_non_numeric_rejected(self, bad):
        with pytest.raises(InvalidOrder):
            FractionalOrders(bad)


class TestSystemBuilders:
    def test_financial_system_wraps_rhs(self):
        sysdef = financial_system(FinancialParams())
        assert sysdef.dimension == 3
        out = sysdef.rhs(0.0, np.array([2.0, -1.0, 1.0]))
        assert np.allclose(out, [-3.0, -2.9, -3.0], atol=1e-12)

    def test_volta_system_wraps_rhs(self):
        sysdef = volta_system(VoltaParams())
        out = sysdef.rhs(0.0, np.array([8.0, 2.0, 3.0]))
        assert np.allclose(out, [-52.0, -114.0, 19.19], atol=1e-12)

    def test_zero_system_field_vanishes(self):
        sysdef = zero_system()
        assert np.array_equal(sysdef.rhs(1.0, np.array([3.0, -2.0, 5.0])), np.zeros(3))
