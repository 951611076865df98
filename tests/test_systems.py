"""Vector fields, Jacobians, equilibria, and order validation."""

import dataclasses
import re

import numpy as np
import pytest

from fracsync import (
    ExactCancellation,
    FinancialParams,
    FractionalOrders,
    SystemDef,
    VoltaParams,
    financial_equilibria,
    financial_jacobian,
    financial_system,
    volta_jacobian,
    volta_system,
    zero_system,
)
from fracsync.errors import InvalidInput
from fracsync.experiments import build_system
from fracsync.systems import broadcast_numbers, order_array

from fields import field_on


class TestFinancialRhs:
    def test_hand_values(self):
        p = FinancialParams(alpha=1.0, beta=0.1, gamma=1.0)
        out = field_on(financial_system(p), np.array([2.0, -1.0, 1.0]))
        assert np.allclose(out, [-3.0, -2.9, -3.0], rtol=0.0, atol=1e-12)

    def test_origin(self):
        out = field_on(financial_system(FinancialParams()), np.zeros(3))
        assert np.array_equal(out, np.array([0.0, 1.0, 0.0]))

    def test_vectorized_matches_rowwise(self):
        rng = np.random.default_rng(7)
        p = FinancialParams(alpha=0.9, beta=0.2, gamma=1.2)
        batch = rng.uniform(-4.0, 4.0, size=(6, 3))
        stacked = field_on(financial_system(p), batch)
        assert stacked.shape == (6, 3)
        for row, expect in zip(batch, stacked):
            assert np.array_equal(field_on(financial_system(p), row), expect)

    def test_does_not_mutate_input(self):
        s = np.array([1.0, 2.0, 3.0])
        kept = s.copy()
        field_on(financial_system(FinancialParams()), s)
        assert np.array_equal(s, kept)


class TestVoltaRhs:
    def test_hand_values(self):
        p = VoltaParams(a=19.0, b=11.0, c=0.73)
        out = field_on(volta_system(p), np.array([8.0, 2.0, 3.0]))
        assert np.allclose(out, [-52.0, -114.0, 19.19], rtol=0.0, atol=1e-12)

    def test_origin(self):
        out = field_on(volta_system(VoltaParams()), np.zeros(3))
        assert np.array_equal(out, np.array([0.0, 0.0, 1.0]))

    def test_vectorized_matches_rowwise(self):
        rng = np.random.default_rng(11)
        p = VoltaParams(a=5.0, b=2.0, c=0.5)
        batch = rng.uniform(-3.0, 3.0, size=(5, 3))
        stacked = field_on(volta_system(p), batch)
        for row, expect in zip(batch, stacked):
            assert np.array_equal(field_on(volta_system(p), row), expect)


# The ids keep the names of the array wrappers these tests were written for.
FIELDS = [
    pytest.param(financial_system, FinancialParams, id="financial_rhs-FinancialParams"),
    pytest.param(volta_system, VoltaParams, id="volta_rhs-VoltaParams"),
]


@pytest.mark.parametrize("system,cls", FIELDS)
@pytest.mark.parametrize("kind", [np.float32, np.int64, int])
def test_parameter_types_do_not_change_single_states(system, cls, kind):
    # NumPy 2 keeps float32 arithmetic for `np.float32 - np.float32`;
    # parameters are stored as Python floats, so a single state still equals
    # the float64 batch row.
    values = {"alpha": 1.1, "beta": 0.1, "gamma": 3, "a": 19, "b": 11.3, "c": 0.73}
    names = [f.name for f in dataclasses.fields(cls)]
    p = cls(**{n: kind(values[n]) for n in names})
    assert all(type(getattr(p, n)) is float for n in names)
    batch = np.array([[2.0, -1.0, 1.0], [8.0, 2.0, 3.0], [0.3, 1e-3, -7.5]])
    for row, expect in zip(batch, field_on(system(p), batch)):
        assert np.array_equal(field_on(system(p), row), expect)


@pytest.mark.parametrize("system,cls", FIELDS)
@pytest.mark.parametrize("big", [1e200, np.inf, np.nan])
def test_non_finite_single_states_follow_numpy(system, cls, big):
    # Overflow to inf and inf - inf give inf and nan as in the batch, and no
    # Python OverflowError or ZeroDivisionError.
    batch = np.array([[big, 1.0, -1.0], [1.0, big, -big], [-big, -big, big]])
    with np.errstate(all="ignore"):
        rows = field_on(system(cls()), batch)
    for row, expect in zip(batch, rows):
        assert np.array_equal(field_on(system(cls()), row), expect, equal_nan=True)


@pytest.mark.parametrize(
    "system,cls",
    [
        pytest.param(financial_system, FinancialParams,
                     id="financial_system-financial_rhs-FinancialParams"),
        pytest.param(volta_system, VoltaParams, id="volta_system-volta_rhs-VoltaParams"),
    ],
)
def test_system_rhs_is_the_public_field_bit_for_bit(system, cls):
    # SystemDef.rhs enters the field body directly; on the float components
    # the driver hands it, it must give what the array adaptor gives for
    # every state, whatever its dtype or strides, alone or as a batch row.
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
    rows = field_on(system(p), np.array(states, dtype=np.float64))
    for state, row in zip(states, rows):
        components = np.asarray(state, dtype=np.float64).tolist()
        out, expect = np.array(field(0.0, components)), field_on(system(p), state)
        assert out.dtype == expect.dtype == np.float64
        assert np.array_equal(out, expect)
        assert np.array_equal(out, row)
    with pytest.raises(ValueError):
        field(0.0, [1.0] * 4)


def _fd_jacobian(system, state, eps=1e-6):
    out = np.empty((3, 3))
    for j in range(3):
        hi = state.copy()
        lo = state.copy()
        hi[j] += eps
        lo[j] -= eps
        out[:, j] = (field_on(system, hi) - field_on(system, lo)) / (2.0 * eps)
    return out


class TestJacobians:
    def test_financial_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        p = FinancialParams(alpha=1.0, beta=0.1, gamma=1.0)
        for _ in range(1000):
            s = rng.uniform(-5.0, 5.0, size=3)
            exact = financial_jacobian(s, p)
            approx = _fd_jacobian(financial_system(p), s)
            assert np.all(np.abs(exact - approx) <= 1e-5 * (1.0 + np.abs(exact)))

    def test_volta_matches_finite_differences(self):
        rng = np.random.default_rng(2025)
        p = VoltaParams(a=19.0, b=11.0, c=0.73)
        for _ in range(1000):
            s = rng.uniform(-5.0, 5.0, size=3)
            exact = volta_jacobian(s, p)
            approx = _fd_jacobian(volta_system(p), s)
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
                res = field_on(financial_system(p), np.asarray(point))
                assert np.max(np.abs(res)) <= 1e-10

    def test_negative_discriminant_leaves_only_axis_point(self):
        p = FinancialParams(alpha=9.0, beta=1.0, gamma=1.0)
        points = financial_equilibria(p)
        assert len(points) == 1
        assert np.allclose(points[0], [0.0, 1.0, 0.0])

    def test_degenerate_parameters_raise(self):
        with pytest.raises(InvalidInput, match="^equilibria need beta != 0 and gamma != 0"):
            financial_equilibria(FinancialParams(beta=0.0))
        with pytest.raises(InvalidInput, match="^equilibria need beta != 0 and gamma != 0"):
            financial_equilibria(FinancialParams(gamma=0.0))

    @pytest.mark.parametrize("params", [{"beta": 1e-320}, {"gamma": -1e-320}])
    def test_overflowing_equilibrium_raises(self, params):
        # 1/beta puts the axis point at y = inf; 1/gamma makes the pair's x infinite
        with pytest.raises(InvalidInput, match="equilibrium overflows"):
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
        with pytest.raises(InvalidInput, match="^orders "):
            FractionalOrders((bad, 0.9, 0.9))

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidInput, match="^orders "):
            FractionalOrders((0.9, 0.9))

    def test_unit_order_allowed(self):
        assert FractionalOrders.uniform(1.0).q == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "bad", [None, 0.9, "0.9", {"a": 0.9}, ("a", 0.9, 0.9), (True, 0.9, 0.9), ("0.9",) * 3]
    )
    def test_non_numeric_rejected(self, bad):
        with pytest.raises(InvalidInput, match="^orders "):
            FractionalOrders(bad)


# Numbers given per component, with a value in range and the reader that
# broadcasts them to three components through `broadcast_numbers`.
PER_COMPONENT = {
    "orders": (0.9, lambda value: order_array(value, (3,))),
    "lam": (-2.0, lambda value: np.array(ExactCancellation(value).lam)),
}


class TestBroadcastNumbers:
    @pytest.mark.parametrize("name", PER_COMPONENT)
    @pytest.mark.parametrize("shape", [(), (1,), (3,)])
    def test_one_number_or_three_serve_three_components(self, name, shape):
        value, read = PER_COMPONENT[name]
        given = np.full(shape, value).tolist()
        assert broadcast_numbers(given, name, (3,)).tolist() == [value] * 3
        assert read(given).tolist() == [value] * 3

    @pytest.mark.parametrize("name", PER_COMPONENT)
    @pytest.mark.parametrize("shape", [(2,), (1, 3), (3, 1)])
    def test_other_shapes_get_one_message(self, name, shape):
        # Orders read "do not broadcast" and rates "must give 3 rates" before.
        value, read = PER_COMPONENT[name]
        given = np.full(shape, value).tolist()
        want = re.escape(f"{name} must broadcast to shape (3,), got shape {shape}")
        for call in (lambda: broadcast_numbers(given, name, (3,)), lambda: read(given)):
            with pytest.raises(InvalidInput, match=f"^{want}$"):
                call()

    def test_the_result_is_a_new_float64_array(self):
        given = np.array([1], dtype=np.int32)
        out = broadcast_numbers(given, "value", (2, 3))
        assert out.dtype == np.float64 and out.shape == (2, 3)
        out[0, 0] = 5.0
        assert out[1, 1] == 1.0 and given[0] == 1


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

    def test_zero_system_takes_no_dimension(self):
        with pytest.raises(TypeError):
            zero_system(3)

    def test_a_system_is_its_dimension_and_field(self):
        def rhs(t, y):
            return (-y[0],)

        assert [f.name for f in dataclasses.fields(SystemDef)] == ["dimension", "rhs"]
        with pytest.raises(TypeError):
            SystemDef(name="x", dimension=1, rhs=rhs)
        with pytest.raises(TypeError):
            SystemDef("x", 1, rhs)

    def test_dimension_is_checked_once_at_construction(self):
        # "3", 1.0 and True raised a TypeError inside the driver, -1 an order
        # error, and 0 ran to states of shape (n + 1, 0).
        rhs = financial_system().rhs
        for bad in ("3", 1.0, True, -1, 0, None):
            with pytest.raises(InvalidInput, match="dimension must be an integer >= 1, got"):
                SystemDef(bad, rhs)
            with pytest.raises(InvalidInput, match="dimension must be an integer >= 1, got"):
                dataclasses.replace(financial_system(), dimension=bad)
        assert type(SystemDef(np.int64(3), rhs).dimension) is int

    @pytest.mark.parametrize("name", [["financial"], "bogus", None])
    def test_build_system_refuses_an_unknown_name(self, name):
        # A list raised "TypeError: unhashable type: 'list'".
        match = "system must be one of financial, volta, zero, got"
        with pytest.raises(InvalidInput, match=match):
            build_system(name, FinancialParams(), VoltaParams())
