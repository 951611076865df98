"""Quadrature weight identities for the predictor and corrector sums."""

import numpy as np
import pytest

from fracsync import weights_a, weights_b
from fracsync.errors import InvalidOrder
from fracsync.kernels import conv_weights_a, conv_weights_b, first_panel_weights


def _naive_b(q, n):
    j = np.arange(n + 1, dtype=np.float64)
    return (n + 1 - j) ** q - (n - j) ** q


def _naive_a(q, n):
    p = q + 1.0
    out = np.empty(n + 2)
    out[0] = n**p - (n - q) * (n + 1) ** q
    j = np.arange(1, n + 1, dtype=np.float64)
    out[1 : n + 1] = (n - j + 2) ** p + (n - j) ** p - 2.0 * (n - j + 1) ** p
    out[n + 1] = 1.0
    return out


class TestPredictorWeights:
    def test_half_order_hand_values(self):
        got = weights_b(0.5, 3)
        expect = np.array(
            [2.0 - np.sqrt(3.0), np.sqrt(3.0) - np.sqrt(2.0), np.sqrt(2.0) - 1.0, 1.0]
        )
        assert np.allclose(got, expect, rtol=0.0, atol=1e-13)

    def test_unit_order_is_rectangle_rule(self):
        assert np.array_equal(weights_b(1.0, 6), np.ones(7))

    def test_first_step(self):
        assert np.array_equal(weights_b(0.3, 0), np.array([1.0]))

    def test_matches_direct_powers(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            q = rng.uniform(0.05, 1.0)
            n = int(rng.integers(1, 400))
            got = weights_b(q, n)
            ref = _naive_b(q, n)
            assert np.all(np.abs(got - ref) <= 1e-10 * (1.0 + ref))

    def test_positive_increasing_and_telescoping(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            q = rng.uniform(0.01, 1.0)
            n = int(rng.integers(0, 600))
            w = weights_b(q, n)
            assert w.shape == (n + 1,)
            assert np.all(w > 0.0)
            assert np.all(np.diff(w) >= 0.0)
            assert w[-1] == 1.0
            total = (n + 1.0) ** q
            assert abs(np.sum(w) - total) <= 1e-10 * total


class TestCorrectorWeights:
    def test_half_order_hand_values(self):
        got = weights_a(0.5, 2)
        s2, s3 = np.sqrt(2.0), np.sqrt(3.0)
        expect = np.array(
            [2.0 * s2 - 1.5 * s3, 3.0 * s3 + 1.0 - 4.0 * s2, 2.0 * s2 - 2.0, 1.0]
        )
        assert np.allclose(got, expect, rtol=0.0, atol=1e-13)

    def test_unit_order_is_trapezoid_rule(self):
        got = weights_a(1.0, 5)
        assert np.array_equal(got, np.array([1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0]))

    def test_first_step(self):
        got = weights_a(0.5, 0)
        assert np.array_equal(got, np.array([0.5, 1.0]))

    def test_matches_direct_powers(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            q = rng.uniform(0.05, 1.0)
            n = int(rng.integers(1, 400))
            got = weights_a(q, n)
            ref = _naive_a(q, n)
            assert np.all(np.abs(got - ref) <= 1e-10 * (1.0 + ref))

    def test_positive_with_unit_tail(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            q = rng.uniform(0.01, 1.0)
            n = int(rng.integers(0, 600))
            w = weights_a(q, n)
            assert w.shape == (n + 2,)
            assert np.all(w > 0.0)
            assert w[-1] == 1.0

    def test_first_panel_weight_limits(self):
        assert first_panel_weights(1.0, [17])[0] == 1.0
        assert first_panel_weights(0.25, [0])[0] == 0.25
        # large-n closed form stays positive and decays toward zero for q < 1
        vals = first_panel_weights(0.5, [10, 100, 10_000, 1_000_000]).tolist()
        assert all(v > 0.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


def _spelled_out_b(q, count):
    if count <= 0:
        return np.empty(0)
    if q == 1.0:
        return np.ones(count)
    out = np.empty(count)
    out[0] = 1.0
    if count > 1:
        k = np.arange(1, count, dtype=np.float64)
        out[1:] = k**q * np.expm1(q * np.log1p(1.0 / k))
    return out


def _spelled_out_a(q, count):
    if count <= 0:
        return np.empty(0)
    if q == 1.0:
        return np.full(count, 2.0)
    p = q + 1.0
    g = np.empty(count + 1)
    g[0] = 1.0
    k = np.arange(1, count + 1, dtype=np.float64)
    g[1:] = k**p * np.expm1(p * np.log1p(1.0 / k))
    return np.diff(g)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.99, 1.0])
@pytest.mark.parametrize("count", [0, 1, 2, 64, 5000])
def test_kernels_equal_their_spelled_out_forms(q, count):
    # Each kernel written out on its own, with the power difference inline.
    assert np.array_equal(conv_weights_b(q, count), _spelled_out_b(q, count))
    assert np.array_equal(conv_weights_a(q, count), _spelled_out_a(q, count))


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0001, float("nan")])
    def test_order_outside_unit_interval(self, bad):
        with pytest.raises(InvalidOrder):
            weights_b(bad, 5)
        with pytest.raises(InvalidOrder):
            weights_a(bad, 5)

    def test_negative_step_index(self):
        with pytest.raises(ValueError):
            weights_b(0.5, -1)
        with pytest.raises(ValueError):
            weights_a(0.5, -1)
