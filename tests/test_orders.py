"""One order rule at every public entry point: `systems.order_array`."""

import json

import numpy as np
import pytest

from fracsync import (
    ExactCancellation,
    FinancialParams,
    FractionalOrders,
    SolverConfig,
    VoltaParams,
    financial_system,
    integrate,
    matignon_check,
    mittag_leffler,
    predicted_error,
    weights_a,
    weights_b,
)
from fracsync.cli import EXIT_CONFIG, main
from fracsync.errors import InvalidInput
from fracsync.experiments import run_synchronization
from fracsync.systems import order_array

BAD_ORDERS = [
    1.5,
    -0.2,
    float("nan"),
    "0.9",
    ("0.9", 0.9, 0.9),
    None,
    [[0.9] * 3],
    (0.9,) * 2,
    (0.9,) * 5,
    (0.9,) * 6,
]

_GRID = SolverConfig(h=0.01, n_steps=3)


def _synchronize(orders):
    return run_synchronization(
        FinancialParams(), VoltaParams(), ExactCancellation(), orders,
        (2.0, -1.0, 1.0), (8.0, 2.0, 3.0), _GRID, 1e-3,
    )


ENTRY_POINTS = {
    "FractionalOrders": FractionalOrders,
    "integrate": lambda q: integrate(financial_system(), q, [2.0, -1.0, 1.0], _GRID),
    "weights_a": lambda q: weights_a(q, 4),
    "weights_b": lambda q: weights_b(q, 4),
    "run_synchronization": _synchronize,
    "matignon_check": lambda q: matignon_check(-np.eye(3), q),
    "predicted_error": lambda q: predicted_error(np.ones(3), q, 1.0),
    "mittag_leffler": lambda q: mittag_leffler(q, -1.0),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", BAD_ORDERS, ids=repr)
def test_bad_orders_rejected_everywhere(entry, bad):
    with pytest.raises(InvalidInput, match="^orders "):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("bad", BAD_ORDERS, ids=repr)
def test_bad_orders_are_a_config_error(bad, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"orders": bad}))
    out = tmp_path / "never"
    assert main(["stability", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: orders:" in capsys.readouterr().err
    assert not out.exists()


class TestOrderArray:
    def test_broadcasts_by_numpy_rules(self):
        assert np.array_equal(order_array(0.9, (3,)), [0.9, 0.9, 0.9])
        assert np.array_equal(order_array([0.9], (3,)), [0.9, 0.9, 0.9])
        batch = order_array([0.8, 0.9, 1.0], (4, 3))
        assert batch.shape == (4, 3)
        assert np.array_equal(batch[2], [0.8, 0.9, 1.0])

    def test_returns_a_new_float64_array(self):
        src = np.array([0.9, 0.95, 1.0])
        out = order_array(src, (3,))
        assert out.dtype == np.float64
        out[0] = 0.5
        assert src[0] == 0.9
        assert np.array_equal(order_array(1, ()), np.array(1.0))

    def test_reads_fractional_orders(self):
        orders = FractionalOrders((0.9, 0.95, 1.0))
        assert np.array_equal(order_array(orders, (3,)), [0.9, 0.95, 1.0])
        assert np.array_equal(order_array(orders, (2, 3))[1], [0.9, 0.95, 1.0])

    @pytest.mark.parametrize("bad", [True, (0.9, False, 0.9), 0.9 + 0j, {"q": 0.9}, [0.9, [0.9]]])
    def test_refuses_non_numbers(self, bad):
        with pytest.raises(InvalidInput, match="^orders "):
            order_array(bad, (3,))


def test_scalar_order_means_every_component():
    assert matignon_check(-np.eye(3), 0.9).thresholds == matignon_check(
        -np.eye(3), FractionalOrders.uniform(0.9)
    ).thresholds
    assert len(matignon_check(-np.eye(3), 0.9).thresholds) == 3
    scalar = _synchronize(0.9)
    triple = _synchronize(FractionalOrders.uniform(0.9))
    assert np.array_equal(scalar.trajectory.states, triple.trajectory.states)
