"""Shape contract of the vector fields, the control laws and the coupled field.

Each evaluates componentwise along the last axis, so a batch of any shape
or memory layout equals its row-by-row evaluation bit for bit. That is what
makes the control columns computed from a whole trajectory equal the
control the integrator applied at each step. A last axis of any other
length, or a 0-d state with no last axis, raises ValueError instead of
returning made-up components. A `SystemDef.rhs` takes and returns the
components of a state, so it is handed the components along the last axis.
"""

import numpy as np
import pytest

from fracsync import (
    ExactCancellation,
    FinancialParams,
    LiteralFeedback,
    SolverConfig,
    VoltaParams,
    control_exact,
    control_literal,
    coupled_system,
    financial_rhs,
    gain_matrix_default,
    volta_rhs,
    zero_system,
)
from fracsync.experiments import run_synchronization

FP = FinancialParams(alpha=0.9, beta=0.2, gamma=1.2)
VP = VoltaParams()
LAM = (-1.0, -2.5, -0.5)
GAIN = gain_matrix_default(VP)

def _components(y):
    """The components of a state array along its last axis; a 0-d state has none."""
    return list(np.moveaxis(y, -1, 0)) if np.ndim(y) else []


def _on_arrays(system):
    """system.rhs as a function of a state array, through the components of its last axis."""
    return lambda y: np.moveaxis(np.array(system.rhs(0.0, _components(y))), 0, -1)


# name -> (width of the last axis, function of one array of that width); the
# laws take master and slave as column views of a six-component state.
FUNCTIONS = {
    "financial_rhs": (3, lambda y: financial_rhs(y, FP)),
    "volta_rhs": (3, lambda y: volta_rhs(y, VP)),
    "zero": (3, _on_arrays(zero_system(3))),
    "control_exact": (6, lambda y: control_exact(y[..., :3], y[..., 3:], FP, VP, LAM)),
    "control_literal": (6, lambda y: control_literal(y[..., :3], y[..., 3:], FP, VP, GAIN)),
    "coupled_exact": (6, _on_arrays(coupled_system(FP, VP, ExactCancellation(LAM)))),
    "coupled_literal": (6, _on_arrays(coupled_system(FP, VP, LiteralFeedback()))),
}


def _layouts(width):
    """The same kind of states in several shapes and memory layouts."""
    rng = np.random.default_rng(width)
    rows = rng.uniform(-4.0, 4.0, size=(40, width))
    wide = rng.uniform(-4.0, 4.0, size=(40, width + 3))
    return {
        "rows": rows,
        "fortran": np.asfortranarray(rows),
        "column_view": wide[:, 1 : 1 + width],
        "strided_rows": rows[::3],
        "batch_4x5": rng.uniform(-4.0, 4.0, size=(4, 5, width)),
    }


@pytest.mark.parametrize("name", FUNCTIONS)
@pytest.mark.parametrize("layout", ["rows", "fortran", "column_view", "strided_rows", "batch_4x5"])
def test_batch_equals_rows_bit_for_bit(name, layout):
    width, fn = FUNCTIONS[name]
    batch = _layouts(width)[layout]
    whole = fn(batch)
    out_width = 3 if name.startswith("control") else width
    assert whole.shape == batch.shape[:-1] + (out_width,)
    for idx in np.ndindex(batch.shape[:-1]):
        assert np.array_equal(whole[idx], fn(np.array(batch[idx])))


@pytest.mark.parametrize("controller", [ExactCancellation(LAM), LiteralFeedback()])
def test_control_columns_equal_per_step_control(controller):
    config = SolverConfig(h=0.01, n_steps=300)
    run = run_synchronization(FP, VP, controller, 0.99, [2.0, -1.0, 1.0], [8.0, 2.0, 3.0],
                              config, 1e-3)
    states = run.trajectory.states
    for k in range(states.shape[0]):
        u = controller.control(states[k, :3], states[k, 3:], FP, VP)
        assert np.array_equal(run.trajectory.controls[k], u)


@pytest.mark.parametrize("shape", [(), (4,), (2, 5), (3, 4)])
def test_wrong_last_axis_raises(shape):
    bad = np.ones(shape)
    calls = (
        lambda: financial_rhs(bad, FP),
        lambda: volta_rhs(bad, VP),
        lambda: zero_system(3).rhs(0.0, _components(bad)),
        lambda: control_exact(bad, bad, FP, VP, LAM),
        lambda: control_literal(bad, bad, FP, VP, GAIN),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("controller", [ExactCancellation(LAM), LiteralFeedback()])
@pytest.mark.parametrize("shape", [(), (7,), (2, 7), (4,), (2, 5)])
def test_coupled_rhs_refuses_a_last_axis_other_than_6(controller, shape):
    with pytest.raises(ValueError):
        coupled_system(FP, VP, controller).rhs(0.0, _components(np.ones(shape)))
