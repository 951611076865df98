"""Shape contract of the vector fields, the control laws and the coupled field.

Each evaluates componentwise along the last axis, so a batch of any shape
or memory layout equals its row-by-row evaluation bit for bit. That is what
makes the control columns computed from a whole trajectory equal the
control the integrator applied at each step. A last axis of any other
length, or a 0-d state with no last axis, raises ValueError instead of
returning made-up components. A `SystemDef.rhs` takes and returns the
components of a state, so it is handed the components along the last axis.
"""

import warnings
from functools import partial

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
    financial_system,
    gain_matrix_default,
    volta_system,
    zero_system,
)
from fracsync.errors import InvalidInput
from fracsync.experiments import run_synchronization
from fracsync.systems import componentwise

from fields import field_on

FP = FinancialParams(alpha=0.9, beta=0.2, gamma=1.2)
VP = VoltaParams()
LAM = (-1.0, -2.5, -0.5)
GAIN = gain_matrix_default(VP)

def _components(y):
    """The components of a state array along its last axis; a 0-d state has none.

    A single state gives Python floats, as the integration driver hands them.
    """
    if np.ndim(y) == 1:
        return y.tolist()
    return list(np.moveaxis(y, -1, 0)) if np.ndim(y) else []


# name -> (width of the last axis, function of one array of that width); the
# laws take master and slave as column views of a six-component state, and
# every field, the coupled pair's included, goes through `field_on`. The
# fields keep the names of the array wrappers these tests were written for.
FUNCTIONS = {
    "financial_rhs": (3, partial(field_on, financial_system(FP))),
    "volta_rhs": (3, partial(field_on, volta_system(VP))),
    "zero": (3, partial(field_on, zero_system())),
    "control_exact": (6, lambda y: control_exact(y[..., :3], y[..., 3:], FP, VP, LAM)),
    "control_literal": (6, lambda y: control_literal(y[..., :3], y[..., 3:], FP, VP, GAIN)),
    "coupled_exact": (6, partial(field_on, coupled_system(FP, VP, ExactCancellation(LAM)))),
    "coupled_literal": (6, partial(field_on, coupled_system(FP, VP, LiteralFeedback()))),
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


@pytest.mark.parametrize("name", FUNCTIONS)
@pytest.mark.parametrize("big", [1e200, np.inf, np.nan])
def test_non_finite_single_states_equal_their_batch_rows(name, big):
    # A single state gives inf and nan where its batch row does, with no
    # RuntimeWarning and no Python exception.
    width, fn = FUNCTIONS[name]
    batch = np.ones((3, width))
    batch[0, ::2] = big
    batch[1, 1::2] = -big
    batch[2, :] = [-big, big] * (width // 2) + [big] * (width % 2)
    rows = fn(batch)
    for row, expect in zip(batch, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = fn(row.copy())
        assert np.array_equal(single, expect, equal_nan=True)


# Every function but `zero`, whose field is 0 everywhere.
@pytest.mark.parametrize("name", [name for name in FUNCTIONS if name != "zero"])
@pytest.mark.parametrize("big", [1e200, np.inf, np.nan])
def test_non_finite_batches_raise_no_warning(name, big):
    # `componentwise` gives inf and nan on overflow without a RuntimeWarning,
    # for a batch as for a single state, the coupled pair's included.
    width, fn = FUNCTIONS[name]
    batch = np.ones((3, width))
    batch[0, ::2] = big
    batch[1, 1::2] = -big
    batch[2, :] = [-big, big] * (width // 2) + [big] * (width % 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = fn(batch)
    assert not np.isfinite(rows).all()


@pytest.mark.parametrize("law,arg", [(control_exact, LAM), (control_literal, GAIN)],
                         ids=["control_exact", "control_literal"])
def test_laws_broadcast_master_and_slave(law, arg):
    # Master and slave of different shapes broadcast by numpy's rules, leading
    # axes included, and each pair equals its own single-state call.
    rng = np.random.default_rng(3)
    master, slave = rng.uniform(-4.0, 4.0, (4, 1, 3)), rng.uniform(-4.0, 4.0, (5, 3))
    whole = law(master, slave, FP, VP, arg)
    assert whole.shape == (4, 5, 3)
    for i, j in np.ndindex(4, 5):
        assert np.array_equal(whole[i, j], law(master[i, 0], slave[j], FP, VP, arg))


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
        lambda: field_on(financial_system(FP), bad),
        lambda: field_on(volta_system(VP), bad),
        lambda: zero_system().rhs(0.0, _components(bad)),
        lambda: control_exact(bad, bad, FP, VP, LAM),
        lambda: control_literal(bad, bad, FP, VP, GAIN),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("count", [1, 2, 4])
@pytest.mark.parametrize("shape", [(3,), (5, 3)])
def test_a_body_returning_another_count_raises(count, shape):
    # One returned component is not broadcast into every entry of the last axis.
    with pytest.raises(ValueError):
        componentwise(lambda s: (s[0],) * count, np.ones(shape))


@pytest.mark.parametrize("body", [
    lambda s: financial_system(FP).rhs(0.0, s),
    lambda s: coupled_system(FP, VP, ExactCancellation()).rhs(0.0, s),
], ids=["financial", "coupled"])
def test_a_zero_dimensional_state_is_refused_without_a_length(body):
    # The message names no length: the coupled pair has six components.
    with pytest.raises(InvalidInput) as info:
        componentwise(body, np.float64(1.0))
    assert str(info.value) == "state must have a last axis, got shape ()"


@pytest.mark.parametrize("controller", [ExactCancellation(LAM), LiteralFeedback()])
@pytest.mark.parametrize("shape", [(), (7,), (2, 7), (4,), (2, 5)])
def test_coupled_rhs_refuses_a_last_axis_other_than_6(controller, shape):
    with pytest.raises(ValueError):
        coupled_system(FP, VP, controller).rhs(0.0, _components(np.ones(shape)))
