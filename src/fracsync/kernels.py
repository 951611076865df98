"""Integration kernels for the fractional predictor-corrector scheme.

`abm_python` is the one integration driver. The scheme discretizes the
componentwise Caputo initial value problem D^q_i y_i = f_i(t, y) on the
uniform grid t_j = j*h. With the history f_0 .. f_n known, component i
of order q advances by

    predict:  y0 + h^q / Gamma(q+1) * sum_j b[n-j] * f_j
    correct:  y0 + h^q / Gamma(q+2) * (f(t_{n+1}, predicted)
                                       + a0(n) * f_0
                                       + sum_{j>=1} a[n-j] * f_j)

where the weights depend only on the distance k = n - j:

    b[k]  = (k+1)^q - k^q
    a[k]  = (k+2)^(q+1) + k^(q+1) - 2*(k+1)^(q+1)
    a0(n) = n^(q+1) - (n-q)*(n+1)^q

All three are differences of nearly equal powers, evaluated through
expm1/log1p (see each kernel for the digits it keeps). Every sum runs
over the whole history, j = 0 .. n.

The right-hand side follows the contract that `systems.SystemDef` states.
"""

from __future__ import annotations

import functools
import linecache
import math
import struct

import numpy as np

from .errors import InvalidInput
from .systems import number_array

# ---------------------------------------------------------------------------
# Weight kernels, shared by the public weight functions and the driver.
# ---------------------------------------------------------------------------


def _power_steps(p: float, count: int) -> np.ndarray:
    """(k+1)^p - k^p for k = 0 .. count-1; empty when count <= 0.

    Entry 0 is exactly 1. Entry k >= 1 is k^p * expm1(p*log1p(1/k)), so
    no two large powers cancel.
    """
    out = np.ones(max(count, 0))
    k = np.arange(1, out.shape[0], dtype=np.float64)
    out[1:] = k**p * np.expm1(p * np.log1p(1.0 / k))
    return out


def conv_weights_b(q: float, count: int) -> np.ndarray:
    """Predictor weight kernel b[k] = (k+1)^q - k^q for k = 0 .. count-1; b[0] is exactly 1."""
    if q == 1.0:
        return np.ones(max(count, 0))
    return _power_steps(q, count)


def conv_weights_a(q: float, count: int) -> np.ndarray:
    """Interior corrector weight kernel a[k] for k = 0 .. count-1.

    a[k] = (k+2)^p + k^p - 2*(k+1)^p with p = q+1, computed as the first
    difference of `_power_steps` at p. No large powers cancel, but the
    difference itself does: against exact values at lags up to 2*10^5
    its relative error reaches 7.9e-11 at q = 0.99, 1.4e-10 at q = 0.5 and
    1.4e-9 at q = 0.05, where `conv_weights_b` keeps within 4e-16.
    """
    if q == 1.0:
        return np.full(max(count, 0), 2.0)
    return np.diff(_power_steps(q + 1.0, count + 1))


def first_panel_weights(q: float, steps) -> np.ndarray:
    """Corrector weight a0(n) of the j = 0 sample for each step index n in `steps`.

    a0(n) = n^(q+1) - (n-q)*(n+1)^q, evaluated as
    (n+1)^q * (q + n*expm1(q*log1p(-1/(n+1)))) to avoid cancellation.
    """
    n = np.asarray(steps, dtype=np.float64)
    if q == 1.0:
        return np.ones(n.shape)
    out = np.full(n.shape, q)
    pos = n > 0
    m = n[pos]
    out[pos] = (m + 1.0) ** q * (q + m * np.expm1(q * np.log1p(-1.0 / (m + 1.0))))
    return out


# ---------------------------------------------------------------------------
# numpy driver with FFT-tiled history sums.
# ---------------------------------------------------------------------------

# Steps per block of the tiled history sums. Sums over the current block run
# directly; older blocks reach a step through FFT tiles.
BLOCK = 64
# An FFT tile of length L transforms max(1, min(d, TILE_BUDGET // L))
# components, both halves of each, per call: a long tile one component at a
# time, so that none of its arrays is 2d columns wide, and a short one in a
# single call, which splitting would only slow.
TILE_BUDGET = 8192

# The one refusal of an rhs value that is not d real numbers, at any call.
_REFUSAL = "rhs must return real numbers of shape ({d},), got {value!r}"

# The step loop of `abm_python` for d components, written out with one name
# per component: {p} stands for "p0, p1, ...", {p_finite} for
# "isfinite(p0) and isfinite(p1) and ...", and {corrector} for one line
# "y_i = c_i + k_i * float(f_i)" per component. The rhs calls stay outside
# the `try` blocks, so an exception raised inside rhs propagates unchanged.
# `pack_into` stores only values that `float()` has read: a digit string,
# which `float()` reads, would make `pack_into` raise `struct.error`.
_STEP_LOOP = """\
def step_loop(rhs, h, n_steps, tiles, flat, states, weights, products, sums, scale):
    {k}, = scale
    multiply, reduce, isfinite = np.multiply, np.add.reduce, math.isfinite
    put_state, put_row = struct.Struct("{d}d").pack_into, struct.Struct("{d}d{d}d").pack_into
    state_bytes, row_bytes = memoryview(states).cast("B"), memoryview(flat).cast("B")
    for lo in range(0, n_steps, BLOCK):
        if lo:
            tiles(lo)
        for n, weight, product in zip(range(lo, min(lo + BLOCK, n_steps)), weights, products):
            # Rows f_lo .. f_n, then the pending sums in row n + 1, added in order;
            # `out` is passed by position, which numpy parses faster.
            multiply(weight, flat[lo : n + 2], product)
            reduce(product, 0, None, sums)
            {p}, {c}, = sums.tolist()
            if not ({p_finite}):
                return n + 1, [isfinite(v) for v in ({p},)].index(False)
            t1 = (n + 1) * h
            f = rhs(t1, [{p}])
            try:
                {f}, = f
{corrector}
            except (TypeError, ValueError, OverflowError):
                raise InvalidInput(_REFUSAL.format(d={d}, value=f)) from None
            if not ({y_finite}):
                return n + 1, [isfinite(v) for v in ({y},)].index(False)
            put_state(state_bytes, (n + 1) * (8 * {d}), {y})
            if n + 1 < n_steps:  # no sum reads f at the last grid point
                f = rhs(t1, [{y}])
                try:
                    {g}, = f
                    {g}, = {g_float},
                    put_row(row_bytes, (n + 1) * (16 * {d}), {g}, {g})
                except (TypeError, ValueError, OverflowError):
                    raise InvalidInput(_REFUSAL.format(d={d}, value=f)) from None
    return -1, -1
"""


@functools.cache
def _step_loop(d: int):
    """`_STEP_LOOP` written out for d components, compiled once per d.

    Its source is registered with linecache under its file name, so a
    traceback through the loop shows its lines.
    """
    names = {x: [f"{x}{i}" for i in range(d)] for x in "pcfgky"}
    source = _STEP_LOOP.format(
        d=d,
        p_finite=" and ".join(f"isfinite({v})" for v in names["p"]),
        y_finite=" and ".join(f"isfinite({v})" for v in names["y"]),
        corrector="\n".join(f"                y{i} = c{i} + k{i} * float(f{i})" for i in range(d)),
        g_float=", ".join(f"float({v})" for v in names["g"]),
        **{x: ", ".join(v) for x, v in names.items()},
    )
    filename = f"<fracsync step loop, d={d}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace["step_loop"]


def abm_python(rhs, q, y0, h, n_steps):
    """Integrate with the predictor-corrector loop in plain numpy.

    The history sums are split at block boundaries (Hairer, Lubich &
    Schlichte 1985), so N steps cost O(N log^2 N) instead of O(N^2). The
    part from the current block of BLOCK steps is summed directly at every
    step. When block boundary M is reached, with 2^k the largest power of
    two dividing M, the field samples of blocks [M - 2^k, M) are convolved
    by FFT with the weights at lags up to 2^(k+1)*BLOCK, and the results
    are held for the steps of blocks [M, M + 2^k); a tile reaching past
    the last step is cut short. Every (source, output) block pair below
    the diagonal is covered by exactly one tile, so the sums equal the
    direct ones up to rounding. No sum goes through BLAS, so the states do
    not depend on the BLAS kernel or thread count.

    Row j of the history holds (f_j, f_j) once step j - 1 is done. Until
    then it holds the pending sums of step j - 1: y0, the a0 term and the
    far tiles. Step n reads rows n - r .. n + 1, with r = n % BLOCK, in
    one weighted sum whose weight on row n + 1 is one, then overwrites row
    n + 1 with f_{n+1}. History and pending sums thus share (N + 1) * 2d
    floats, beside the (N + 1) * d of the states, and the rows are added
    in order, so the sum is the near sum plus the pending sums to the
    last bit.

    The weights depend only on the order, so the kernel and its cached
    spectra have one column pair per distinct order, which component i
    reads as column col[i]: one column when every order is equal, three
    for a coupled run. A tile of FFT length L transforms TILE_BUDGET // L
    components at a time (at least one, at most d), so a long tile is
    never 2d columns wide; every column is transformed on its own either
    way, so the grouping changes no bit.

    The near sums run in scratch built once per call: a (BLOCK + 1, 2d)
    product buffer with its first r + 2 rows as one view per r, the weight
    view near[BLOCK - 1 - r:] per r, and a 2d-float `sums` vector that
    each step fills with `out=`. No step allocates an array for its sums,
    the scratch is about 20 kB at d = 3 whatever N is, and being local to
    the call it keeps a nested integration inside rhs from touching the
    outer one's sums.

    The rest of a step runs on Python floats in `_step_loop(d)`, compiled
    once per width with one name per component, so a step builds no list
    to map over. It unpacks `sums.tolist()` into the predictor p_i and the
    corrector sums c_i, checks each p_i with isfinite (so finite components
    whose sum would overflow pass), calls rhs, forms y_i = c_i + hq2_i *
    float(f_i), checks and stores it and calls rhs again for the history
    row. Reading every returned component with `float()` keeps numpy
    scalars out of the corrector and refuses a None that numpy would store
    as NaN. The state row and the history row are stored with
    `struct.pack_into` at byte offsets (n + 1) * 8d and (n + 1) * 16d of
    byte views taken once per call, which writes each float's own bits.
    That is sound only because this function builds `states` and the
    history itself, as new C-contiguous arrays of native float64. The FFT
    tiles stay ordinary code, called once per BLOCK steps.

    Parameters
    ----------
    rhs : callable
        The field, under the contract of `systems.SystemDef`.
    q, y0 : ndarray
        Orders and initial state, new float64 arrays of shape (d,).
    h : float
        Step size.
    n_steps : int
        Step count.

    Returns
    -------
    (ndarray, int, int)
        States of shape (n_steps + 1, d), the failing grid index and the
        first component that left the finite range there; both -1 when
        every state stayed finite.
    """
    d = q.shape[0]
    hq1 = h**q / np.array([math.gamma(v + 1.0) for v in q])
    hq2 = h**q / np.array([math.gamma(v + 2.0) for v in q])

    # One kernel column per distinct order: first[c] is the first component
    # of order column c, and col[i] the column of component i.
    orders = q.tolist()
    first = [i for i, v in enumerate(orders) if orders.index(v) == i]
    col = [first.index(orders.index(v)) for v in orders]

    def kernel(count):
        # out[l, 0] holds the scaled predictor weights hq1*b[l] at lag l,
        # out[l, 1] the corrector weights hq2*a[l].
        out = np.empty((count, 2, len(first)))
        for c, i in enumerate(first):
            out[:, 0, c] = hq1[i] * conv_weights_b(q[i], count)
            out[:, 1, c] = hq2[i] * conv_weights_a(q[i], count)
        return out

    # near[BLOCK - 1 - l] holds lag l; the row of ones after lag 0 adds acc[n].
    lags = kernel(BLOCK)[::-1, :, col].reshape(BLOCK, 2 * d)
    near = np.concatenate([lags, np.ones((1, 2 * d))])
    spectra = {}  # FFT length -> spectrum of kernel(length), kept while a later tile needs it
    # Near-sum scratch, indexed by r = n % BLOCK: the weights of rows
    # n - r .. n + 1 and the first r + 2 rows of one product buffer.
    prod = np.empty((BLOCK + 1, 2 * d))
    weights = [near[BLOCK - 1 - r :] for r in range(BLOCK)]
    products = [prod[: r + 2] for r in range(BLOCK)]
    sums = np.empty(2 * d)
    scale = hq2.tolist()

    states = np.empty((n_steps + 1, d))
    states[0] = y0
    # The first value is checked by the package's number rule, which also
    # refuses strings and booleans; a NaN or an infinity in it is left to
    # step 1, like any later non-finite value.
    value = rhs(0.0, y0.tolist())
    try:
        f0 = number_array(value, "rhs", (d,), finite=False)
    except InvalidInput:
        raise InvalidInput(_REFUSAL.format(d=d, value=value)) from None
    # hist[j] = (f_j, f_j), except that the corrector half of row 0 is zero:
    # the corrector weighs f_0 with a0(n), not with the kernel.
    hist = np.empty((n_steps + 1, 2, d))
    hist[0, 0] = f0
    hist[0, 1] = 0.0
    flat = hist.reshape(n_steps + 1, 2 * d)
    # acc[n] collects y0, the a0(n) term and the sums over the blocks before
    # the one holding step n. It lives in row n + 1 of the history, which
    # step n reads last and then overwrites with f_{n+1}. f_0 is read from
    # hist[0, 0], as float64 whatever type rhs returned (a long double too).
    acc = hist[1:]
    acc[:] = y0
    for i in range(d):
        acc[:, 1, i] += hq2[i] * hist[0, 0, i] * first_panel_weights(q[i], np.arange(n_steps))

    # A history near the largest float overflows in the FFT before any state
    # is non-finite; the inf or NaN then reaches the next predictor, whose
    # check ends the run. The rhs calls stay under the caller's error state.
    @np.errstate(over="ignore", invalid="ignore")
    def tiles(n):
        # Tile of `size` source steps before n onto the outputs [n, stop).
        # Output n + o needs lags up to size + o, so an FFT of length
        # size + (stop - n) convolves without wrapping around.
        size = (n // BLOCK & -(n // BLOCK)) * BLOCK
        stop = min(n + size, n_steps)
        length = size + stop - n
        spec = spectra.pop(length, None)
        if spec is None:
            spec = np.fft.rfft(kernel(length), axis=0)
        if n + 3 * size <= n_steps:  # the next tile of this size, at n + 2*size, is as long
            spectra[length] = spec
        group = max(1, min(d, TILE_BUDGET // length))
        for lo in range(0, d, group):
            comps = slice(lo, lo + group)
            tile = np.fft.rfft(hist[n - size : n, :, comps], length, axis=0)
            for j, c in enumerate(col[comps]):
                tile[:, :, j] *= spec[:, :, c]
            acc[n:stop, :, comps] += np.fft.irfft(tile, length, axis=0)[size:]

    loop = _step_loop(d)
    return states, *loop(rhs, h, n_steps, tiles, flat, states, weights, products, sums, scale)
