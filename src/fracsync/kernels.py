"""Integration kernels for the fractional predictor-corrector scheme.

`abm_python` is the one integration driver, written in numpy. It runs
any Python right-hand side under one contract (`systems.SystemDef`): rhs
gets a new list of the d state components as Python floats and returns d
components, so the step's field calls, finiteness checks and corrector
run on floats, with no array round trip. Its history sums are FFT-tiled (see
`abm_python`), so N full-memory steps cost O(N log^2 N) instead of the
O(N^2) of direct summation, and they match direct summation to rounding
error: the test suite pins the states to 1e-12 of an independent
direct-sum integrator. None of its sums go through BLAS, so results do
not depend on the BLAS thread count. Each step's pending sums live in the
history row that the step fills next, so N steps of a d-dimensional
system hold (N + 1) * d floats of states and (N + 1) * 2d of history. The
FFT tiles add little to that: the weight kernel has one column pair per
distinct order, which every component of that order reads through a
column index, and a long tile is transformed a few components at a time,
so that no tile array is (length, 2d) wide. The per-step near sums write
into scratch that each call builds once, a (BLOCK + 1, 2d) product buffer
and a 2d-float `sums` vector, so a step allocates no array for them. That
adds (BLOCK + 1) * 2d + 2d floats and 2 * BLOCK views of them, about 20 kB
at d = 3 whatever N is; being local to the call, the scratch keeps a
nested integration inside an rhs from touching the outer one's sums.
``benchmarks/benchmark_kernels.py`` times the driver and records its peak
memory.

The scheme discretizes the componentwise Caputo initial value problem
D^q_i y_i = f_i(t, y) on the uniform grid t_j = j*h. With the history
f_0 .. f_n known, component i of order q advances by

    predict:  y0 + h^q / Gamma(q+1) * sum_j b[n-j] * f_j
    correct:  y0 + h^q / Gamma(q+2) * (f(t_{n+1}, predicted)
                                       + a0(n) * f_0
                                       + sum_{j>=1} a[n-j] * f_j)

where the weights depend only on the distance k = n - j:

    b[k]  = (k+1)^q - k^q
    a[k]  = (k+2)^(q+1) + k^(q+1) - 2*(k+1)^(q+1)
    a0(n) = n^(q+1) - (n-q)*(n+1)^q

All three are differences of nearly equal powers, so they are evaluated
in cancellation-safe form through expm1/log1p. Every sum runs over the
whole history, j = 0 .. n.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import InvalidInput

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
    difference of `_power_steps` at p, so no large powers cancel.
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


def _first_nonfinite(values) -> int:
    """Index of the first non-finite number in `values`, which holds one."""
    return [math.isfinite(v) for v in values].index(False)


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


def abm_python(rhs, q, y0, h, n_steps):
    """Integrate with the predictor-corrector loop in plain numpy.

    The history sums are split at block boundaries (Hairer, Lubich &
    Schlichte 1985). The part from the current block of BLOCK steps is
    summed directly at every step. When block boundary M is reached, with
    2^k the largest power of two dividing M, the field samples of blocks
    [M - 2^k, M) are convolved by FFT with the weights at lags up to
    2^(k+1)*BLOCK, and the results are held for the steps of blocks
    [M, M + 2^k); a tile reaching past the last step is cut short. Every
    (source, output) block pair below the diagonal is covered by exactly
    one such tile, so the sums equal the direct ones up to rounding at
    O(N log^2 N) cost.

    The weights depend only on the order, so the kernel has one column
    pair per distinct order, built from the first component of that
    order, and component i reads column col[i]: one column when every
    order is equal, three for a coupled run that repeats three orders on
    master and slave. The cached kernel spectra are that narrow too; the
    near sums and every tile product read them through col. A tile of FFT
    length L runs over groups of TILE_BUDGET // L components (at least
    one, at most d), so its transforms of length L are never 2d columns
    wide when L is large. Every column is transformed on its own either
    way, so the grouping leaves every state bit for bit as it is.

    Row j of the history holds (f_j, f_j) once step j - 1 is done. Until
    then it holds the pending sums of step j - 1: y0, the a0 term and the
    far tiles, to which the tiles add as they are computed. Step n reads
    rows n - r .. n + 1, with r = n % BLOCK, in one weighted sum whose
    weight on row n + 1 is one, and then overwrites row n + 1 with
    f_{n+1}. History and pending sums therefore share (N + 1) * 2d floats.
    The rows are added in order, so the sum is the near sum plus the
    pending sums to the last bit.

    The near sums run in scratch built once per call: for each r, the
    weight view near[BLOCK - 1 - r:] and the first r + 2 rows of one
    (BLOCK + 1, 2d) product buffer, and one `sums` array of 2d floats whose
    halves are the predictor and the corrector sums. Each step multiplies
    into the product view and reduces into `sums` with `out=`, the same
    operations in the same order as fresh arrays. The scratch adds
    (BLOCK + 1) * 2d + 2d floats and the 2 * BLOCK views; no step allocates
    an array for its near sums.

    The rest of a step runs on Python floats. `sums.tolist()` is taken
    once: its first half is the predictor, checked with math.isfinite and
    handed to rhs as a new list; the corrector is formed as
    corr_i + hq2_i * float(f_i), the same IEEE operations in the same
    order as the array form, checked, written to the states and handed to
    the second rhs call. Reading each returned component as a float keeps
    numpy scalars, float32 ones included, out of the corrector, so rhs gets
    floats at both calls and never an array the driver reuses.

    Parameters
    ----------
    rhs : callable
        rhs(t, y) with y a list of d floats, returning d components (a
        tuple, a list or any real 1-D array). A first value that is not
        real numbers of y0's shape raises InvalidInput naming rhs before
        any step is taken, and a later one of another length raises
        InvalidInput.
    q, y0 : ndarray
        Orders and initial state, shape (d,).
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
    q = np.asarray(q, dtype=np.float64)
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
    multiply, reduce, isfinite = np.multiply, np.add.reduce, math.isfinite
    add, mul = operator.add, operator.mul

    y0 = np.asarray(y0, dtype=np.float64)
    states = np.empty((n_steps + 1, d))
    states[0] = y0
    # The first value is checked once, for its type and shape; a NaN or an
    # infinity in it is left to step 1, like any later non-finite value.
    value = rhs(0.0, y0.tolist())
    try:
        f0 = np.asarray(value)
    except ValueError:  # ragged nesting
        f0 = np.asarray(None)
    if f0.dtype.kind not in "iuf":
        raise InvalidInput(f"rhs must return real numbers, got {value!r}")
    if f0.shape != y0.shape:
        raise InvalidInput(f"rhs returned shape {f0.shape} for a state of shape {y0.shape}")
    f0 = f0.astype(np.float64)
    # hist[j] = (f_j, f_j), except that the corrector half of row 0 is zero:
    # the corrector weighs f_0 with a0(n), not with the kernel.
    hist = np.empty((n_steps + 1, 2, d))
    hist[0, 0] = f0
    hist[0, 1] = 0.0
    flat = hist.reshape(n_steps + 1, 2 * d)
    # acc[n] collects y0, the a0(n) term and the sums over the blocks before
    # the one holding step n. It lives in row n + 1 of the history, which
    # step n reads last and then overwrites with f_{n+1}.
    acc = hist[1:]
    acc[:] = y0
    for i in range(d):
        acc[:, 1, i] += hq2[i] * f0[i] * first_panel_weights(q[i], np.arange(n_steps))

    for n in range(n_steps):
        r = n % BLOCK
        if r == 0 and n:
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
        # Rows f_{n-r} .. f_n, then acc[n], added in order.
        product = products[r]
        multiply(weights[r], flat[n - r : n + 2], out=product)
        reduce(product, axis=0, out=sums)
        s = sums.tolist()
        pred = s[:d]
        if not all(map(isfinite, pred)):
            return states, n + 1, _first_nonfinite(pred)
        t1 = (n + 1) * h
        f = rhs(t1, pred)
        if len(f) != d:
            raise InvalidInput(f"rhs returned {len(f)} components for a state of {d}")
        new = list(map(add, s[d:], map(mul, scale, map(float, f))))  # corr + hq2 * f
        if not all(map(isfinite, new)):
            return states, n + 1, _first_nonfinite(new)
        states[n + 1] = new
        if n + 1 < n_steps:  # no sum reads f at the last grid point
            f = rhs(t1, new)
            if len(f) != d:
                raise InvalidInput(f"rhs returned {len(f)} components for a state of {d}")
            hist[n + 1] = f
    return states, -1, -1
