"""Integration kernels for the fractional predictor-corrector scheme.

`abm_python` is the one integration driver, written in numpy. It runs
any Python right-hand side. Its history sums are FFT-tiled (see
`abm_python`), so N full-memory steps cost O(N log^2 N) instead of the
O(N^2) of direct summation, and they match direct summation to rounding
error: the test suite pins the states to 1e-12 of an independent
direct-sum integrator. None of its sums go through BLAS, so results do
not depend on the BLAS thread count. Each step's pending sums live in the
history row that the step fills next, so N steps of a d-dimensional
system hold (N + 1) * d floats of states and (N + 1) * 2d of history, plus
the FFT tiles. ``benchmarks/benchmark_kernels.py`` times it and records
its peak memory.

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
in cancellation-safe form through expm1/log1p. A finite memory window w
restricts every history sum to j >= n+1-w; the a0 term participates only
while j = 0 is still inside the window.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Weight kernels, shared by the public weight functions and the driver.
# ---------------------------------------------------------------------------


def conv_weights_b(q: float, count: int) -> np.ndarray:
    """Predictor weight kernel b[k] = (k+1)^q - k^q for k = 0 .. count-1.

    Parameters
    ----------
    q : float
        Derivative order, 0 < q <= 1.
    count : int
        Number of kernel values to produce.

    Returns
    -------
    ndarray
        Shape (count,). b[0] is exactly 1.
    """
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


def conv_weights_a(q: float, count: int) -> np.ndarray:
    """Interior corrector weight kernel a[k] for k = 0 .. count-1.

    a[k] = (k+2)^p + k^p - 2*(k+1)^p with p = q+1, computed as the first
    difference of g(k) = (k+1)^p - k^p so no large powers cancel.
    """
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


def first_panel_weight(q: float, n: int) -> float:
    """Corrector weight of the j = 0 sample when advancing from step n.

    Equals n^(q+1) - (n-q)*(n+1)^q, evaluated as
    (n+1)^q * (q + n*expm1(q*log1p(-1/(n+1)))) to avoid cancellation.
    """
    return float(first_panel_weights(q, np.array([n]))[0])


def first_panel_weights(q: float, steps) -> np.ndarray:
    """`first_panel_weight` for every step index in the integer array `steps`."""
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


def abm_python(rhs, q, y0, h, n_steps, window):
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
    O(N log^2 N) cost. A memory window only zeroes the weights at lags
    >= window.

    Row j of the history holds (f_j, f_j) once step j - 1 is done. Until
    then it holds the pending sums of step j - 1: y0, the a0 term and the
    far tiles, to which the tiles add as they are computed. Step n reads
    rows n - r .. n + 1, with r = n % BLOCK, in one weighted sum whose
    weight on row n + 1 is one, and then overwrites row n + 1 with
    f_{n+1}. History and pending sums therefore share (N + 1) * 2d floats.
    The rows are added in order, so the sum is the near sum plus the
    pending sums to the last bit.

    Parameters
    ----------
    rhs : callable
        rhs(t, y) -> ndarray of shape (d,).
    q, y0 : ndarray
        Orders and initial state, shape (d,).
    h : float
        Step size.
    n_steps, window : int
        Step count and history window.

    Returns
    -------
    (ndarray, int)
        States of shape (n_steps + 1, d) and the failing grid index,
        -1 when every state stayed finite.
    """
    q = np.asarray(q, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    d = y0.shape[0]
    klen = max(1, min(window, n_steps))
    hq1 = h**q / np.array([math.gamma(v + 1.0) for v in q])
    hq2 = h**q / np.array([math.gamma(v + 2.0) for v in q])

    def kernel(count):
        # Row l holds the scaled weights at lag l: hq1*b[l] for the predictor
        # in columns [0, d), hq2*a[l] for the corrector in [d, 2d). Lags at
        # or beyond the window stay zero.
        out = np.zeros((count, 2 * d))
        m = min(count, klen)
        for i in range(d):
            out[:m, i] = hq1[i] * conv_weights_b(q[i], m)
            out[:m, d + i] = hq2[i] * conv_weights_a(q[i], m)
        return out

    # near[BLOCK - 1 - l] holds lag l; the row of ones after lag 0 adds acc[n].
    near = np.concatenate([kernel(BLOCK)[::-1], np.ones((1, 2 * d))])
    spectra = {}  # FFT length -> spectrum of kernel(length), kept while a later tile needs it

    states = np.empty((n_steps + 1, d))
    states[0] = y0
    f0 = np.asarray(rhs(0.0, y0), dtype=np.float64)
    # hist[j] = (f_j, f_j), except that the corrector half of row 0 is zero:
    # the corrector weighs f_0 with a0(n), not with the kernel.
    hist = np.empty((n_steps + 1, 2, d))
    hist[0, 0] = f0
    hist[0, 1] = 0.0
    flat = hist.reshape(n_steps + 1, 2 * d)
    # acc[n] collects y0, the a0(n) term and the sums over the blocks before
    # the one holding step n. It lives in row n + 1 of the history, which
    # step n reads last and then overwrites with f_{n+1}.
    acc = flat[1:]
    acc[:, :d] = y0
    acc[:, d:] = y0
    for i in range(d):
        acc[:klen, d + i] += hq2[i] * f0[i] * first_panel_weights(q[i], np.arange(klen))

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
            tile = np.fft.rfft(flat[n - size : n], length, axis=0)
            tile *= spec
            del spec  # an uncached spectrum is freed before the inverse transform
            acc[n:stop] += np.fft.irfft(tile, length, axis=0)[size:]
        # Rows f_{n-r} .. f_n, then acc[n], added in order.
        sums = np.add.reduce(near[BLOCK - 1 - r :] * flat[n - r : n + 2], axis=0)
        pred = sums[:d]
        if not all(map(math.isfinite, pred.tolist())):
            return states, n + 1
        t1 = (n + 1) * h
        new = states[n + 1]
        np.multiply(hq2, rhs(t1, pred), out=new)
        np.add(sums[d:], new, out=new)
        if not all(map(math.isfinite, new.tolist())):
            return states, n + 1
        hist[n + 1] = rhs(t1, new)
    return states, -1


def classical_pece(rhs, y0, h, n_steps):
    """First-order predictor-corrector (Euler predict, trapezoid correct).

    Written in the same global-sum arrangement the fractional loop
    reduces to at q = 1, so the two agree to rounding error there:

        predict:  y0 + h * sum_{j<=n} f_j
        correct:  y0 + h * (sum_{j<=n} f_j - f_0/2 + f(t_{n+1}, predicted)/2)

    Returns states of shape (n_steps + 1, d) and the failing grid index,
    -1 when every state stayed finite; like `abm_python`, it stops at the
    first non-finite predictor or corrector.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    d = y0.shape[0]
    states = np.empty((n_steps + 1, d))
    states[0] = y0
    f0 = np.asarray(rhs(0.0, y0), dtype=np.float64)
    sf = f0.copy()
    for n in range(n_steps):
        t1 = (n + 1) * h
        pred = y0 + h * sf
        if not all(map(math.isfinite, pred.tolist())):
            return states, n + 1
        fp = np.asarray(rhs(t1, pred), dtype=np.float64)
        new = y0 + h * (sf - 0.5 * f0 + 0.5 * fp)
        states[n + 1] = new
        if not all(map(math.isfinite, new.tolist())):
            return states, n + 1
        sf = sf + np.asarray(rhs(t1, new), dtype=np.float64)
    return states, -1

