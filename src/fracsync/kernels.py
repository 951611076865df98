"""Integration kernels for the fractional predictor-corrector scheme.

`abm_python` is the numpy driver. It runs any Python right-hand side and
is the path every integration takes when numba is not installed. Its
history sums are FFT-tiled (see `abm_python`), so N full-memory steps
cost O(N log^2 N) instead of the O(N^2) of direct summation, and they
match direct summation to rounding error: the test suite pins the states
to 1e-12 of an independent direct-sum integrator. None of its sums go
through BLAS, so results do not depend on the BLAS thread count.

When numba is importable, the built-in vector fields can instead run
`_abm_jit`, a compiled loop with direct O(N^2) sums, dispatched by a small
integer system id so one compiled kernel serves every named system. Set
``FRACSYNC_NO_NUMBA=1`` before import to force the numpy driver
everywhere; ``benchmarks/benchmark_kernels.py`` times the drivers.

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
import os

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def _env_disabled() -> bool:
    return os.environ.get("FRACSYNC_NO_NUMBA", "").strip().lower() in {"1", "true", "yes", "on"}


# Resolved once at import; flipping the environment variable afterwards has no effect.
NUMBA_ENABLED = NUMBA_AVAILABLE and not _env_disabled()

# System ids understood by the compiled right-hand-side dispatcher.
SYS_FINANCIAL = 0
SYS_VOLTA = 1
SYS_COUPLED_EXACT = 2
SYS_COUPLED_LITERAL = 3


# ---------------------------------------------------------------------------
# Weight kernels, numpy side. Shared by the public weight functions and the
# numpy driver; the jit kernel below recomputes the same quantities with
# scalar arithmetic.
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
# Compiled path.
# ---------------------------------------------------------------------------


@njit(cache=True, inline="always")
def _rhs_named(sys_id, p, y, out):
    """Evaluate the built-in vector field `sys_id` at state y into out.

    Parameter packing per id:
      SYS_FINANCIAL        p = (alpha, beta, gamma)
      SYS_VOLTA            p = (a, b, c)
      SYS_COUPLED_EXACT    p = (alpha, beta, gamma, a, b, c, l1, l2, l3)
      SYS_COUPLED_LITERAL  p = (alpha, beta, gamma, a, b, c, A row-major, 9 values)
    Coupled states are (master, slave) concatenated, length 6.
    """
    if sys_id == 0:
        out[0] = y[2] + (y[1] - p[0]) * y[0]
        out[1] = 1.0 - p[1] * y[1] - y[0] * y[0]
        out[2] = -y[0] - p[2] * y[2]
    elif sys_id == 1:
        out[0] = -y[0] - p[0] * y[1] - y[2] * y[1]
        out[1] = -y[1] - p[1] * y[0] - y[0] * y[2]
        out[2] = p[2] * y[2] + y[0] * y[1] + 1.0
    else:
        alpha = p[0]
        beta = p[1]
        gamma = p[2]
        a = p[3]
        b = p[4]
        c = p[5]
        x1 = y[0]
        y1 = y[1]
        z1 = y[2]
        x2 = y[3]
        y2 = y[4]
        z2 = y[5]
        fm0 = z1 + (y1 - alpha) * x1
        fm1 = 1.0 - beta * y1 - x1 * x1
        fm2 = -x1 - gamma * z1
        gs0 = -x2 - a * y2 - z2 * y2
        gs1 = -y2 - b * x2 - x2 * z2
        gs2 = c * z2 + x2 * y2 + 1.0
        e0 = x2 - x1
        e1 = y2 - y1
        e2 = z2 - z1
        if sys_id == 2:
            u0 = fm0 - gs0 + p[6] * e0
            u1 = fm1 - gs1 + p[7] * e1
            u2 = fm2 - gs2 + p[8] * e2
        else:
            v0 = p[6] * e0 + p[7] * e1 + p[8] * e2
            v1 = p[9] * e0 + p[10] * e1 + p[11] * e2
            v2 = p[12] * e0 + p[13] * e1 + p[14] * e2
            u0 = -(alpha - 1.0) * x1 + (x1 + a) * y1 + (1.0 + y2) + v0
            u1 = -(beta - 1.0) * y1 + (b - x1) * x1 + x2 * z2 + 1.0 + v1
            u2 = -(y2 + 1.0) * x2 - (c + gamma) * z1 - 1.0 + v2
        out[0] = fm0
        out[1] = fm1
        out[2] = fm2
        out[3] = gs0 + u0
        out[4] = gs1 + u1
        out[5] = gs2 + u2


@njit(cache=True)
def _abm_jit(sys_id, params, q, y0, h, n_steps, window, states, fhist):
    """Run the predictor-corrector loop for a built-in system.

    Parameters
    ----------
    sys_id : int
        Vector field selector for `_rhs_named`.
    params : ndarray
        Packed parameters for that field.
    q : ndarray
        Per-component orders, shape (d,).
    y0 : ndarray
        Initial state, shape (d,).
    h : float
        Step size.
    n_steps : int
        Number of steps; the grid has n_steps + 1 points.
    window : int
        History window; n_steps + 1 or larger keeps everything.
    states : ndarray
        Output, shape (n_steps + 1, d).
    fhist : ndarray
        Work storage for field samples, shape (d, n_steps + 1).

    Returns
    -------
    int
        -1 on success, else the grid index whose state came out non-finite.
    """
    d = y0.shape[0]
    klen = window if window < n_steps else n_steps
    if klen < 1:
        klen = 1

    kb = np.empty((d, klen))
    ka = np.empty((d, klen))
    hq1 = np.empty(d)
    hq2 = np.empty(d)
    for i in range(d):
        qi = q[i]
        hq1[i] = h**qi / math.gamma(qi + 1.0)
        hq2[i] = h**qi / math.gamma(qi + 2.0)
        if qi == 1.0:
            for k in range(klen):
                kb[i, k] = 1.0
                ka[i, k] = 2.0
        else:
            p1 = qi + 1.0
            kb[i, 0] = 1.0
            gprev = 1.0
            for k in range(klen):
                if k >= 1:
                    kb[i, k] = k**qi * math.expm1(qi * math.log1p(1.0 / k))
                kk = k + 1.0
                gnext = kk**p1 * math.expm1(p1 * math.log1p(1.0 / kk))
                ka[i, k] = gnext - gprev
                gprev = gnext

    yw = np.empty(d)
    fw = np.empty(d)
    pred = np.empty(d)
    for i in range(d):
        states[0, i] = y0[i]
        yw[i] = y0[i]
    _rhs_named(sys_id, params, yw, fw)
    for i in range(d):
        fhist[i, 0] = fw[i]

    for n in range(n_steps):
        j0 = n + 1 - window
        if j0 < 0:
            j0 = 0
        ok = True
        for i in range(d):
            acc = 0.0
            for j in range(j0, n + 1):
                acc += kb[i, n - j] * fhist[i, j]
            pred[i] = y0[i] + hq1[i] * acc
            if not math.isfinite(pred[i]):
                ok = False
        if not ok:
            return n + 1
        _rhs_named(sys_id, params, pred, fw)
        for i in range(d):
            qi = q[i]
            acc = 0.0
            jlo = j0 if j0 > 1 else 1
            for j in range(jlo, n + 1):
                acc += ka[i, n - j] * fhist[i, j]
            if j0 == 0:
                if qi == 1.0:
                    a0 = 1.0
                elif n == 0:
                    a0 = qi
                else:
                    nn = float(n)
                    a0 = (nn + 1.0) ** qi * (
                        qi + nn * math.expm1(qi * math.log1p(-1.0 / (nn + 1.0)))
                    )
                acc += a0 * fhist[i, 0]
            val = y0[i] + hq2[i] * (fw[i] + acc)
            if not math.isfinite(val):
                ok = False
            states[n + 1, i] = val
        if not ok:
            return n + 1
        for i in range(d):
            yw[i] = states[n + 1, i]
        _rhs_named(sys_id, params, yw, fw)
        for i in range(d):
            fhist[i, n + 1] = fw[i]
    return -1


def abm_named(sys_id, params, q, y0, h, n_steps, window):
    """Integrate a built-in system on the compiled path.

    Returns (states, fail_step) where fail_step is -1 on success.
    """
    q = np.ascontiguousarray(q, dtype=np.float64)
    y0 = np.ascontiguousarray(y0, dtype=np.float64)
    params = np.ascontiguousarray(params, dtype=np.float64)
    d = y0.shape[0]
    states = np.empty((n_steps + 1, d))
    fhist = np.empty((d, n_steps + 1))
    fail = _abm_jit(sys_id, params, q, y0, float(h), int(n_steps), int(window), states, fhist)
    return states, int(fail)


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

    near = kernel(BLOCK)[::-1].copy()  # near[BLOCK - 1 - l] holds lag l
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
    # the one holding step n.
    acc = np.empty((n_steps, 2 * d))
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
        sums = acc[n] + (near[BLOCK - 1 - r :] * flat[n - r : n + 1]).sum(axis=0)
        pred = sums[:d]
        if not all(map(math.isfinite, pred.tolist())):
            return states, n + 1
        t1 = (n + 1) * h
        new = sums[d:] + hq2 * rhs(t1, pred)
        states[n + 1] = new
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

    Returns states of shape (n_steps + 1, d).
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
        fp = np.asarray(rhs(t1, pred), dtype=np.float64)
        new = y0 + h * (sf - 0.5 * f0 + 0.5 * fp)
        states[n + 1] = new
        sf = sf + np.asarray(rhs(t1, new), dtype=np.float64)
    return states


def warmup():
    """Trigger jit compilation with a tiny run; no effect on the numpy path."""
    if not NUMBA_ENABLED:
        return
    p = np.array([1.0, 0.1, 1.0])
    q = np.array([0.9, 0.9, 0.9])
    y0 = np.array([1.0, 0.0, 0.0])
    abm_named(SYS_FINANCIAL, p, q, y0, 0.01, 2, 3)
