"""The benchmark's workloads: inputs made from a seed, timed operations, output gates.

simulate-full   `fracsync simulate`, financial system, q = 0.99, full memory:
                the O(N^2) history sums dominate.
analysis-sweep  library calls with no long integration: Mittag-Leffler over
                the documented domain q in (0, 1], z in [-30, 0], each call
                under a deadline; the argument criterion over an order sweep;
                the convergence self test; a divergence pair; a short
                synchronization checked against the predicted error.

A repetition is a list of operations. An operation fails when it overruns
its deadline, raises a FracsyncError, or returns an output that fails its
gate; a gate also fails when an output differs from the first repetition
of the same seed. The seed only jitters inputs inside ranges that keep
every run finite, so each seed costs the same work.

A Mittag-Leffler call overruns when it needs more than ML_EVENTS
interpreter events (deadline.within_events), counted once per run in the
untimed warm-up. Its wall time varies with the host's speed, so a
wall-clock verdict would flip from run to run for the many grid points
that take about as long as any deadline; the count does not. Calls that
finish within the count take under 0.25 s while counted, so a call still
counting after ML_COUNT_S overruns too: the series that hang in big-number
arithmetic make few events per second. In the timed repetitions an
overrunning call still runs, cut off after ML_DEADLINE seconds, so that it
costs what a wall-clock deadline would.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

import deadline
import fracsync
from fracsync import analysis, cli, control, experiments, systems
from fracsync.errors import FracsyncError

H = 0.0005
Q = 0.99
FINANCIAL = {"alpha": 1.0, "beta": 0.1, "gamma": 1.0}
VOLTA = {"a": 19.0, "b": 11.0, "c": 0.73}
LAM = -1.0
MASTER0 = (2.0, -1.0, 1.0)
SLAVE0 = (8.0, 2.0, 3.0)

SIZES = {
    "full": {"sim_steps": 20000, "pair_steps": 2000, "sync_short": 1000,
             "ml_stride": 1},
    "tiny": {"sim_steps": 300, "pair_steps": 100, "sync_short": 100,
             "ml_stride": 3},
}

# A run makes --seconds / REP_SECONDS repetitions, the same count on every
# commit, so that runs of one workload always do the same work.
REP_SECONDS = {"simulate-full": 3.3, "analysis-sweep": 5.5}

PREFIX = 256  # leading rows checked against the reference integrator
PARITY = 1e-10
STATE_BOUND = 1e3  # both attractors stay within about 20
ML_EVENTS = 250_000  # about 0.12 s of float64 series work on a 2-vCPU x86 host
ML_COUNT_S = 0.6  # wall-clock cap while counting; see the module docstring
ML_DEADLINE = 0.25  # wall-clock cost of an overrunning call in a timed repetition
OP_DEADLINE = 60.0
ML_TOL = 1e-7  # relative accuracy mittag_leffler documents on its domain
SYNC_PRED_TOL = 1e-3  # scheme error at h = 0.01 against the exact error decay

ML_Q = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.0)
ML_Z = (-0.5, -1.0, -2.0, -5.0, -10.0, -15.0, -20.0, -25.0, -30.0)
# Points the series evaluator is known to hang on; kept so the failures show.
KNOWN_HANGS = ((0.3, -10.0), (0.5, -30.0))
CLOSED_FORM_Q = (0.5, 1.0)

REFERENCE = Path(__file__).with_name("reference.json")
REF_STEPS = 256
REF_ROWS = list(range(16)) + list(range(16, REF_STEPS + 1, 16))


class Wrong(Exception):
    """An output failed its gate."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], object]  # digest of a correct output, else raises Wrong
    seconds: float = OP_DEADLINE
    events: int | None = None  # interpreter events allowed, see within_events
    over_budget: bool = False  # set by count_events when the call needs more


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Callable[[], list]  # untimed; returns problems found
    rep_seconds: float  # one untraced repetition on a 2-vCPU x86 host, at full size
    bytes_written: int = 0
    digests: dict = field(default_factory=dict)

    def run(self, budget_end: float) -> list:
        """The timed part: every operation once, each under its deadline."""
        results = []
        for op in self.ops:
            seconds = max(0.01, min(op.seconds, budget_end - time.perf_counter()))
            if op.over_budget:
                try:
                    deadline.call(min(seconds, ML_DEADLINE), op.call)
                except (deadline.Overrun, FracsyncError):
                    pass
                results.append(("overrun", None))
                continue
            try:
                results.append(("ok", deadline.call(seconds, op.call)))
            except deadline.Overrun:
                results.append(("overrun", None))
            except FracsyncError as exc:
                results.append(("error", f"{type(exc).__name__}: {exc}"))
        return results

    def count_events(self) -> None:
        """Decide, untimed, which operations need more events than they are allowed."""
        for op in self.ops:
            if op.events is None:
                continue
            try:
                op.over_budget = not deadline.call(
                    ML_COUNT_S, lambda: deadline.within_events(op.events, op.call))
            except deadline.Overrun:
                op.over_budget = True
            except FracsyncError:
                op.over_budget = False

    def check(self, results) -> list:
        """Gate each result; return (operation, status, note) triples."""
        out = []
        for i, (op, (status, value)) in enumerate(zip(self.ops, results)):
            note = value if status == "error" else ""
            if status == "ok":
                try:
                    digest = op.check(value)
                except Wrong as exc:
                    status, note = "wrong", str(exc)
                else:
                    if self.digests.setdefault(i, digest) != digest:
                        status, note = "wrong", "differs from the first repetition"
            out.append((op.name, status, note))
        return out


# ---------------------------------------------------------------------------
# Reference integrator and fields, written independently of fracsync.
# ---------------------------------------------------------------------------


def financial(y):
    x, v, z = y[..., 0], y[..., 1], y[..., 2]
    p = FINANCIAL
    return np.stack([z + (v - p["alpha"]) * x, 1.0 - p["beta"] * v - x * x, -x - p["gamma"] * z], -1)


def reference_abm(rhs, q, y0, h, n):
    """Full-memory predictor-corrector by direct summation, states of shape (n + 1, d)."""
    y0 = np.asarray(y0, dtype=np.float64)
    y = np.empty((n + 1, y0.size))
    f = np.empty_like(y)
    y[0] = y0
    f[0] = rhs(y0)
    c1 = h**q / math.gamma(q + 1.0)
    c2 = h**q / math.gamma(q + 2.0)
    for k in range(n):
        d = k - np.arange(k + 1, dtype=np.float64)  # distance k - j
        b = (d + 1.0) ** q - d**q
        a = (d + 2.0) ** (q + 1.0) + d ** (q + 1.0) - 2.0 * (d + 1.0) ** (q + 1.0)
        a[0] = k ** (q + 1.0) - (k - q) * (k + 1.0) ** q
        pred = y0 + c1 * (b @ f[: k + 1])
        y[k + 1] = y0 + c2 * (rhs(pred) + a @ f[: k + 1])
        f[k + 1] = rhs(y[k + 1])
    return y


def within(got, want, rel):
    return np.all(np.abs(got - want) <= rel * (1.0 + np.abs(want)))


# ---------------------------------------------------------------------------
# The CLI workload.
# ---------------------------------------------------------------------------


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _simulate_config(ic, steps):
    return {"system": "financial", "orders": Q, "h": H, "t_end": steps * H, "memory": "full",
            "initial_state": list(ic), "financial": FINANCIAL, "volta": VOLTA}


def _gate_simulate(table, report):
    if report["status"] != "ok":
        raise Wrong(f"status {report['status']}")
    if report["final_state"] != table[-1, 1:].tolist():
        raise Wrong("final_state in report.json is not the last CSV row")


def _cli_workload(name, command, header, config, oracle, gate, workdir, steps):
    out = workdir / name
    cfg_path = workdir / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    verified = set()

    def check(rc):
        if rc != 0:
            raise Wrong(f"exit code {rc}")
        report = (out / "report.json").read_bytes()
        csv = (out / "trajectory.csv").read_bytes()
        wl.bytes_written = len(report) + len(csv)
        digest = hashlib.sha256(report + csv).hexdigest()
        if digest in verified:
            return digest
        if not csv.startswith(header + b"\n"):
            raise Wrong("unexpected CSV header")
        table = np.loadtxt(io.BytesIO(csv), delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (steps + 1, header.count(b",") + 1):
            raise Wrong(f"CSV shape {table.shape}")
        states = table[:, 1 : oracle.shape[1] + 1]
        if not np.all(np.isfinite(table)) or np.max(np.abs(states)) > STATE_BOUND:
            raise Wrong("state left the finite or bounded range")
        if not np.array_equal(table[:, 0], np.arange(steps + 1) * H):
            raise Wrong("time column is not j * h")
        k = oracle.shape[0]
        if not within(states[:k], oracle, PARITY):
            worst = float(np.max(np.abs(states[:k] - oracle)))
            raise Wrong(f"prefix differs from the reference integrator by {worst:.3g}")
        gate(table, json.loads(report))
        verified.add(digest)
        return digest

    def warmup():
        return _check_seed_values(command, workdir / f"{name}-ref")

    wl = Workload(name, [Op(command, lambda: _cli(argv), check)], warmup, REP_SECONDS[name])
    return wl


def _canonical_rows(command, outdir):
    """Rows REF_ROWS of a REF_STEPS-step run on the unjittered inputs."""
    config = _simulate_config(MASTER0, REF_STEPS)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "config.json"
    path.write_text(json.dumps(config))
    rc = _cli([command, "--config", str(path), "--out", str(outdir)])
    if rc != 0:
        raise Wrong(f"{command} exited {rc} on the reference inputs")
    table = np.loadtxt(outdir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    return table[REF_ROWS]


def _check_seed_values(command, outdir):
    """Short-horizon parity with the values the seed program produced."""
    want = np.array(json.loads(REFERENCE.read_text())[command])
    try:
        got = _canonical_rows(command, outdir)
    except Wrong as exc:
        return [str(exc)]
    if got.shape != want.shape or not within(got, want, PARITY):
        return [f"{command}: reference rows differ from the committed seed values"]
    return []


def simulate_full(rng, workdir, size):
    steps = SIZES[size]["sim_steps"]
    ic = np.array(MASTER0) + rng.uniform(-0.1, 0.1, 3)
    oracle = reference_abm(financial, Q, ic, H, min(PREFIX, steps))
    return _cli_workload("simulate-full", "simulate", b"t,x,y,z", _simulate_config(ic, steps),
                         oracle, _gate_simulate, workdir, steps)


# ---------------------------------------------------------------------------
# The library workload.
# ---------------------------------------------------------------------------


def ml_reference(q, x):
    """E_q(-x) by its series in enough working digits to absorb the cancellation."""
    with mpmath.workdps(30 + int(x / math.log(10) * 2)):
        total, k, term = mpmath.mpf(0), 0, mpmath.mpf(1)
        while k < 10 or abs(term) > mpmath.mpf(10) ** (-mpmath.mp.dps + 5):
            term = (-mpmath.mpf(x)) ** k / mpmath.gamma(q * k + 1)
            total += term
            k += 1
        return float(total)


def _check_ml(q, z):
    def check(v):
        if not (math.isfinite(v) and 0.0 < v <= 1.0):
            raise Wrong(f"E_{q}({z}) = {v!r} outside (0, 1]")
        if q == 1.0:
            ref = math.exp(z)
        elif q == 0.5:
            ref = float(mpmath.exp(mpmath.mpf(z) ** 2) * mpmath.erfc(-mpmath.mpf(z)))
        else:
            return repr(v)
        if abs(v - ref) > ML_TOL * ref:
            raise Wrong(f"E_{q}({z}) = {v!r}, closed form {ref!r}")
        return repr(v)

    return check


def _check_predicted(e0, orders, t):
    def check(v):
        v = np.asarray(v)
        if abs(v[0] - e0[0] * math.exp(-t)) > ML_TOL * abs(e0[0]) * math.exp(-t):
            raise Wrong(f"predicted_error at q = 1, t = {t} is not e0 * exp(-t)")
        if np.any(np.abs(v) > np.abs(e0)) or np.any(np.sign(v) != np.sign(e0)):
            raise Wrong(f"predicted_error at t = {t} is not a decay of e0")
        return repr(v.tolist())

    return check


def _min_arg(matrix):
    return min(abs(math.atan2(z.imag, z.real)) for z in np.linalg.eigvals(matrix))


def _check_threshold(matrix):
    want = min(max(2.0 / math.pi * _min_arg(matrix), 0.0), 2.0)

    def check(v):
        if abs(v - want) > 1e-9:
            raise Wrong(f"chaos_threshold {v!r}, eigenvalues give {want!r}")
        return repr(v)

    return check


def _check_matignon(matrix, q):
    margin = _min_arg(matrix) - q * math.pi / 2.0

    def check(report):
        if abs(margin) > 1e-9 and report.satisfied != (margin > 0):
            raise Wrong(f"argument criterion verdict wrong at q = {q}")
        return repr(report.to_dict())

    return check


def _check_convergence(result):
    cases, _ = result
    for c in cases:
        if c.q in (0.8, 1.0) and not c.in_band:
            raise Wrong(f"convergence order at q = {c.q} out of band: {c.report.orders}")
    return repr([c.to_dict() for c in cases])


def _check_pair(result):
    a, b, factor = result
    for tr in (a, b):
        if not np.all(np.isfinite(tr.states)) or np.max(np.abs(tr.states)) > STATE_BOUND:
            raise Wrong("divergence pair left the bounded range")
    sep = np.linalg.norm(a.states - b.states, axis=1)
    want = float(np.max(sep) / sep[0])
    if not (factor >= 1.0 and abs(factor - want) <= 1e-12 * want):
        raise Wrong(f"divergence_factor {factor!r}, separations give {want!r}")
    return repr(factor)


def _check_sync(e0, tol, t_end):
    want_err = [e * ml_reference(Q, t_end**Q) for e in e0]

    def check(run):
        if run.blowup is not None:
            raise Wrong("short synchronization blew up")
        err = run.trajectory.errors
        above = np.flatnonzero(np.max(np.abs(err), axis=1) >= tol)
        if above.size == 0:
            want = float(run.trajectory.times[0])
        elif above[-1] == err.shape[0] - 1:
            want = None
        else:
            want = float(run.trajectory.times[above[-1] + 1])
        if run.summary.sync_time != want:
            raise Wrong(f"sync_time {run.summary.sync_time!r}, errors give {want!r}")
        if not np.allclose(err[-1], want_err, rtol=SYNC_PRED_TOL, atol=0.0):
            raise Wrong(f"final error {err[-1].tolist()} vs predicted {want_err}")
        return repr(run.summary.to_dict())

    return check


def analysis_sweep(rng, workdir, size):
    sz = SIZES[size]
    fp = systems.FinancialParams(**FINANCIAL)
    vp = systems.VoltaParams(**VOLTA)
    ops = []

    stride = sz["ml_stride"]
    points = []
    for q in ML_Q[::stride]:
        qj = q if q in CLOSED_FORM_Q else q - rng.uniform(0.0, 0.005)
        points += [(qj, z * rng.uniform(0.98, 1.0)) for z in ML_Z[::stride]]
    for q, z in points + list(KNOWN_HANGS):
        ops.append(Op(f"mittag_leffler({q:.4f}, {z:.3f})",
                      lambda q=q, z=z: analysis.mittag_leffler(q, z), _check_ml(q, z),
                      events=ML_EVENTS))

    e0 = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
    orders = (1.0, 0.9, 0.99)
    for t in (0.5, 2.0, 5.0, 10.0, 20.0):
        ops.append(Op(f"predicted_error(t={t})",
                      lambda t=t: analysis.predicted_error(e0, orders, t),
                      _check_predicted(e0, orders, t), 3 * ML_DEADLINE))

    matrices = [systems.financial_jacobian(s, fp) for s in systems.financial_equilibria(fp)]
    matrices.append(np.diag(-rng.uniform(0.5, 2.0, 3)))
    gain = control.gain_matrix_default(vp)
    matrices.append(control.closed_loop_error_matrix(gain, vp))
    matrices.append(control.closed_loop_error_matrix(gain + rng.uniform(-0.2, 0.2, (3, 3)), vp))
    sweep = np.minimum(np.linspace(0.5, 1.0, 11) + rng.uniform(-0.01, 0.01, 11), 1.0)
    for i, m in enumerate(matrices):
        ops.append(Op(f"chaos_threshold(M{i})", lambda m=m: control.chaos_threshold(m),
                      _check_threshold(m)))
        for q in sweep:
            orders_q = systems.FractionalOrders.uniform(q)
            ops.append(Op(f"matignon_check(M{i}, {q:.4f})",
                          lambda m=m, o=orders_q: control.matignon_check(m, o),
                          _check_matignon(m, q)))

    ops.append(Op("convergence_selftest", lambda: experiments.convergence_selftest(),
                  _check_convergence))

    cfg = fracsync.SolverConfig(h=0.005, n_steps=sz["pair_steps"])
    y0 = np.array(MASTER0) + rng.uniform(-0.1, 0.1, 3)
    delta = rng.normal(size=3)
    y1 = y0 + 1e-6 * delta / np.linalg.norm(delta)

    def pair():
        system = fracsync.financial_system(fp)
        a = fracsync.integrate(system, Q, y0, cfg)
        b = fracsync.integrate(system, Q, y1, cfg)
        return a, b, analysis.divergence_factor(a, b)

    ops.append(Op("divergence_factor", pair, _check_pair))

    m0 = np.array(MASTER0) + rng.uniform(-0.1, 0.1, 3)
    s0 = np.array(SLAVE0) + rng.uniform(-0.5, 0.5, 3)
    short = fracsync.SolverConfig(h=0.01, n_steps=sz["sync_short"])
    tol = 1e-3
    ops.append(Op(
        "run_synchronization",
        lambda: experiments.run_synchronization(
            fp, vp, control.ExactCancellation((LAM,) * 3), systems.FractionalOrders.uniform(Q),
            m0, s0, short, tol),
        _check_sync(s0 - m0, tol, short.n_steps * short.h),
    ))

    def warmup():
        for q, z in ((0.6, -30.0), (0.99, -30.0), (0.9, -5.0)):
            analysis.mittag_leffler(q, z)
        wl.count_events()
        return []

    wl = Workload("analysis-sweep", ops, warmup, REP_SECONDS["analysis-sweep"])
    return wl


WORKLOADS = {
    "simulate-full": simulate_full,
    "analysis-sweep": analysis_sweep,
}
