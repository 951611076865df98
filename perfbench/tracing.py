"""Spans around calls into fracsync's modules, recorded from outside the package.

`instrument` replaces selected module attributes with timing wrappers,
in every fracsync module that binds them, so a call made through a
`from .x import y` name is traced too. The wrapper around
`solver.integrate` also swaps the system's `rhs` for a timed copy and
counts steps and history-sum work. Nothing under `src/` is edited, and
`restore` puts every original back.

A span is (name, start, end, parent). Self time is a span's duration
minus the durations of its direct children, so the self times of all
spans in a repetition, plus the root's self time (the time no program
span covers), add up to the repetition's wall time. The right-hand side
and control law run twice per step; they are "leaf" spans, kept as
per-parent call counts and totals instead of one record per call.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time

from deadline import Overrun

ROOT = "bench.rep"

# (module, attribute, span name). A target missing from the package is
# reported as absent and its metrics read zero.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "_write_csv", "cli.write"),
    ("cli", "_write_report", "cli.write"),
    ("experiments", "run_simulation", "experiments"),
    ("experiments", "run_synchronization", "experiments"),
    ("experiments", "convergence_selftest", "experiments"),
    ("experiments", "build_system", "experiments"),
    ("experiments", "closed_loop_matrix", "experiments"),
    ("solver", "integrate", "solver.integrate"),
    ("kernels", "abm_python", "kernels.loop"),
    ("kernels", "conv_weights_a", "kernels.weights"),
    ("kernels", "conv_weights_b", "kernels.weights"),
    ("analysis", "mittag_leffler", "analysis.ml"),
    ("analysis", "predicted_error", "analysis.predicted_error"),
    ("analysis", "convergence_order", "analysis.convergence"),
    ("analysis", "sync_time", "analysis.sync_time"),
    ("analysis", "divergence_factor", "analysis.divergence"),
    ("control", "matignon_check", "control.spectrum"),
    ("control", "chaos_threshold", "control.spectrum"),
)
LEAVES = (
    ("control", "control_input", "control.control"),
    ("control", "control_exact", "control.control"),
    ("control", "control_literal", "control.control"),
)
RHS = "systems.rhs"

# Each history-sum term reads one weight and one stored field value.
BYTES_PER_MADD = 16


def history_madds(dimension: int, n_steps: int, memory) -> int:
    """Multiply-adds of the direct history sums over one integration.

    Advancing from step n, the predictor and the corrector each sum
    min(n + 1, w) terms per component, w being the memory window.
    """
    w = n_steps + 1 if memory is None else memory
    m = min(n_steps, w)
    return 2 * dimension * (m * (m + 1) // 2 + (n_steps - m) * w)


class _Frame:
    __slots__ = ("name", "leaf", "rec", "t0", "child")

    def __init__(self, name, leaf, rec, t0):
        self.name = name
        self.leaf = leaf
        self.rec = rec
        self.t0 = t0
        self.child = 0.0


class Tracer:
    """In-memory span recorder. One root span per timed repetition."""

    def __init__(self):
        self.records = []  # [name, start, end, parent record, self_s, leaves]
        self.stack = []
        self.totals = {}  # span name -> [calls, self_s, max_s, overruns]
        self.counts = {}

    def start(self, t0: float) -> None:
        self.totals = {}
        self.counts = {}
        self.stack = [_Frame(ROOT, False, len(self.records), t0)]
        self.records.append([ROOT, t0, t0, None, 0.0, None])

    def stop(self, t1: float) -> float:
        """Close the root at t1 and return the time no program span covers."""
        root = self.stack[0]
        if len(self.stack) > 1:  # a deadline fired inside a wrapper's own exit
            self._close(self.stack[1], t1, 0)
        self.stack.pop()
        unattributed = (t1 - root.t0) - root.child
        rec = self.records[root.rec]
        rec[2], rec[4] = t1, unattributed
        return unattributed

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _close(self, frame, t1, overrun):
        if frame not in self.stack:
            return
        while self.stack[-1] is not frame:  # left open by a deadline in its exit path
            self._close(self.stack[-1], t1, 0)
        self.stack.pop()
        dur = t1 - frame.t0
        own = dur - frame.child
        self.stack[-1].child += dur
        tot = self.totals.setdefault(frame.name, [0, 0.0, 0.0, 0])
        tot[0] += 1
        tot[1] += own
        tot[2] = max(tot[2], dur)
        tot[3] += overrun
        rec = self.records[frame.rec]
        if frame.leaf:
            if rec[5] is None:
                rec[5] = {}
            agg = rec[5].setdefault(frame.name, [0, 0.0])
            agg[0] += 1
            agg[1] += own
        else:
            rec[1], rec[2], rec[4] = frame.t0, t1, own

    def wrap(self, fn, name, leaf=False, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not stack or stack[-1].name == name:
                return fn(*args, **kwargs)
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            if leaf:
                rec = stack[-1].rec
            else:
                rec = len(tracer.records)
                tracer.records.append([name, 0.0, 0.0, stack[-1].rec, 0.0, None])
            frame = _Frame(name, leaf, rec, time.perf_counter())
            stack.append(frame)
            overrun = 0
            try:
                return fn(*args, **kwargs)
            except Overrun:
                overrun = 1
                raise
            finally:
                tracer._close(frame, time.perf_counter(), overrun)

        return traced

    def spans(self) -> list:
        """Every recorded span as a dict, for writing out."""
        return [
            {"name": r[0], "start": r[1], "end": r[2], "parent": r[3], "self_s": r[4],
             "leaves": r[5]}
            for r in self.records
        ]


def _integrate_hook(tracer, fn):
    """Count steps and history work, and time the system's rhs, per integrate call."""
    sig = inspect.signature(fn)
    if not {"system", "config"} <= set(sig.parameters):
        return None

    def hook(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        system = bound.arguments["system"]
        config = bound.arguments["config"]
        tracer.count("solver.steps", config.n_steps)
        tracer.count(
            "kernels.history_madds",
            history_madds(system.dimension, config.n_steps, config.memory),
        )
        if dataclasses.is_dataclass(system):
            bound.arguments["system"] = dataclasses.replace(
                system, rhs=tracer.wrap(system.rhs, RHS, leaf=True)
            )
        return bound.args, bound.kwargs

    return hook


def instrument(tracer: Tracer):
    """Install the wrappers; return (restore, names of absent targets)."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fracsync"]
    patched = []
    absent = []
    targets = [(m, a, s, False) for m, a, s in SPANS] + [(m, a, s, True) for m, a, s in LEAVES]
    for modname, attr, span, leaf in targets:
        mod = sys.modules.get(f"fracsync.{modname}")
        orig = getattr(mod, attr, None)
        if orig is None:
            absent.append(f"{modname}.{attr}")
            continue
        hook = _integrate_hook(tracer, orig) if span == "solver.integrate" else None
        wrapper = tracer.wrap(orig, span, leaf=leaf, hook=hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)
                    patched.append((m, key, orig))

    def restore():
        for m, key, orig in reversed(patched):
            setattr(m, key, orig)

    return restore, absent


def layer_metrics(tracer: Tracer, unattributed: float) -> dict:
    """Per-layer numbers of one traced repetition, by metric name."""
    tot = tracer.totals

    def calls(name):
        return tot.get(name, [0])[0]

    def own(name):
        return tot.get(name, [0, 0.0])[1]

    steps = tracer.counts.get("solver.steps", 0)
    madds = tracer.counts.get("kernels.history_madds", 0)
    rhs_calls = calls(RHS)
    ml = tot.get("analysis.ml", [0, 0.0, 0.0, 0])
    return {
        "kernels.loop_self_s": own("kernels.loop"),
        "kernels.step_us": own("kernels.loop") / steps * 1e6 if steps else 0.0,
        "kernels.history_madds": madds,
        "kernels.history_bytes": BYTES_PER_MADD * madds,
        "kernels.weights_s": own("kernels.weights"),
        "systems.rhs_calls": rhs_calls,
        "systems.rhs_s": own(RHS),
        "systems.rhs_us": own(RHS) / rhs_calls * 1e6 if rhs_calls else 0.0,
        "control.control_calls": calls("control.control"),
        "control.control_s": own("control.control"),
        "cli.write_s": own("cli.write"),
        "cli.self_s": own("cli.main"),
        "solver.calls": calls("solver.integrate"),
        "solver.steps": steps,
        "solver.self_s": own("solver.integrate"),
        "experiments.self_s": own("experiments"),
        "analysis.ml_calls": ml[0],
        "analysis.ml_s": ml[1],
        "analysis.ml_max_s": ml[2],
        "analysis.ml_timeouts": ml[3],
        "analysis.sync_time_s": own("analysis.sync_time"),
        "analysis.divergence_s": own("analysis.divergence"),
        "control.spectrum_calls": calls("control.spectrum"),
        "control.spectrum_s": own("control.spectrum"),
        "trace.unattributed_s": unattributed,
    }
