"""Self-checks of the benchmark itself. Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

1. A tiny-size smoke run of every workload, untraced and traced, with no
   wrong output and no failure outside the Mittag-Leffler grid.
2. The computed kernels.history_madds against a brute-force count that
   follows the loop bounds of the direct history sums.
3. In every traced repetition, span self times plus trace.unattributed_s
   add up to the repetition's wall time.
4. The reference integrator reproduces the committed seed values.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

import deadline  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def brute_madds(dimension, n_steps, memory):
    w = n_steps + 1 if memory is None else memory
    total = 0
    for n in range(n_steps):
        j0 = max(0, n + 1 - w)
        total += n + 1 - j0  # predictor: j0 .. n
        total += n + 1 - max(j0, 1) + (j0 == 0)  # corrector: max(j0, 1) .. n, plus the a0 term
    return dimension * total


def check_madds():
    bad = []
    for d, n, memory in [(3, 1, None), (3, 700, None), (6, 700, 50), (6, 700, 700), (6, 700, 701),
                         (1, 5, 1), (3, 2000, 2000), (6, 20, 2000)]:
        got, want = tracing.history_madds(d, n, memory), brute_madds(d, n, memory)
        if got != want:
            bad.append(f"history_madds({d}, {n}, {memory}) = {got}, brute force {want}")
    return bad


def check_spans(tracer):
    """Self times of each repetition's spans, leaves and root sum to its wall time."""
    bad = []
    reps = []
    for rec in tracer.records:
        if rec[0] == tracing.ROOT:
            reps.append([rec[2] - rec[1], 0.0])
        reps[-1][1] += rec[4] + sum(v[1] for v in (rec[5] or {}).values())
    for wall, total in reps:
        if abs(wall - total) > 1e-6:
            bad.append(f"span self times sum to {total!r}, wall time {wall!r}")
    if not reps:
        bad.append("no traced repetition recorded")
    return bad


def check_smoke(name, work):
    bad = []
    for trace in (False, True):
        wl = workloads.WORKLOADS[name](np.random.default_rng(7), work, "tiny")
        bad += [f"{name}: {p}" for p in wl.warmup()]
        samples, outcomes, tracer, absent = run.measure(wl, 4 if trace else run.MIN_REPS, trace)
        bad += [f"{name}: {o} is {s}: {note}" for o, s, note in outcomes
                if s == "wrong" or (s != "ok" and not o.startswith("mittag_leffler"))]
        if trace:
            bad += [f"{name}: absent target {a}" for a in absent]
            bad += [f"{name}: {b}" for b in check_spans(tracer)]
            steps = samples["traced"][0]["solver.steps"]
            if name == "simulate-full" and steps != workloads.SIZES["tiny"]["sim_steps"]:
                bad.append(f"{name}: traced solver.steps {steps}")
    return bad


def check_reference():
    want = json.loads(workloads.REFERENCE.read_text())
    got = workloads.reference_abm(workloads.financial, workloads.Q, workloads.MASTER0,
                                  workloads.H, workloads.REF_STEPS)[workloads.REF_ROWS]
    ref = np.array(want["simulate"])[:, 1:]
    if not workloads.within(got, ref, workloads.PARITY):
        return [f"reference integrator misses the committed simulate values by "
                f"{float(np.max(np.abs(got - ref))):.3g}"]
    return []


def main() -> int:
    deadline.install()
    scratch = Path.cwd() / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=scratch))
    try:
        problems = check_madds() + check_reference()
        for name in workloads.WORKLOADS:
            problems += check_smoke(name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
