"""The fracsync benchmark: one workload, timed untraced or traced, outputs checked.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload simulate-full --seed 1 --seconds 25 --trace 0

The program is imported from `src/` of the working directory; without it
the benchmark exits 2 and prints no result. Inputs come from `--seed`.
Repetitions of the workload run back to back in this process, each under
deadlines: as many as take `--seconds` on a 2-vCPU x86 host (at least
MIN_REPS), a count fixed per workload so that every run does the same work.

--trace 0 reports the end-to-end metrics: the medians over repetitions of
wall and CPU seconds, the process's peak RSS, and the median time a fresh
interpreter needs to import fracsync and finish a trivial `cli.main` call.
Those interpreters start SETUP_PER_REP at a time after each repetition, so
that the set-up samples span the run rather than one moment of the host.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see tracing.py); the spans are
written to .perfbench/traces/. BLAS threads are left at the machine
default, which the facts line records.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. The lines before it give the machine
facts and, per metric, the sample count and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import deadline
import tracing

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
HARD_CAP = 120.0  # seconds of measuring after which no new work starts
SETUP_PER_REP = 2
SETUP_DEADLINE = 30.0
SETUP_CODE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from fracsync import cli
with contextlib.redirect_stdout(io.StringIO()):
    sys.exit(cli.main(["stability", "--out", sys.argv[2]]))
"""


def _git(root: Path, *args) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                             timeout=30, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(root: Path, seed: int) -> dict:
    import mpmath
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    commit = None
    if _git(root, "rev-parse", "--show-toplevel") == str(root):
        commit = _git(root, "rev-parse", "HEAD")
        if commit is not None and _git(root, "status", "--porcelain", "--untracked-files=no"):
            commit += "-dirty"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": vendor,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "numba_imported": "numba" in sys.modules,
        "commit": commit or "none (not a git checkout)",
        "seed": seed,
    }


def measure_setup(src: Path, out: Path) -> list:
    """Seconds from spawning a fresh interpreter until a trivial cli.main call returns."""
    times = []
    for _ in range(SETUP_PER_REP):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(src), str(out)],
                                stdin=subprocess.DEVNULL)
        try:
            # A blocking wait, not Popen.wait(timeout=...), whose polling rounds to 50 ms.
            rc = deadline.call(SETUP_DEADLINE, proc.wait)
        except deadline.Overrun:
            proc.kill()
            proc.wait()
            raise SystemExit(f"set-up took longer than {SETUP_DEADLINE} s")
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"set-up exited with code {rc}")
    return times


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def repetitions(wl, seconds: float, trace: bool) -> int:
    """How many repetitions a run of `seconds` makes; traced runs alternate, so an even count."""
    reps = max(MIN_REPS, round(seconds / wl.rep_seconds))
    return max(4, reps + reps % 2) if trace else reps


def measure(wl, reps: int, trace: bool, between=None):
    """Run `reps` repetitions, calling between() after each; return samples and outcomes."""
    start = time.perf_counter()
    budget_end = start + HARD_CAP
    samples = {"untraced": [], "traced": []}
    outcomes = []
    tracer = tracing.Tracer() if trace else None
    absent = []
    for rep in range(reps):
        traced = trace and rep % 2 == 1
        if traced:
            restore, absent = tracing.instrument(tracer)
        c0 = time.process_time()
        t0 = time.perf_counter()
        if traced:
            tracer.start(t0)
        results = wl.run(budget_end)
        t1 = time.perf_counter()
        cpu = time.process_time() - c0
        sample = {"wall_s": t1 - t0, "cpu_s": cpu}
        if traced:
            unattributed = tracer.stop(t1)
            restore()
        outcomes += wl.check(results)
        if traced:
            sample.update(tracing.layer_metrics(tracer, unattributed))
            sample["cli.bytes_written"] = wl.bytes_written
        samples["traced" if traced else "untraced"].append(sample)
        if between is not None:
            between()
        if time.perf_counter() - start >= HARD_CAP:
            break
    return samples, outcomes, tracer, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fracsync benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "fracsync" / "__init__.py").is_file():
        print(f"no fracsync sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import fracsync
    import workloads

    if Path(fracsync.__file__).resolve().parent != src / "fracsync":
        print(f"imported fracsync from {fracsync.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    facts = machine_facts(root, args.seed)
    print(json.dumps({"facts": facts}), flush=True)

    work = root / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline.install()
    try:
        wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), work, "full")
        problems = wl.warmup()
        setup = []
        between = None if args.trace else lambda: setup.extend(measure_setup(src, work / "setup"))
        reps = repetitions(wl, args.seconds, bool(args.trace))
        samples, outcomes, tracer, absent = measure(wl, reps, bool(args.trace), between)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(status != "ok" for _, status, _ in outcomes)
    wrong = [f"{name}: {note}" for name, status, note in outcomes if status == "wrong"]
    untraced = samples["untraced"]
    series = {
        "wall_s": [s["wall_s"] for s in untraced],
        "cpu_s": [s["cpu_s"] for s in untraced],
    }
    if args.trace:
        traced = samples["traced"]
        for name in traced[0]:
            if name not in ("wall_s", "cpu_s"):
                series[name] = [s[name] for s in traced]
        overhead = statistics.median(s["wall_s"] for s in traced) - statistics.median(
            series["wall_s"])
        series["trace.overhead_s"] = [overhead]
        series["failed_frac"] = [failed / attempted]
        del series["wall_s"], series["cpu_s"]
    else:
        series["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        series["setup_s"] = setup

    if set(series) != set(units):
        raise SystemExit(f"metrics {sorted(set(series) ^ set(units))} do not match BENCHMARK.json")
    detail = {name: {"n": len(v), "quartiles": quartiles(v), "samples": v}
              for name, v in series.items()}
    print(json.dumps({"detail": detail, "absent_targets": absent, "problems": problems,
                      "wrong": wrong[:20],
                      "failed_by_status": {s: sum(o[1] == s for o in outcomes)
                                           for s in ("overrun", "error", "wrong")}}))
    if tracer is not None:
        traces = root / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        path.write_text(json.dumps({"facts": facts, "spans": tracer.spans()}))
    metrics = {name: {"value": statistics.median(v), "unit": units[name]}
               for name, v in series.items()}
    result = {"correct": not problems and not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
