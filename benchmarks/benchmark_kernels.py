"""Time the integration driver and the Mittag-Leffler evaluator; optionally record BENCH_<tag>.json.

The integration driver is timed at q = 0.99 over t_end = 10 for each case
and step count.

The Mittag-Leffler part times mittag_leffler(q, z) at every point of the
analysis-sweep grid (q in 0.1..0.9, 0.99, 1; z from -0.5 to -30), which
holds the two points the old series evaluator hung on, E_0.3(-10) and
E_0.5(-30). Per point it keeps the median over the repeats and the outcome
(ok, or the error raised); it reports the median and the max of those
per-call times and how many calls raised.

With --tag, the minimum and median of the repeats go into BENCH_<tag>.json
in the working directory under the name given by --label, beside the
machine facts (nproc, numpy and BLAS build, OPENBLAS_NUM_THREADS) and the
commit of the imported package. Other labels already in the file are kept,
so a before/after record is two runs with the same tag, for example:

    PYTHONPATH=<parent checkout>/src python benchmarks/benchmark_kernels.py --tag fft --label parent
    PYTHONPATH=src python benchmarks/benchmark_kernels.py --tag fft --label change

Usage:
    python benchmarks/benchmark_kernels.py
    python benchmarks/benchmark_kernels.py --steps 2000 8000 --repeats 5
    python benchmarks/benchmark_kernels.py --repeats 5 --tag ml --label change
"""

import argparse
import json
import os
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import fracsync
from fracsync import SolverConfig, integrate
from fracsync.analysis import mittag_leffler
from fracsync.control import ExactCancellation, coupled_system
from fracsync.errors import FracsyncError
from fracsync.systems import FinancialParams, VoltaParams, financial_system, volta_system

CASES = [
    ("financial", financial_system(), [2.0, -1.0, 1.0]),
    ("volta", volta_system(), [8.0, 2.0, 3.0]),
    (
        "coupled",
        coupled_system(FinancialParams(), VoltaParams(), ExactCancellation()),
        [2.0, -1.0, 1.0, 8.0, 2.0, 3.0],
    ),
]

# The analysis-sweep grid of perfbench/workloads.py, without its seeded jitter;
# its known hangs E_0.3(-10) and E_0.5(-30) are points of this grid.
ML_Q = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.0)
ML_Z = (-0.5, -1.0, -2.0, -5.0, -10.0, -15.0, -20.0, -25.0, -30.0)


def _time_ml_call(q, z):
    """(wall seconds, outcome) of one mittag_leffler call; outcome is "ok" or the error's name."""
    t0 = time.perf_counter()
    try:
        mittag_leffler(q, z)
        outcome = "ok"
    except FracsyncError as exc:
        outcome = type(exc).__name__
    return time.perf_counter() - t0, outcome


def time_mittag_leffler(repeats):
    points = [(q, z) for q in ML_Q for z in ML_Z]
    samples = {p: [] for p in points}
    outcomes = {}
    for _ in range(repeats):
        for p in points:
            seconds, outcomes[p] = _time_ml_call(*p)
            samples[p].append(seconds)
    per_call = [statistics.median(samples[p]) for p in points]
    summary = {
        "calls": len(points),
        "median_s": statistics.median(per_call),
        "max_s": max(per_call),
        "sum_s": sum(per_call),
        "raised": sum(outcomes[p] != "ok" for p in points),
    }
    rows = [{"q": q, "z": z, "median_s": t, "outcome": outcomes[(q, z)]}
            for (q, z), t in zip(points, per_call)]
    print(f"mittag_leffler: {summary['calls']} calls, median {summary['median_s'] * 1e6:.0f} us, "
          f"max {summary['max_s'] * 1e3:.1f} ms, sum {summary['sum_s']:.3f} s, "
          f"raised {summary['raised']}")
    return {"summary": summary, "points": rows}


def _time_case(system, y0, config, repeats):
    y0 = np.asarray(y0, dtype=np.float64)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        integrate(system, 0.99, y0, config)
        samples.append(time.perf_counter() - t0)
    return samples


def _git(*args) -> str | None:
    src = Path(fracsync.__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "-C", str(src), *args],
            capture_output=True, text=True, timeout=30, stdin=subprocess.DEVNULL,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _package_commit() -> str:
    """HEAD of the checkout holding the imported package, '-dirty' with tracked edits."""
    commit = _git("rev-parse", "HEAD")
    if commit is None:
        return "unknown"
    if _git("status", "--porcelain", "--untracked-files=no"):
        commit += "-dirty"
    return commit


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": vendor,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "package": str(Path(fracsync.__file__).resolve().parent),
        "commit": _package_commit(),
    }


def time_integration(steps, memory, repeats):
    header = f"{'system':<10} {'steps':>7} {'min (s)':>12} {'median (s)':>12}"
    print(header)
    print("-" * len(header))

    results = []
    for name, system, y0 in CASES:
        for n_steps in steps:
            config = SolverConfig(h=10.0 / n_steps, n_steps=n_steps, memory=memory)
            samples = _time_case(system, y0, config, repeats)
            best, median = min(samples), statistics.median(samples)
            results.append({
                "case": name,
                "steps": n_steps,
                "min_s": best,
                "median_s": median,
                "samples_s": samples,
            })
            print(f"{name:<10} {n_steps:>7} {best:>12.4f} {median:>12.4f}")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--steps",
        type=int,
        nargs="+",
        default=[1000, 4000, 16000],
        help="grid sizes to time (number of steps at h chosen for t_end=10)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats per cell")
    parser.add_argument(
        "--memory",
        type=int,
        default=None,
        help="optional history window; default keeps the full history",
    )
    parser.add_argument("--tag", help="write the timings to BENCH_<tag>.json")
    parser.add_argument("--label", default="run", help="name of this run inside the JSON file")
    args = parser.parse_args()

    run = {"facts": machine_facts(),
           "settings": {"q": 0.99, "t_end": 10.0, "memory": args.memory,
                        "repeats": args.repeats}}
    run["results"] = time_integration(args.steps, args.memory, args.repeats)
    run["mittag_leffler"] = time_mittag_leffler(args.repeats)

    if args.tag:
        path = Path(f"BENCH_{args.tag}.json")
        record = json.loads(path.read_text()) if path.exists() else {"runs": {}}
        record["runs"][args.label] = run
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} [{args.label}]")


if __name__ == "__main__":
    main()
