"""Time integration, its RHS and CSV layers, mittag_leffler, the CLI and the test suite.

The integration driver is timed at q = 0.99 over t_end = 10, with full
memory, for each case and step count. One more, untimed run of each gives
the peak of the memory it allocates, as tracemalloc counts it
(`peak_bytes`). A case whose run leaves the finite range on a coarse grid
(Volta at 64 steps) is reported with its failing step, not timed.

Two layers are timed on their own. Each case's right-hand side is called
on its single initial state as a list of floats, as integration calls it
twice a step, and reported in microseconds per call (RHS_CALLS calls per
repeat). The CSV writer of
`fracsync simulate` (`cli._write_csv`) writes the financial trajectory of
each step count to a temporary directory.

The Mittag-Leffler part times mittag_leffler(q, z) at every point of the
analysis-sweep grid (q in 0.1..0.9, 0.99, 1; z from -0.5 to -30), which
holds the two points the old series evaluator hung on, E_0.3(-10) and
E_0.5(-30). Per point it keeps the median over the repeats and the outcome
(ok, or the error raised); it reports the median and the max of those
per-call times and how many calls raised.

With --end-to-end LABEL=CHECKOUT ... the script times whole processes
instead, and nothing else, for each checkout root given: `python -m
fracsync` from its `src` for `simulate` and for `synchronize` in exact and
literal mode at their default horizons, each in a fresh temporary output
directory, as the minimum of the repeats; and its test suite (`python -m
pytest -q` in its root), as the median of the repeats. Each repeat runs
every checkout once, in alternating order, so that a shared host's load
reaches them alike; the timings go under each checkout's label.

With --tag, the minimum and median of the repeats go into BENCH_<tag>.json
in the working directory under the name given by --label (with
--end-to-end, under each checkout's label), beside the machine facts
(nproc, numpy and BLAS build, OPENBLAS_NUM_THREADS) and the commit of the
package timed. Other labels already in the file are kept,
and a label's other entries too, so a before/after record is runs with the
same tag, for example:

    PYTHONPATH=<parent checkout>/src python benchmarks/benchmark_kernels.py --tag fft --label parent
    PYTHONPATH=src python benchmarks/benchmark_kernels.py --tag fft --label change
    python benchmarks/benchmark_kernels.py --tag fft --end-to-end parent=<parent checkout> change=.

Usage:
    python benchmarks/benchmark_kernels.py
    python benchmarks/benchmark_kernels.py --steps 2000 8000 --repeats 5
    python benchmarks/benchmark_kernels.py --repeats 5 --tag ml --label change
    python benchmarks/benchmark_kernels.py --end-to-end change=. --repeats 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc
from pathlib import Path

import numpy as np

import fracsync
from fracsync import SolverConfig, cli, integrate
from fracsync.analysis import mittag_leffler
from fracsync.control import ExactCancellation, LiteralFeedback, coupled_system
from fracsync.errors import FracsyncError, NonFiniteState
from fracsync.systems import FinancialParams, VoltaParams, financial_system, volta_system

CASES = [
    ("financial", financial_system(), [2.0, -1.0, 1.0]),
    ("volta", volta_system(), [8.0, 2.0, 3.0]),
    (
        "coupled",
        coupled_system(FinancialParams(), VoltaParams(), ExactCancellation()),
        [2.0, -1.0, 1.0, 8.0, 2.0, 3.0],
    ),
    (
        "coupled-literal",
        coupled_system(FinancialParams(), VoltaParams(), LiteralFeedback()),
        [2.0, -1.0, 1.0, 8.0, 2.0, 3.0],
    ),
]

RHS_CALLS = 2000

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


def _peak_bytes(system, y0, config):
    """tracemalloc peak of one integration, run apart from the timed ones."""
    tracemalloc.start()
    try:
        integrate(system, 0.99, y0, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PACKAGE = Path(fracsync.__file__).resolve().parent


def _git(src, *args) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(src), *args],
            capture_output=True, text=True, timeout=30, stdin=subprocess.DEVNULL,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _package_commit(src) -> str:
    """HEAD of the checkout holding package directory `src`, '-dirty' with tracked edits."""
    commit = _git(src, "rev-parse", "HEAD")
    if commit is None:
        return "unknown"
    if _git(src, "status", "--porcelain", "--untracked-files=no"):
        commit += "-dirty"
    return commit


def machine_facts(src=PACKAGE) -> dict:
    """The machine, and the package directory `src` with its commit."""
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
        "package": str(src),
        "commit": _package_commit(src),
    }


def time_integration(steps, repeats):
    header = f"{'system':<15} {'steps':>7} {'min (s)':>12} {'median (s)':>12} {'peak (MB)':>10}"
    print(header)
    print("-" * len(header))

    results = []
    for name, system, y0 in CASES:
        for n_steps in steps:
            config = SolverConfig(h=10.0 / n_steps, n_steps=n_steps)
            try:
                samples = _time_case(system, y0, config, repeats)
            except NonFiniteState as exc:  # a grid too coarse for the case
                results.append({"case": name, "steps": n_steps, "blowup_step": exc.step})
                print(f"{name:<15} {n_steps:>7} left the finite range at step {exc.step}")
                continue
            best, median = min(samples), statistics.median(samples)
            peak = _peak_bytes(system, y0, config)
            results.append({
                "case": name,
                "steps": n_steps,
                "min_s": best,
                "median_s": median,
                "samples_s": samples,
                "peak_bytes": peak,
            })
            print(f"{name:<15} {n_steps:>7} {best:>12.4f} {median:>12.4f} {peak / 1e6:>10.3f}")
    return results


def time_rhs(repeats):
    """Per-call time of each case's right-hand side on its single initial state."""
    print(f"{'rhs case':<19} {'min (us)':>12} {'median (us)':>12}")
    results = []
    for name, system, y0 in CASES:
        y0 = [float(v) for v in y0]
        totals = timeit.repeat(lambda: system.rhs(0.0, y0), number=RHS_CALLS, repeat=repeats)
        per_call = [t / RHS_CALLS for t in totals]
        best, median = min(per_call), statistics.median(per_call)
        results.append({"case": name, "min_us": best * 1e6, "median_us": median * 1e6})
        print(f"rhs {name:<15} {best * 1e6:>12.2f} {median * 1e6:>12.2f}")
    return results


def time_write_csv(steps, repeats):
    """Time cli._write_csv on the financial trajectory at each step count."""
    print(f"{'write_csv case':<25} {'steps':>7} {'min (s)':>12} {'median (s)':>12}")
    _, system, y0 = CASES[0]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        for n_steps in steps:
            traj = integrate(system, 0.99, y0, SolverConfig(h=10.0 / n_steps, n_steps=n_steps))
            columns = [traj.times, *traj.states.T]
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                cli._write_csv(path, "t,x,y,z", columns)
                samples.append(time.perf_counter() - t0)
            best, median = min(samples), statistics.median(samples)
            results.append({"case": "financial", "steps": n_steps, "rows": n_steps + 1,
                            "min_s": best, "median_s": median, "samples_s": samples})
            print(f"write_csv {'financial':<15} {n_steps:>7} {best:>12.4f} {median:>12.4f}")
    return results


# Whole-process CLI runs at default horizons: name -> subcommand arguments.
CLI_RUNS = {
    "simulate": ["simulate"],
    "synchronize-exact": ["synchronize"],
    "synchronize-literal": ["synchronize", "--mode", "literal"],
}


def _wall(argv, **kwargs) -> float:
    """Wall seconds of one subprocess, which must exit 0."""
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL, **kwargs)
    return time.perf_counter() - t0


SUITE = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
         "no:cacheprovider", "tests"]


def time_end_to_end(checkouts, repeats):
    """{label: whole-process timings} for each checkout root in `checkouts` ({label: root}).

    Each repeat runs every checkout once, in alternating order, so that a
    change in the load of a shared host reaches every checkout alike.
    """
    samples = {label: {name: [] for name in [*CLI_RUNS, "suite"]} for label in checkouts}
    for i in range(repeats):
        for label, root in list(checkouts.items())[:: 1 if i % 2 == 0 else -1]:
            env = dict(os.environ, PYTHONPATH=str(root / "src"))
            for name, args in CLI_RUNS.items():
                with tempfile.TemporaryDirectory() as tmp:
                    argv = [sys.executable, "-m", "fracsync", *args, "--out", tmp]
                    samples[label][name].append(_wall(argv, env=env))
            samples[label]["suite"].append(_wall(SUITE, cwd=root, env=env))
    results = {}
    for label, runs in samples.items():
        cli_runs = [{"case": name, "min_s": min(runs[name]), "samples_s": runs[name]}
                    for name in CLI_RUNS]
        suite = runs["suite"]
        results[label] = {"cli": cli_runs, "suite": {"command": " ".join(SUITE[1:]),
                                                     "median_s": statistics.median(suite),
                                                     "samples_s": suite}}
        for row in cli_runs:
            print(f"{label} cli {row['case']:<20} min {row['min_s']:.3f} s")
        print(f"{label} test suite median {statistics.median(suite):.2f} s")
    return results


def _checkout(pair):
    """(label, checkout root) from LABEL=CHECKOUT."""
    label, sep, root = pair.partition("=")
    if not (label and sep and root):
        raise argparse.ArgumentTypeError(f"expected LABEL=CHECKOUT, got {pair!r}")
    return label, Path(root).resolve()


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
    parser.add_argument("--tag", help="write the timings to BENCH_<tag>.json")
    parser.add_argument("--label", default="run", help="name of this run inside the JSON file")
    parser.add_argument("--end-to-end", nargs="+", type=_checkout, metavar="LABEL=CHECKOUT",
                        help="time only the CLI processes and the test suite of each checkout")
    args = parser.parse_args()

    if args.end_to_end:
        checkouts = dict(args.end_to_end)
        timings = time_end_to_end(checkouts, args.repeats)
        runs = {label: {"facts": machine_facts(checkouts[label] / "src" / "fracsync"),
                        "end_to_end": timings[label]} for label in checkouts}
    else:
        runs = {args.label: {
            "facts": machine_facts(),
            "settings": {"q": 0.99, "t_end": 10.0, "repeats": args.repeats},
            "results": time_integration(args.steps, args.repeats),
            "rhs": time_rhs(args.repeats),
            "write_csv": time_write_csv(args.steps, args.repeats),
            "mittag_leffler": time_mittag_leffler(args.repeats),
        }}

    if args.tag:
        path = Path(f"BENCH_{args.tag}.json")
        record = json.loads(path.read_text()) if path.exists() else {"runs": {}}
        for label, run in runs.items():
            record["runs"].setdefault(label, {}).update(run)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} [{', '.join(runs)}]")


if __name__ == "__main__":
    main()
