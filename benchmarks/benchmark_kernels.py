"""Time integration and its RHS per case, the CLI processes and the test suite.

The integration driver is timed at q = 0.99 over t_end = 10, with full
memory, for each case and step count. One more, untimed run of each gives
the peak of the memory it allocates, as tracemalloc counts it
(`peak_bytes`). A case whose run leaves the finite range on a coarse grid
(Volta at 64 steps) is reported with its failing step, not timed.

Each case's right-hand side is also timed on its own: called on its
single initial state as a list of floats, as integration calls it twice a
step, and reported in microseconds per call (RHS_CALLS calls per repeat).
The CSV writer and mittag_leffler are not timed here: a traced perfbench
run (`perfbench/run.py --trace 1`) reports them as `cli.write_s` and
`analysis.ml_*`.

With --end-to-end LABEL=CHECKOUT ... the script times whole processes
instead, and nothing else, for each checkout root given: `python -m
fracsync` from its `src` for each subcommand at its defaults (CLI_RUNS:
`simulate`, exact and literal `synchronize`, `stability`, `convergence`),
each in a fresh temporary output directory and held to its expected exit
code, as the minimum of the repeats; and its test suite (`python -m pytest
-q` in its root), as the median of the repeats. Each repeat runs
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

# This checkout's package, after any PYTHONPATH entry, so that
# PYTHONPATH=<other checkout>/src still selects that checkout's package.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import fracsync
from fracsync import SolverConfig, integrate
from fracsync.control import ExactCancellation, LiteralFeedback, coupled_system
from fracsync.errors import NonFiniteState
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


# Whole-process CLI runs at defaults: name -> (subcommand arguments, exit code).
# convergence exits 4 at defaults, its known out-of-band q = 0.5 order (README).
CLI_RUNS = {
    "simulate": (["simulate"], 0),
    "synchronize-exact": (["synchronize"], 0),
    "synchronize-literal": (["synchronize", "--mode", "literal"], 0),
    "stability": (["stability"], 0),
    "convergence": (["convergence"], 4),
}


def _wall(argv, code=0, **kwargs) -> float:
    """Wall seconds of one subprocess, which must exit with `code`."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL, **kwargs)
    seconds = time.perf_counter() - t0
    if proc.returncode != code:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return seconds


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
            for name, (args, code) in CLI_RUNS.items():
                with tempfile.TemporaryDirectory() as tmp:
                    argv = [sys.executable, "-m", "fracsync", *args, "--out", tmp]
                    samples[label][name].append(_wall(argv, code, env=env))
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
