"""Time the integration drivers and optionally record the timings in BENCH_<tag>.json.

Every available driver is timed at q = 0.99 over t_end = 10 for each case
and step count: the numpy driver always, the compiled one too when numba is
importable and not disabled through FRACSYNC_NO_NUMBA=1. The drivers agree
to roundoff; this script only measures wall time.

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
from fracsync import kernels
from fracsync.control import ExactCancellation, coupled_system
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


def _time_case(system, y0, config, backend, repeats):
    y0 = np.asarray(y0, dtype=np.float64)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        integrate(system, 0.99, y0, config, backend=backend)
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
        "numba_enabled": kernels.NUMBA_ENABLED,
        "package": str(Path(fracsync.__file__).resolve().parent),
        "commit": _package_commit(),
    }


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

    backends = ["numpy"]
    if kernels.NUMBA_ENABLED:
        kernels.warmup()
        backends.append("numba")
    else:
        print("numba disabled or missing; timing the numpy driver only")

    header = f"{'system':<10} {'steps':>7} " + "".join(f"{b + ' (s)':>12}" for b in backends)
    if len(backends) == 2:
        header += f"{'speedup':>9}"
    print(header)
    print("-" * len(header))

    results = []
    for name, system, y0 in CASES:
        for n_steps in args.steps:
            config = SolverConfig(h=10.0 / n_steps, n_steps=n_steps, memory=args.memory)
            best = {}
            for backend in backends:
                samples = _time_case(system, y0, config, backend, args.repeats)
                best[backend] = min(samples)
                results.append({
                    "case": name,
                    "steps": n_steps,
                    "backend": backend,
                    "min_s": min(samples),
                    "median_s": statistics.median(samples),
                    "samples_s": samples,
                })
            row = f"{name:<10} {n_steps:>7} " + "".join(f"{best[b]:>12.4f}" for b in backends)
            if len(backends) == 2:
                row += f"{best['numpy'] / best['numba']:>8.1f}x"
            print(row)

    if args.tag:
        path = Path(f"BENCH_{args.tag}.json")
        record = json.loads(path.read_text()) if path.exists() else {"runs": {}}
        record["runs"][args.label] = {
            "facts": machine_facts(),
            "settings": {"q": 0.99, "t_end": 10.0, "memory": args.memory,
                         "repeats": args.repeats},
            "results": results,
        }
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} [{args.label}]")


if __name__ == "__main__":
    main()
