"""Time integration and its RHS per case, the CLI processes and the test suite.

Each LABEL=CHECKOUT names a checkout root to time under that label (by
default, this script's checkout as `run`). Every cell runs each checkout
once per repeat, in alternating order, so that a change in the load of a
shared host reaches them alike. For the layer cells each checkout's
`src/fracsync` is loaded into this process under a module name of its own.
With two or more labels, each label after the first also gets, per cell,
the ratio of its sample to the first label's sample of the same repeat,
as a median and quartiles; a before/after claim reads that ratio, with
the parent first. The pairs may come anywhere among the arguments.

The integration driver is timed at q = 0.99 over t_end = 10, with full
memory, for each case and step count, after one untimed run; one more
after the timed ones gives the peak of the memory it allocates, as
tracemalloc counts it (`peak_bytes`). A case whose run leaves the finite
range on a coarse grid (Volta at 64 steps) is reported with its failing
step, not timed. Each case's
right-hand side is timed on its single initial state as a list of floats,
as integration calls it, in microseconds per call (RHS_CALLS calls per
repeat). A traced perfbench run (`perfbench/run.py --trace 1`) times the
CSV writer and mittag_leffler (`cli.write_s`, `analysis.ml_*`).

With --end-to-end the script times whole processes instead: `python -m
fracsync` from each checkout's `src` for each subcommand at its defaults
(CLI_RUNS), in a fresh output directory and held to its expected exit
code, as the minimum of the repeats; and the checkout's test suite, as
the median. Three repeats do not resolve a 10% change in a whole process
on a shared 2-vCPU host: a before/after claim needs at least 10, the
default count.

With --tag, the timings go into BENCH_<tag>.json in the working directory
under each label, beside the machine facts (nproc, numpy and BLAS build,
OPENBLAS_NUM_THREADS) and the commit of the package timed. Other labels
and a label's other entries already in the file are kept.

Usage:
    python benchmarks/benchmark_kernels.py
    python benchmarks/benchmark_kernels.py --steps 2000 8000 --repeats 5
    python benchmarks/benchmark_kernels.py parent=../parent change=. --tag fft
    python benchmarks/benchmark_kernels.py --steps 16000 parent=../parent change=.
    python benchmarks/benchmark_kernels.py --end-to-end parent=../parent change=. --tag fft
    python benchmarks/benchmark_kernels.py --end-to-end change=. --repeats 1
"""

import argparse
import functools
import importlib.util
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

RHS_CALLS = 2000


def _load(index, root):
    """`root`/src/fracsync imported as `_fracsync<index>`; its imports are relative."""
    package = root / "src" / "fracsync"
    name = f"_fracsync{index}"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cases(pkg):
    """{case: (system, y0)} of each timed case, built by package `pkg`."""
    fp, vp = pkg.FinancialParams(), pkg.VoltaParams()
    master, slave = [2.0, -1.0, 1.0], [8.0, 2.0, 3.0]
    return {
        "financial": (pkg.financial_system(), master),
        "volta": (pkg.volta_system(), slave),
        "coupled": (pkg.coupled_system(fp, vp, pkg.ExactCancellation()), master + slave),
        "coupled-literal": (pkg.coupled_system(fp, vp, pkg.LiteralFeedback()), master + slave),
    }


def _alternating(runs, repeats):
    """(label, samples, extra) for each label of `runs`, samples = [runs[label]() per repeat].

    Each repeat calls every run, in alternating order. `extra` holds what
    the label's record adds: every label after the first gets a "ratio"
    entry. A repeat's ratio is the label's sample over the first label's
    sample of the same repeat, which ran next to it under the same load;
    the entry holds the first label and the median and quartiles of those
    ratios.
    """
    labels = list(runs)
    samples = {label: [] for label in labels}
    for i in range(repeats):
        for label in labels[:: 1 if i % 2 == 0 else -1]:
            samples[label].append(runs[label]())
    extras = {label: {} for label in labels}
    for label in labels[1:]:
        ratios = np.array(samples[label]) / np.array(samples[labels[0]])
        q1, median, q3 = np.percentile(ratios, [25, 50, 75]).tolist()
        extras[label]["ratio"] = {"to": labels[0], "median": median, "quartiles": [q1, q3]}
    return [(label, samples[label], extras[label]) for label in labels]


def _ratio_text(extra) -> str:
    """The printed form of a label's "ratio" entry; empty for the first label."""
    if "ratio" not in extra:
        return ""
    ratio = extra["ratio"]
    q1, q3 = ratio["quartiles"]
    return f"  ratio to {ratio['to']} {ratio['median']:.3f} [{q1:.3f}, {q3:.3f}]"


def _seconds(fn, *args):
    """Wall seconds of one call fn(*args)."""
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _peak_bytes(fn, *args):
    """tracemalloc peak of one call, run after the timed ones."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def machine_facts(src) -> dict:
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


def _rhs_seconds(system, y0):
    """Seconds per call of system.rhs on state y0, over RHS_CALLS calls."""
    return timeit.timeit(lambda: system.rhs(0.0, y0), number=RHS_CALLS) / RHS_CALLS


def time_layers(packages, steps, repeats):
    """{label: {"results": [row per case and steps], "rhs": [row per case]}} of `packages`."""
    header = (f"{'label':<10} {'system':<15} {'steps':>7} {'min (s)':>12} {'median (s)':>12} "
              f"{'peak (MB)':>10}")
    print(header + "\n" + "-" * len(header))
    cases = {label: _cases(pkg) for label, pkg in packages.items()}
    layers = {label: {"results": [], "rhs": []} for label in packages}
    names = next(iter(cases.values()))
    for name in names:
        for n_steps in steps:
            calls = {}
            for label, pkg in packages.items():
                system, y0 = cases[label][name]
                config = pkg.SolverConfig(h=10.0 / n_steps, n_steps=n_steps)
                args = (pkg.integrate, system, 0.99, np.asarray(y0, dtype=np.float64), config)
                try:  # an untimed first run, which also warms the process's caches
                    _seconds(*args)
                except pkg.NonFiniteState as exc:  # a grid too coarse for the case
                    layers[label]["results"].append(
                        {"case": name, "steps": n_steps, "blowup_step": exc.step})
                    print(f"{label:<10} {name:<15} {n_steps:>7} left the finite range at step "
                          f"{exc.step}")
                    continue
                calls[label] = args
            runs = {label: functools.partial(_seconds, *args) for label, args in calls.items()}
            for label, samples, extra in _alternating(runs, repeats):
                best, median = min(samples), statistics.median(samples)
                peak = _peak_bytes(*calls[label])
                layers[label]["results"].append(
                    {"case": name, "steps": n_steps, "min_s": best, "median_s": median,
                     "samples_s": samples, "peak_bytes": peak, **extra})
                print(f"{label:<10} {name:<15} {n_steps:>7} {best:>12.4f} {median:>12.4f} "
                      f"{peak / 1e6:>10.3f}{_ratio_text(extra)}")

    print(f"{'label':<10} {'rhs case':<19} {'min (us)':>12} {'median (us)':>12}")
    for name in names:
        runs = {label: functools.partial(_rhs_seconds, *cases[label][name]) for label in packages}
        for label, per_call, extra in _alternating(runs, repeats):
            best, median = min(per_call) * 1e6, statistics.median(per_call) * 1e6
            layers[label]["rhs"].append(
                {"case": name, "min_us": best, "median_us": median, **extra})
            print(f"{label:<10} rhs {name:<15} {best:>12.2f} {median:>12.2f}"
                  f"{_ratio_text(extra)}")
    return layers


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


def _cli_wall(args, code, env) -> float:
    """Wall seconds of one `python -m fracsync` run in a fresh output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return _wall([sys.executable, "-m", "fracsync", *args, "--out", tmp], code, env=env)


SUITE = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
         "no:cacheprovider", "tests"]


def time_end_to_end(checkouts, repeats):
    """{label: whole-process timings} for each checkout root in `checkouts` ({label: root})."""
    envs = {label: dict(os.environ, PYTHONPATH=str(root / "src"))
            for label, root in checkouts.items()}
    results = {label: {"cli": [], "suite": {"command": " ".join(SUITE[1:])}} for label in checkouts}
    for name, (args, code) in CLI_RUNS.items():
        runs = {label: functools.partial(_cli_wall, args, code, envs[label]) for label in checkouts}
        for label, samples, extra in _alternating(runs, repeats):
            results[label]["cli"].append(
                {"case": name, "min_s": min(samples), "samples_s": samples, **extra})
            print(f"{label} cli {name:<20} min {min(samples):.3f} s{_ratio_text(extra)}")
    runs = {label: functools.partial(_wall, SUITE, cwd=root, env=envs[label])
            for label, root in checkouts.items()}
    for label, samples, extra in _alternating(runs, repeats):
        results[label]["suite"].update(median_s=statistics.median(samples), samples_s=samples,
                                       **extra)
        print(f"{label} test suite median {statistics.median(samples):.2f} s"
              f"{_ratio_text(extra)}")
    return results


def _checkout(pair):
    """(label, checkout root) from LABEL=CHECKOUT."""
    label, sep, root = pair.partition("=")
    if not (label and sep and root):
        raise argparse.ArgumentTypeError(f"expected LABEL=CHECKOUT, got {pair!r}")
    return label, Path(root).resolve()


def _pairs_first(argv):
    """`argv` with its LABEL=CHECKOUT pairs moved to the front, in their order.

    A pair is an argument that holds "=" and is not an option (so a --tag
    value holds no "="). Moved ahead, no pair is read as a value of
    --steps, which takes one or more values, so `--steps 64 a=.` parses
    as `a=. --steps 64` does.
    """
    return sorted(argv, key=lambda arg: "=" not in arg or arg.startswith("-"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=_checkout, metavar="LABEL=CHECKOUT",
                        help="checkout roots to time, alternating (default: run=<this checkout>)")
    parser.add_argument("--steps", type=int, nargs="+", default=[1000, 4000, 16000],
                        help="grid sizes to time (number of steps at h chosen for t_end=10)")
    parser.add_argument("--repeats", type=int, default=10, help="timing repeats per cell")
    parser.add_argument("--tag", help="write the timings to BENCH_<tag>.json")
    parser.add_argument("--end-to-end", action="store_true",
                        help="time only the CLI processes and the test suite of each checkout")
    args = parser.parse_intermixed_args(_pairs_first(sys.argv[1:]))
    labels = [label for label, _ in args.checkouts]
    if len(set(labels)) < len(labels):
        parser.error(f"label {max(labels, key=labels.count)!r} is given more than once")
    checkouts = dict(args.checkouts) or {"run": Path(__file__).resolve().parents[1]}

    runs = {label: {"facts": machine_facts(root / "src" / "fracsync")}
            for label, root in checkouts.items()}
    if args.end_to_end:
        for label, timings in time_end_to_end(checkouts, args.repeats).items():
            runs[label]["end_to_end"] = timings
    else:
        packages = {label: _load(i, root) for i, (label, root) in enumerate(checkouts.items())}
        for label, layers in time_layers(packages, args.steps, args.repeats).items():
            runs[label].update(layers, settings={"q": 0.99, "t_end": 10.0, "repeats": args.repeats})

    if args.tag:
        path = Path(f"BENCH_{args.tag}.json")
        record = json.loads(path.read_text()) if path.exists() else {"runs": {}}
        for label, run in runs.items():
            record["runs"].setdefault(label, {}).update(run)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} [{', '.join(runs)}]")


if __name__ == "__main__":
    main()
