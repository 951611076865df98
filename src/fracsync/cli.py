"""Command line front end.

Four subcommands: simulate, synchronize, stability, convergence. Each
reads an optional JSON config, applies flag overrides and validates fully
before writing anything: each key is checked by the code that reads (pops)
it, and a key left over once the subcommand's reads are done is a config
error, so a key unused with the given settings is refused, not ignored.
Artifacts go into the output directory: trajectory.csv for time series
and report.json for everything else. Reports embed the resolved
configuration and contain no wall-clock data, so a rerun with the same
inputs is byte-identical; timing is printed to stdout only. The
"backend" entry of simulate and synchronize reports always reads
"numpy", the one integration driver; it stays so that reports keep the
bytes they had when a second driver existed.

Exit codes: 0 success, 2 invalid configuration, 3 run left the finite
range (partial trajectory retained), 4 convergence order out of band.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import control as ctl
from . import experiments
from .errors import ConfigError
from .solver import SolverConfig
from .systems import (
    FINANCIAL_CHAOS_ONSET_REFERENCE,
    FinancialParams,
    FractionalOrders,
    VoltaParams,
    financial_equilibria,
    financial_jacobian,
    has_bool,
    number_array,
    positive_number,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_BAND = 4

_DEFAULT_H = 0.0005
_SIM_T_END = 50.0
_SYNC_T_END = 10.0
_DEFAULT_TOL = 1e-3
# Rows of trajectory.csv formatted per write. A few hundred rows keep the
# buffers small; thousands raise peak memory by about 1 MB at 20 000 rows.
_CSV_CHUNK = 256


# ---------------------------------------------------------------------------
# Config loading and validation. Everything funnels into ConfigError so the
# command line can name the offending field and exit 2 before writing files.
# ---------------------------------------------------------------------------


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError("config", f"file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON in {path}: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config", "top level must be a JSON object")
    for key in ("h", "t_end", "orders", "mode", "memory"):
        value = getattr(args, key, None)
        if value is not None:
            # One --orders value is the uniform order; any other count goes to the check.
            cfg[key] = value[0] if key == "orders" and len(value) == 1 else value
    return cfg


def _refuse_leftovers(cfg: dict, where: str, prefix: str = "") -> None:
    """ConfigError naming the keys of `cfg` that the reads of `where` did not consume."""
    if cfg:
        keys = ", ".join(prefix + key for key in cfg)
        raise ConfigError(keys, f"not used by {where} with these settings")


def _read(key, build, raw):
    """build(raw), with any TypeError or ValueError reported as ConfigError(key).

    JSON true and false are refused first: Python's float() and int() read
    them as 1 and 0, so `"h": true` would otherwise run with h = 1.
    Nested lists are searched too.
    """
    if has_bool(raw):
        raise ConfigError(key, f"expected a number, got {json.dumps(raw)}")
    try:
        return build(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc))


def _number(raw) -> float:
    return float(number_array(raw, ValueError, "value", ()))


def _positive(raw) -> float:
    return positive_number(raw, "value")


def _vec3(raw) -> list:
    return number_array(raw, ValueError, "value", (3,)).tolist()


def _orders(raw) -> FractionalOrders:
    if isinstance(raw, (int, float)):
        return FractionalOrders.uniform(raw)
    return FractionalOrders(raw)


def _window(raw):
    """Memory window in steps from 'full', k, 'k', 'last:k' or {"last": k}; None is full."""
    if raw is None or raw == "full":
        return None
    if isinstance(raw, dict) and set(raw) == {"last"}:
        raw = f"last:{raw['last']}"
    if isinstance(raw, str) and raw.startswith("last:"):
        raw = raw[5:]
    if isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"window must be a whole number of steps, got {raw!r}")
    return int(raw)


def _matrix(raw) -> np.ndarray:
    """3x3 matrix given as three rows or as the flat list of nine numbers."""
    shape = (9,) if np.ndim(raw) == 1 else (3, 3)
    return number_array(raw, ValueError, "value", shape).reshape(3, 3)


def _params(cfg, key, cls):
    raw = cfg.pop(key, {})
    if not isinstance(raw, dict):
        raise ConfigError(key, f"expected an object, got {raw!r}")
    fields = [f.name for f in dataclasses.fields(cls)]
    for sub in raw:
        if sub not in fields:
            raise ConfigError(key, f"unknown parameter {sub!r}")
    return cls(**{sub: _read(f"{key}.{sub}", _number, val) for sub, val in raw.items()})


def _model(cfg):
    """Both systems' parameters and the orders, with their echo for the report."""
    fp = _params(cfg, "financial", FinancialParams)
    vp = _params(cfg, "volta", VoltaParams)
    orders = _read("orders", _orders, cfg.pop("orders", 0.99))
    echo = {
        "financial": dataclasses.asdict(fp),
        "volta": dataclasses.asdict(vp),
        "orders": list(orders.q),
    }
    return fp, vp, orders, echo


def _grid(cfg, default_t_end):
    """SolverConfig from h, t_end and memory, with its echo for the report."""
    h = _read("h", _positive, cfg.pop("h", _DEFAULT_H))
    t_end = _read("t_end", _positive, cfg.pop("t_end", default_t_end))
    n_steps = round(t_end / h)
    if n_steps < 1:
        raise ConfigError("t_end", f"horizon {t_end} allows no step at h = {h}")
    if n_steps > 5_000_000:
        raise ConfigError("t_end", f"horizon needs {n_steps} steps; reduce t_end or raise h")
    window = cfg.pop("memory", "full")
    config = _read("memory", lambda raw: SolverConfig(h, n_steps, _window(raw)), window)
    memory = "full" if config.memory is None else config.memory
    return config, {"h": h, "t_end": t_end, "n_steps": n_steps, "memory": memory}


def _controller(cfg, vp):
    """Mode and controller from mode, lambda or gain, with the echo of its rates or gain."""
    mode = cfg.pop("mode", "exact")
    if mode == "exact":
        lam = cfg.pop("lambda", ctl.ExactCancellation.lam)
        controller = _read("lambda", ctl.ExactCancellation, lam)
        return mode, controller, {"lambda": list(controller.lam)}
    if mode == "literal":
        controller = _read("gain", ctl.LiteralFeedback, cfg.pop("gain", None))
        return mode, controller, {"gain": controller.gain_array(vp).tolist()}
    raise ConfigError("mode", f"expected 'exact' or 'literal', got {mode!r}")


# ---------------------------------------------------------------------------
# Artifact writers.
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: str, columns) -> None:
    """Write equal-length columns as CSV rows under `header`.

    Each value is its shortest round-trip `repr`, with the ".0" of an
    integral value dropped ("2" for 2.0, "-0" for -0.0; "nan" and "inf"
    as they are). The table is formatted and written _CSV_CHUNK rows at a
    time, so no whole-table copy or list of lines is ever held. `repr`
    never writes ".0e", so a ".0" before a separator always ends its value
    and one `replace` per chunk strips them all.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    with path.open("w") as fh:
        fh.write(header + "\n")
        for i in range(0, cols[0].shape[0], _CSV_CHUNK):
            rows = np.column_stack([c[i : i + _CSV_CHUNK] for c in cols]).tolist()
            text = "\n".join([",".join(map(repr, row)) for row in rows]) + "\n"
            fh.write(text.replace(".0,", ",").replace(".0\n", "\n"))


def _write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def _write_run(command, outdir: Path, run, resolved: dict, header: str, columns, entries) -> int:
    """Write a run's trajectory.csv and report.json and return its exit code.

    `entries` fill the report, in their order, between "rows_written" and
    "files". A run that left the finite range exits EXIT_BLOWUP.
    """
    _write_csv(outdir / "trajectory.csv", header, columns)
    report = {
        "command": command,
        "status": "blowup" if run.blowup else "ok",
        "config": resolved,
        "backend": "numpy",
        "rows_written": int(run.trajectory.n_points),
        **entries,
        "files": {"trajectory": "trajectory.csv"},
    }
    _write_report(outdir / "report.json", report)
    print(f"wrote {outdir / 'trajectory.csv'} and {outdir / 'report.json'}")
    if run.blowup:
        print(f"run left the finite range at step {run.blowup.step} (t = {run.blowup.time:g})")
        return EXIT_BLOWUP
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    name, systems = cfg.pop("system", "financial"), experiments.SYSTEMS
    if not isinstance(name, str) or name not in systems:
        raise ConfigError("system", f"expected one of {', '.join(systems)}, got {name!r}")
    fp, vp, orders, model = _model(cfg)
    config, grid = _grid(cfg, _SIM_T_END)
    ic = _read("initial_state", _vec3, cfg.pop("initial_state", systems[name][1]))
    resolved = {"system": name, **model, **grid, "initial_state": ic}

    outdir = _outdir(args, cfg)
    system = experiments.build_system(name, fp, vp)
    t0 = time.perf_counter()
    run = experiments.run_simulation(system, orders, ic, config)
    elapsed = time.perf_counter() - t0

    traj = run.trajectory
    print(f"simulate: {name}, {traj.n_points} rows, {elapsed:.2f} s")
    entries = {
        "blowup": run.blowup.to_dict() if run.blowup else None,
        "final_state": traj.states[-1].tolist() if traj.n_points else None,
    }
    columns = [traj.times, *traj.states.T]
    return _write_run("simulate", outdir, run, resolved, "t,x,y,z", columns, entries)


def _cmd_synchronize(args) -> int:
    cfg = _load_config(args)
    fp, vp, orders, model = _model(cfg)
    config, grid = _grid(cfg, _SYNC_T_END)
    mode, controller, rates = _controller(cfg, vp)
    (_, master_ic), (_, slave_ic) = experiments.SYSTEMS["financial"], experiments.SYSTEMS["volta"]
    master0 = _read("master_initial", _vec3, cfg.pop("master_initial", master_ic))
    slave0 = _read("slave_initial", _vec3, cfg.pop("slave_initial", slave_ic))
    tol = _read("sync_tol", _positive, cfg.pop("sync_tol", _DEFAULT_TOL))
    resolved = {**model, **grid, "mode": mode, "master_initial": master0,
                "slave_initial": slave0, "sync_tol": tol, **rates}

    outdir = _outdir(args, cfg)
    t0 = time.perf_counter()
    run = experiments.run_synchronization(fp, vp, controller, orders, master0, slave0, config, tol)
    elapsed = time.perf_counter() - t0

    traj = run.trajectory
    if run.summary and run.summary.sync_time is not None:
        sync_text = f"synchronized at t = {run.summary.sync_time:g}"
    else:
        sync_text = "not synchronized within the horizon"
    print(f"synchronize: mode {mode}, {traj.n_points} rows, {elapsed:.2f} s")
    print(f"{sync_text} (tol = {tol:g})")
    entries = {
        "design_matrix": run.design_matrix.tolist(),
        "stability": run.stability.to_dict(),
        "sync": run.summary.to_dict() if run.summary else None,
        "blowup": run.blowup.to_dict() if run.blowup else None,
    }
    columns = [traj.times, *traj.states.T, *traj.errors.T, *traj.controls.T]
    header = "t,x1,y1,z1,x2,y2,z2,e1,e2,e3,u1,u2,u3"
    return _write_run("synchronize", outdir, run, resolved, header, columns, entries)


def _stability_entry(matrix: np.ndarray, orders: FractionalOrders) -> dict:
    report = ctl.matignon_check(matrix, orders)
    return {
        "matrix": matrix.tolist(),
        "stability": report.to_dict(),
        "chaos_threshold": report.chaos_threshold,
    }


def _cmd_stability(args) -> int:
    cfg = _load_config(args)
    fp, vp, orders, model = _model(cfg)
    spec = cfg.pop("matrix", {})
    if not isinstance(spec, dict):
        raise ConfigError("matrix", f"expected an object, got {spec!r}")
    source = spec.pop("source", "closed_loop")
    if source not in ("closed_loop", "equilibria", "explicit"):
        raise ConfigError(
            "matrix.source", f"expected 'closed_loop', 'equilibria' or 'explicit', got {source!r}"
        )

    resolved = {**model, "matrix_source": source}
    report: dict = {"command": "stability", "config": resolved}

    if source == "closed_loop":
        mode, controller, _ = _controller(cfg, vp)
        resolved["mode"] = mode
        report["closed_loop"] = _stability_entry(controller.design_matrix(vp), orders)
    elif source == "explicit":
        values = spec.pop("values", None)
        if values is None:
            raise ConfigError("matrix.values", "required for source 'explicit'")
        matrix = _read("matrix.values", _matrix, values)
        report["explicit"] = _stability_entry(matrix, orders)
    else:
        entries = []
        for state in _read("financial", financial_equilibria, fp):
            entry = _stability_entry(financial_jacobian(state, fp), orders)
            entry["state"] = state.tolist()
            entries.append(entry)
        thresholds = [e["chaos_threshold"] for e in entries if e["chaos_threshold"] is not None]
        system_threshold = max(thresholds) if thresholds else None
        report["equilibria"] = entries
        report["chaos_threshold"] = system_threshold
        if system_threshold is not None:
            report["reference"] = {
                "reported_onset": FINANCIAL_CHAOS_ONSET_REFERENCE,
                "delta": system_threshold - FINANCIAL_CHAOS_ONSET_REFERENCE,
            }

    _refuse_leftovers(spec, "stability", "matrix.")
    outdir = _outdir(args, cfg)
    _write_report(outdir / "report.json", report)
    print(f"stability: source {source}")
    print(f"wrote {outdir / 'report.json'}")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    # The refinement study is pinned: it reads no key, so any key is refused.
    outdir = _outdir(args, _load_config(args))
    t0 = time.perf_counter()
    cases, ok = experiments.convergence_selftest()
    elapsed = time.perf_counter() - t0
    report = {
        "command": "convergence",
        "config": {
            "h0": experiments.CONVERGENCE_H0,
            "levels": experiments.CONVERGENCE_LEVELS,
            "band_halfwidth": experiments.CONVERGENCE_BAND,
        },
        "cases": [c.to_dict() for c in cases],
        "all_in_band": bool(ok),
    }
    _write_report(outdir / "report.json", report)
    for c in cases:
        status = "in band" if c.in_band else "OUT OF BAND"
        orders_text = ", ".join(f"{v:.3f}" for v in c.report.orders)
        print(f"q = {c.q:g}: orders [{orders_text}] vs {c.band[0]:g}..{c.band[1]:g} ({status})")
    print(f"convergence study finished in {elapsed:.2f} s; wrote {outdir / 'report.json'}")
    return EXIT_OK if ok else EXIT_BAND


_COMMANDS = {
    "simulate": _cmd_simulate,
    "synchronize": _cmd_synchronize,
    "stability": _cmd_stability,
    "convergence": _cmd_convergence,
}


def _outdir(args, cfg: dict) -> Path:
    """The output directory, created once every key of `cfg` has been read."""
    _refuse_leftovers(cfg, args.command)
    outdir = Path(args.out) if args.out is not None else Path("out") / args.command
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsync",
        description="Fractional-order chaotic systems: simulation, synchronization, stability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "integrate one system and write its trajectory",
        "synchronize": "run the driven pair and write errors and controls",
        "stability": "eigenvalue and argument-criterion report for a matrix",
        "convergence": "step-halving self test on a known solution",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default out/<command>)")
        if name in ("simulate", "synchronize"):
            p.add_argument("--h", type=float, help="step size override")
            p.add_argument("--t-end", type=float, dest="t_end", help="horizon override")
            p.add_argument("--memory", help="history policy: full, last:<k>, or an integer")
        if name in ("simulate", "synchronize", "stability"):
            p.add_argument(
                "--orders",
                type=float,
                nargs="+",
                help="derivative orders override (1 or 3 values)",
            )
        if name in ("synchronize", "stability"):
            p.add_argument("--mode", choices=["exact", "literal"], help="controller family")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
