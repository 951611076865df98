"""Command line front end.

Four subcommands: simulate, synchronize, stability, convergence. Each
reads an optional JSON config, applies flag overrides, validates fully
before touching the filesystem, and then writes its artifacts into the
output directory: trajectory.csv for time series and report.json for
everything else. Reports embed the resolved configuration and contain
no wall-clock data, so a rerun with the same inputs is byte-identical;
timing is printed to stdout only. The "backend" entry of simulate and
synchronize reports always reads "numpy", the one integration driver;
it stays so that reports keep the bytes they had when a second driver
existed.

Exit codes: 0 success, 2 invalid configuration, 3 run left the finite
range (partial trajectory retained), 4 convergence order out of band.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import control as ctl
from . import experiments
from .errors import ConfigError, InvalidGain
from .solver import SolverConfig
from .systems import (
    FINANCIAL_CHAOS_ONSET_REFERENCE,
    FinancialParams,
    FractionalOrders,
    VoltaParams,
    financial_equilibria,
    financial_jacobian,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_BAND = 4

_DEFAULT_H = 0.0005
_SIM_T_END = 50.0
_SYNC_T_END = 10.0
_DEFAULT_TOL = 1e-3
_DEFAULT_IC = {
    "financial": (2.0, -1.0, 1.0),
    "volta": (8.0, 2.0, 3.0),
    "zero": (0.0, 0.0, 0.0),
}

_COMMON_KEYS = {"h", "t_end", "orders", "memory", "financial", "volta"}
_KNOWN_KEYS = _COMMON_KEYS | {
    "system",
    "initial_state",
    "mode",
    "lambda",
    "gain",
    "master_initial",
    "slave_initial",
    "sync_tol",
    "matrix",
}


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
    for key in cfg:
        if key not in _KNOWN_KEYS:
            raise ConfigError("config", f"unknown key {key!r}")
    if getattr(args, "h", None) is not None:
        cfg["h"] = args.h
    if getattr(args, "t_end", None) is not None:
        cfg["t_end"] = args.t_end
    overrides = getattr(args, "orders", None)
    if overrides is not None:
        if len(overrides) == 1:
            cfg["orders"] = overrides[0]
        elif len(overrides) == 3:
            cfg["orders"] = list(overrides)
        else:
            raise ConfigError("orders", f"expected 1 or 3 values, got {len(overrides)}")
    if getattr(args, "mode", None) is not None:
        cfg["mode"] = args.mode
    if getattr(args, "memory", None) is not None:
        cfg["memory"] = args.memory
    return cfg


def _no_bools(key, raw):
    """Return raw, raising ConfigError if it holds a JSON true or false.

    Python's float() and int() read booleans as 1 and 0, so without this
    check `"h": true` would run with h = 1. Nested lists are searched too.
    """
    if isinstance(raw, bool):
        raise ConfigError(key, f"expected a number, got {json.dumps(raw)}")
    if isinstance(raw, (list, tuple)):
        for v in raw:
            _no_bools(key, v)
    return raw


def _as_float(cfg, key, default, *, positive=False):
    raw = _no_bools(key, cfg.get(key, default))
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(key, f"expected a number, got {raw!r}")
    if not np.isfinite(val):
        raise ConfigError(key, f"must be finite, got {raw!r}")
    if positive and val <= 0:
        raise ConfigError(key, f"must be positive, got {raw!r}")
    return val


def _as_vec3(cfg, key, default):
    raw = _no_bools(key, cfg.get(key, default))
    try:
        vec = [float(v) for v in raw]
    except (TypeError, ValueError):
        raise ConfigError(key, f"expected 3 numbers, got {raw!r}")
    if len(vec) != 3 or not all(np.isfinite(v) for v in vec):
        raise ConfigError(key, f"expected 3 finite numbers, got {raw!r}")
    return vec


def _as_orders(cfg) -> FractionalOrders:
    raw = _no_bools("orders", cfg.get("orders", 0.99))
    if isinstance(raw, (int, float)):
        raw = (raw, raw, raw)
    try:
        return FractionalOrders(tuple(raw))
    except (TypeError, ValueError) as exc:
        raise ConfigError("orders", str(exc))


def _as_memory(cfg):
    raw = _no_bools("memory", cfg.get("memory", "full"))
    if raw is None or raw == "full":
        return None
    if isinstance(raw, dict) and set(raw) == {"last"}:
        raw = f"last:{raw['last']}"
    if isinstance(raw, str) and raw.startswith("last:"):
        raw = raw[5:]
    try:
        k = int(raw)
    except (TypeError, ValueError):
        raise ConfigError("memory", f"expected 'full', 'last:<k>' or an integer, got {raw!r}")
    if k < 1:
        raise ConfigError("memory", f"window must be at least 1, got {k}")
    return k


def _subparams(cfg, key, cls, fields):
    raw = cfg.get(key, {})
    if not isinstance(raw, dict):
        raise ConfigError(key, f"expected an object, got {raw!r}")
    for sub in raw:
        if sub not in fields:
            raise ConfigError(key, f"unknown parameter {sub!r}")
    kwargs = {}
    for sub, val in raw.items():
        try:
            kwargs[sub] = float(_no_bools(f"{key}.{sub}", val))
        except (TypeError, ValueError):
            raise ConfigError(f"{key}.{sub}", f"expected a number, got {val!r}")
        if not np.isfinite(kwargs[sub]):
            raise ConfigError(f"{key}.{sub}", "must be finite")
    return cls(**kwargs)


def _financial_params(cfg) -> FinancialParams:
    return _subparams(cfg, "financial", FinancialParams, ("alpha", "beta", "gamma"))


def _volta_params(cfg) -> VoltaParams:
    return _subparams(cfg, "volta", VoltaParams, ("a", "b", "c"))


def _grid(cfg, default_t_end):
    h = _as_float(cfg, "h", _DEFAULT_H, positive=True)
    t_end = _as_float(cfg, "t_end", default_t_end, positive=True)
    n_steps = round(t_end / h)
    if n_steps < 1:
        raise ConfigError("t_end", f"horizon {t_end} allows no step at h = {h}")
    if n_steps > 5_000_000:
        raise ConfigError("t_end", f"horizon needs {n_steps} steps; reduce t_end or raise h")
    return h, t_end, int(n_steps)


def _controller(cfg):
    mode = cfg.get("mode", "exact")
    if mode not in ("exact", "literal"):
        raise ConfigError("mode", f"expected 'exact' or 'literal', got {mode!r}")
    if mode == "exact":
        if "gain" in cfg and cfg["gain"] is not None:
            raise ConfigError("gain", "only valid with mode 'literal'")
        lam = _no_bools("lambda", cfg.get("lambda", (-1.0, -1.0, -1.0)))
        if isinstance(lam, (int, float)):
            lam = (lam, lam, lam)
        try:
            lam = tuple(float(v) for v in lam)
        except (TypeError, ValueError):
            raise ConfigError("lambda", f"expected 3 numbers, got {lam!r}")
        try:
            return mode, ctl.ExactCancellation(lam)
        except InvalidGain as exc:
            raise ConfigError("lambda", str(exc))
    if "lambda" in cfg:
        raise ConfigError("lambda", "only valid with mode 'exact'")
    gain = _no_bools("gain", cfg.get("gain"))
    try:
        return mode, ctl.LiteralFeedback(None if gain is None else tuple(map(tuple, gain)))
    except (InvalidGain, TypeError) as exc:
        raise ConfigError("gain", str(exc))


# ---------------------------------------------------------------------------
# Artifact writers.
# ---------------------------------------------------------------------------


def _fmt_float(x) -> str:
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _write_csv(path: Path, header: str, columns) -> None:
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    lines = [header]
    for i in range(cols[0].shape[0]):
        lines.append(",".join(_fmt_float(c[i]) for c in cols))
    path.write_text("\n".join(lines) + "\n")


def _write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def _matrix_list(m: np.ndarray) -> list:
    return [[float(v) for v in row] for row in m]


def _echo_memory(memory) -> object:
    return "full" if memory is None else int(memory)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    name = cfg.get("system", "financial")
    if name not in ("financial", "volta", "zero"):
        raise ConfigError("system", f"expected 'financial', 'volta' or 'zero', got {name!r}")
    fp = _financial_params(cfg)
    vp = _volta_params(cfg)
    orders = _as_orders(cfg)
    h, t_end, n_steps = _grid(cfg, _SIM_T_END)
    memory = _as_memory(cfg)
    ic = _as_vec3(cfg, "initial_state", _DEFAULT_IC[name])

    resolved = {
        "system": name,
        "financial": {"alpha": fp.alpha, "beta": fp.beta, "gamma": fp.gamma},
        "volta": {"a": vp.a, "b": vp.b, "c": vp.c},
        "orders": list(orders.q),
        "h": h,
        "t_end": t_end,
        "n_steps": n_steps,
        "memory": _echo_memory(memory),
        "initial_state": ic,
    }

    outdir = _outdir(args)
    system = experiments.build_system(name, fp, vp)
    config = SolverConfig(h=h, n_steps=n_steps, memory=memory)
    t0 = time.perf_counter()
    run = experiments.run_simulation(system, orders, ic, config)
    elapsed = time.perf_counter() - t0

    traj = run.trajectory
    _write_csv(
        outdir / "trajectory.csv",
        "t,x,y,z",
        [traj.times, traj.states[:, 0], traj.states[:, 1], traj.states[:, 2]],
    )
    report = {
        "command": "simulate",
        "status": "blowup" if run.blowup else "ok",
        "config": resolved,
        "backend": "numpy",
        "rows_written": int(traj.n_points),
        "blowup": run.blowup.to_dict() if run.blowup else None,
        "final_state": [float(v) for v in traj.states[-1]] if traj.n_points else None,
        "files": {"trajectory": "trajectory.csv"},
    }
    _write_report(outdir / "report.json", report)
    print(f"simulate: {name}, {traj.n_points} rows, {elapsed:.2f} s")
    print(f"wrote {outdir / 'trajectory.csv'} and {outdir / 'report.json'}")
    if run.blowup:
        print(f"run left the finite range at step {run.blowup.step} (t = {run.blowup.time:g})")
        return EXIT_BLOWUP
    return EXIT_OK


def _cmd_synchronize(args) -> int:
    cfg = _load_config(args)
    fp = _financial_params(cfg)
    vp = _volta_params(cfg)
    orders = _as_orders(cfg)
    h, t_end, n_steps = _grid(cfg, _SYNC_T_END)
    memory = _as_memory(cfg)
    mode, controller = _controller(cfg)
    master0 = _as_vec3(cfg, "master_initial", _DEFAULT_IC["financial"])
    slave0 = _as_vec3(cfg, "slave_initial", _DEFAULT_IC["volta"])
    tol = _as_float(cfg, "sync_tol", _DEFAULT_TOL, positive=True)

    resolved = {
        "financial": {"alpha": fp.alpha, "beta": fp.beta, "gamma": fp.gamma},
        "volta": {"a": vp.a, "b": vp.b, "c": vp.c},
        "orders": list(orders.q),
        "h": h,
        "t_end": t_end,
        "n_steps": n_steps,
        "memory": _echo_memory(memory),
        "mode": mode,
        "master_initial": master0,
        "slave_initial": slave0,
        "sync_tol": tol,
    }
    if mode == "exact":
        resolved["lambda"] = list(controller.lam)
    else:
        resolved["gain"] = _matrix_list(controller.gain_array(vp))

    outdir = _outdir(args)
    config = SolverConfig(h=h, n_steps=n_steps, memory=memory)
    t0 = time.perf_counter()
    run = experiments.run_synchronization(
        fp, vp, controller, orders, master0, slave0, config, tol
    )
    elapsed = time.perf_counter() - t0

    traj = run.trajectory
    cols = [traj.times]
    cols += [traj.states[:, i] for i in range(6)]
    cols += [traj.errors[:, i] for i in range(3)]
    cols += [traj.controls[:, i] for i in range(3)]
    _write_csv(
        outdir / "trajectory.csv",
        "t,x1,y1,z1,x2,y2,z2,e1,e2,e3,u1,u2,u3",
        cols,
    )
    report = {
        "command": "synchronize",
        "status": "blowup" if run.blowup else "ok",
        "config": resolved,
        "backend": "numpy",
        "rows_written": int(traj.n_points),
        "design_matrix": _matrix_list(run.design_matrix),
        "stability": run.stability.to_dict(),
        "sync": run.summary.to_dict() if run.summary else None,
        "blowup": run.blowup.to_dict() if run.blowup else None,
        "files": {"trajectory": "trajectory.csv"},
    }
    _write_report(outdir / "report.json", report)
    if run.summary and run.summary.sync_time is not None:
        sync_text = f"synchronized at t = {run.summary.sync_time:g}"
    else:
        sync_text = "not synchronized within the horizon"
    print(f"synchronize: mode {mode}, {traj.n_points} rows, {elapsed:.2f} s")
    print(f"{sync_text} (tol = {tol:g})")
    print(f"wrote {outdir / 'trajectory.csv'} and {outdir / 'report.json'}")
    if run.blowup:
        print(f"run left the finite range at step {run.blowup.step} (t = {run.blowup.time:g})")
        return EXIT_BLOWUP
    return EXIT_OK


def _stability_entry(matrix: np.ndarray, orders: FractionalOrders) -> dict:
    report = ctl.matignon_check(matrix, orders)
    entry = {"matrix": _matrix_list(matrix), "stability": report.to_dict()}
    if report.degenerate:
        entry["chaos_threshold"] = None
    else:
        entry["chaos_threshold"] = float(ctl.chaos_threshold(matrix))
    return entry


def _cmd_stability(args) -> int:
    cfg = _load_config(args)
    fp = _financial_params(cfg)
    vp = _volta_params(cfg)
    orders = _as_orders(cfg)
    spec = cfg.get("matrix", {"source": "closed_loop"})
    if not isinstance(spec, dict):
        raise ConfigError("matrix", f"expected an object, got {spec!r}")
    source = spec.get("source", "closed_loop")
    if source not in ("closed_loop", "equilibria", "explicit"):
        raise ConfigError(
            "matrix.source", f"expected 'closed_loop', 'equilibria' or 'explicit', got {source!r}"
        )

    resolved = {
        "financial": {"alpha": fp.alpha, "beta": fp.beta, "gamma": fp.gamma},
        "volta": {"a": vp.a, "b": vp.b, "c": vp.c},
        "orders": list(orders.q),
        "matrix_source": source,
    }
    report: dict = {"command": "stability", "config": resolved}

    if source == "closed_loop":
        mode, controller = _controller(cfg)
        resolved["mode"] = mode
        matrix = controller.design_matrix(vp)
        report["closed_loop"] = _stability_entry(matrix, orders)
    elif source == "explicit":
        values = _no_bools("matrix.values", spec.get("values"))
        if values is None:
            raise ConfigError("matrix.values", "required for source 'explicit'")
        try:
            matrix = np.asarray(values, dtype=np.float64).reshape(3, 3)
        except (TypeError, ValueError):
            raise ConfigError("matrix.values", f"expected a 3x3 matrix, got {values!r}")
        if not np.all(np.isfinite(matrix)):
            raise ConfigError("matrix.values", "entries must be finite")
        report["explicit"] = _stability_entry(matrix, orders)
    else:
        entries = []
        thresholds = []
        for state in financial_equilibria(fp):
            entry = _stability_entry(financial_jacobian(state, fp), orders)
            entry["state"] = [float(v) for v in state]
            entries.append(entry)
            if entry["chaos_threshold"] is not None:
                thresholds.append(entry["chaos_threshold"])
        system_threshold = max(thresholds) if thresholds else None
        report["equilibria"] = entries
        report["chaos_threshold"] = system_threshold
        if system_threshold is not None:
            report["reference"] = {
                "reported_onset": FINANCIAL_CHAOS_ONSET_REFERENCE,
                "delta": system_threshold - FINANCIAL_CHAOS_ONSET_REFERENCE,
            }

    outdir = _outdir(args)
    _write_report(outdir / "report.json", report)
    print(f"stability: source {source}")
    print(f"wrote {outdir / 'report.json'}")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    # The refinement study is pinned; a config file is validated but not consulted.
    _load_config(args)
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
    outdir = _outdir(args)
    _write_report(outdir / "report.json", report)
    for c in cases:
        status = "in band" if c.in_band else "OUT OF BAND"
        orders_text = ", ".join(f"{v:.3f}" for v in c.report.orders)
        print(f"q = {c.q:g}: orders [{orders_text}] vs {c.band[0]:g}..{c.band[1]:g} ({status})")
    print(f"convergence study finished in {elapsed:.2f} s; wrote {outdir / 'report.json'}")
    return EXIT_OK if ok else EXIT_BAND


def _outdir(args) -> Path:
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
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "synchronize":
            return _cmd_synchronize(args)
        if args.command == "stability":
            return _cmd_stability(args)
        return _cmd_convergence(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
