"""Command line front end.

Four subcommands: simulate, synchronize, stability, convergence. `main`
loads the optional JSON config with its flag overrides; each subcommand
then validates fully before anything is written: each key is checked by
the code that reads (pops) it, and a key left over once the subcommand's
reads are done is a config error. simulate, synchronize and stability
read and echo `financial`, `volta` and `orders` whatever the system or
matrix source; every other key is read only where the settings use it
(`lambda` or `gain` by mode, `matrix.values` for an explicit matrix), so
a key that the settings do not use is refused. Each subcommand returns
its report and, for a time series, its table; `main` writes them into
the output directory (trajectory.csv for the table, report.json for the
report) and takes the exit code from the report. Reports embed the resolved
configuration and contain no wall-clock data, so a rerun with the same
inputs is byte-identical; timing is printed to stdout only.

Exit codes: 0 success, 2 invalid configuration or an unreadable config
or unwritable artifact, 3 run left the finite range (partial trajectory
retained), 4 convergence order out of band.
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
from .errors import ConfigError, InvalidInput
from .solver import SolverConfig
from .systems import (
    FINANCIAL_CHAOS_ONSET_REFERENCE,
    FinancialParams,
    FractionalOrders,
    VoltaParams,
    financial_equilibria,
    financial_jacobian,
    number_array,
    order_array,
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
        if not path.is_file():  # checked before reading, which would block on a FIFO
            problem = "not a file" if path.exists() else "file not found"
            raise ConfigError("config", f"{problem}: {path}")
        try:
            cfg = json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError("config", f"not UTF-8 text in {path}: {exc}")
        except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting recurses
            raise ConfigError("config", f"invalid JSON in {path}: {exc}")
        except OSError as exc:
            raise ConfigError("config", f"cannot read {path}: {exc.strerror}")
        if not isinstance(cfg, dict):
            raise ConfigError("config", "top level must be a JSON object")
    for key in _COMMANDS[args.command][2]:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    return cfg


def _refuse_leftovers(cfg: dict, where: str, prefix: str = "") -> None:
    """ConfigError naming the keys of `cfg` that the reads of `where` did not consume."""
    if cfg:
        keys = ", ".join(prefix + key for key in cfg)
        raise ConfigError(keys, f"not used by {where} with these settings")


def _read(key, build, *args):
    """build(*args), with the package's refusal, InvalidInput, reported as ConfigError(key).

    The config layer holds no input rule of its own: each builder is the
    package code that owns the rule, and its message is reported under
    the key. Any other exception is a fault and propagates.
    """
    try:
        return build(*args)
    except InvalidInput as exc:
        raise ConfigError(key, str(exc))


def _vec3(raw) -> list:
    return number_array(raw, "value", (3,)).tolist()


def _full(raw) -> str:
    if raw != "full":
        raise InvalidInput(f"expected 'full', the one history policy, got {raw!r}")
    return raw


def _matrix(raw) -> np.ndarray:
    """3x3 matrix given as three rows or as the flat list of nine numbers."""
    arr = number_array(raw, "value")
    return number_array(arr, "value", (9,) if arr.ndim == 1 else (3, 3)).reshape(3, 3)


def _params(cfg, key, cls):
    raw = cfg.pop(key, {})
    if not isinstance(raw, dict):
        raise ConfigError(key, f"expected an object, got {raw!r}")
    fields = [f.name for f in dataclasses.fields(cls)]
    for sub in raw:
        if sub not in fields:
            raise ConfigError(key, f"unknown parameter {sub!r}")
    return cls(**{k: _read(f"{key}.{k}", number_array, v, "value", ()) for k, v in raw.items()})


def _model(cfg):
    """Both systems' parameters and the orders, with their echo for the report."""
    fp = _params(cfg, "financial", FinancialParams)
    vp = _params(cfg, "volta", VoltaParams)
    orders = _read("orders", order_array, cfg.pop("orders", FractionalOrders.q), (3,))
    echo = {
        "financial": dataclasses.asdict(fp),
        "volta": dataclasses.asdict(vp),
        "orders": orders.tolist(),
    }
    return fp, vp, orders, echo


def _grid(cfg, default_t_end):
    """SolverConfig from h and t_end, with its echo for the report.

    Every run keeps its full history, so "full" is the one accepted
    `memory`. The report still echoes it, so that reports keep the bytes
    they had when a second history policy existed.
    """
    h = _read("h", positive_number, cfg.pop("h", _DEFAULT_H), "value")
    t_end = _read("t_end", positive_number, cfg.pop("t_end", default_t_end), "value")
    config = _read("t_end", SolverConfig.for_horizon, h, t_end)
    memory = _read("memory", _full, cfg.pop("memory", "full"))
    return config, {"h": h, "t_end": t_end, "n_steps": config.n_steps, "memory": memory}


# Controller mode -> (the key of its rates or gain, its class). An absent key
# builds the class's own default.
_MODES = {"exact": ("lambda", ctl.ExactCancellation), "literal": ("gain", ctl.LiteralFeedback)}


def _controller(cfg, vp, orders):
    """Controller, its echo (mode, then its rates or gain), and its closed-loop verdict.

    The verdict is the `_stability_entry` of the controller's design
    matrix. `synchronize` and `stability` both report the echo in their
    config and the verdict as "closed_loop"; this is the one place that
    takes them. A design matrix or spectrum that overflows is a
    ConfigError on the controller's own key, lambda or gain.
    """
    mode = cfg.pop("mode", "exact")
    if not isinstance(mode, str) or mode not in _MODES:
        raise ConfigError("mode", f"expected 'exact' or 'literal', got {mode!r}")
    key, cls = _MODES[mode]
    controller = _read(key, cls, cfg.pop(key)) if key in cfg else cls()
    values = controller.gain_array(vp) if mode == "literal" else np.array(controller.lam)
    matrix = _read(key, controller.design_matrix, vp)
    return controller, {"mode": mode, key: values.tolist()}, _stability_entry(key, matrix, orders)


# ---------------------------------------------------------------------------
# Artifact writers.
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: str, columns) -> None:
    """Write equal-length columns as CSV rows under `header`.

    Each value is its shortest round-trip `repr`, with the ".0" of an
    integral value dropped ("2" for 2.0, "-0" for -0.0; "nan" and "inf"
    as they are). The table is formatted and written _CSV_CHUNK rows at a
    time, so no whole-table copy or list of lines is ever held.

    orjson formats a chunk as one JSON array of rows, with the shortest
    round-trip digits `repr` writes (Ryu; Adams, PLDI 2018) in about a
    fifth of its time, and "],[" between rows becomes a line break.
    orjson's text and `repr`'s differ only for special values:
    - NaN, and magnitudes that are zero or below 1e-4: orjson writes
      `null` for NaN, and "0.000032" where `repr` writes "3.2e-05";
    - integral values, which include the infinities and every magnitude
      from 2^52 up: orjson writes `null` for an infinity and "1e16" where
      `repr` writes "1e+16", and an integral value's ".0" is dropped.
    The special values are formatted by `repr` in one "%r,...,%r," pass.
    `repr` never writes ".0e", so a ".0" before a comma always ends its
    value and one `replace` strips them all. They are set to NaN in the
    chunk before orjson formats it, each `null` becomes "%s", and one `%`
    puts their text in place; orjson writes no "%" of its own.
    """
    # Imported here: at module top it adds about 3 ms to every start and
    # 0.5 MB to runs that never write a CSV.
    import orjson

    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\n")
        for i in range(0, cols[0].shape[0], _CSV_CHUNK):
            block = np.column_stack([c[i : i + _CSV_CHUNK] for c in cols])
            special = ~(np.abs(block) >= 1e-4) | (block == np.trunc(block))
            values = block[special].tolist()
            texts = (b"%r," * len(values) % tuple(values)).replace(b".0,", b",").split(b",")
            block[special] = np.nan
            text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
            text = text.replace(b"],[", b"\n").replace(b"null", b"%s")
            fh.write(text % tuple(texts[:-1]) + b"\n")


def _write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def _write(outdir: Path, report: dict, table) -> None:
    """Write trajectory.csv from `table` (header, columns), if given, then report.json.

    A file that cannot be written is a ConfigError on "out" naming it; a
    file written before the failure stays.
    """
    path = outdir / "trajectory.csv"
    try:
        if table:
            _write_csv(path, *table)
        path = outdir / "report.json"
        _write_report(path, report)
    except OSError as exc:
        # Name the file here: an error of write itself, such as ENOSPC, carries no filename.
        raise ConfigError("out", f"cannot write {path}: {exc.strerror}")
    print(f"wrote {outdir / 'trajectory.csv'} and {path}" if table else f"wrote {path}")


def _run_report(run, resolved: dict, entries: dict) -> dict:
    """A simulate or synchronize report body: `entries` in order, then "blowup" and "files"."""
    return {
        "status": "blowup" if run.blowup else "ok",
        "config": resolved,
        "rows_written": int(run.trajectory.n_points),
        **entries,
        "blowup": run.blowup.to_dict() if run.blowup else None,
        "files": {"trajectory": "trajectory.csv"},
    }


# ---------------------------------------------------------------------------
# Subcommands. Each reads its keys from the loaded config, runs, and returns
# (outdir, report, table); `main` writes them and sets the exit code.
# ---------------------------------------------------------------------------


def _timed(run, *args):
    """run(*args) and its wall seconds, which go to stdout and never into a report."""
    t0 = time.perf_counter()
    result = run(*args)
    return result, time.perf_counter() - t0


def _cmd_simulate(args, cfg):
    fp, vp, orders, model = _model(cfg)
    name = cfg.pop("system", "financial")
    system = _read("system", experiments.build_system, name, fp, vp)
    config, grid = _grid(cfg, _SIM_T_END)
    ic = _read("initial_state", _vec3, cfg.pop("initial_state", experiments.SYSTEMS[name][1]))
    resolved = {"system": name, **model, **grid, "initial_state": ic}

    outdir = _outdir(args, cfg)
    run, elapsed = _timed(experiments.run_simulation, system, orders, ic, config)

    traj = run.trajectory
    print(f"simulate: {name}, {traj.n_points} rows, {elapsed:.2f} s")
    entries = {"final_state": traj.states[-1].tolist()}
    return outdir, _run_report(run, resolved, entries), ("t,x,y,z", [traj.times, *traj.states.T])


def _cmd_synchronize(args, cfg):
    fp, vp, orders, model = _model(cfg)
    config, grid = _grid(cfg, _SYNC_T_END)
    controller, echo, verdict = _controller(cfg, vp, orders)
    (_, master_ic), (_, slave_ic) = experiments.SYSTEMS["financial"], experiments.SYSTEMS["volta"]
    master0 = _read("master_initial", _vec3, cfg.pop("master_initial", master_ic))
    slave0 = _read("slave_initial", _vec3, cfg.pop("slave_initial", slave_ic))
    tol = _read("sync_tol", positive_number, cfg.pop("sync_tol", _DEFAULT_TOL), "value")
    resolved = {**model, **grid, **echo, "master_initial": master0,
                "slave_initial": slave0, "sync_tol": tol}

    outdir = _outdir(args, cfg)
    run, elapsed = _timed(experiments.run_synchronization,
                          fp, vp, controller, orders, master0, slave0, config, tol)

    traj = run.trajectory
    if run.summary and run.summary.sync_time is not None:
        sync_text = f"synchronized at t = {run.summary.sync_time:g}"
    else:
        sync_text = "not synchronized within the horizon"
    print(f"synchronize: mode {echo['mode']}, {traj.n_points} rows, {elapsed:.2f} s")
    print(f"{sync_text} (tol = {tol:g})")
    entries = {"closed_loop": verdict, "sync": run.summary.to_dict() if run.summary else None}
    columns = [traj.times, *traj.states.T, *traj.errors.T, *traj.controls.T]
    header = "t,x1,y1,z1,x2,y2,z2,e1,e2,e3,u1,u2,u3"
    return outdir, _run_report(run, resolved, entries), (header, columns)


def _stability_entry(key: str, matrix: np.ndarray, orders: np.ndarray) -> dict:
    """Report entry of `matrix`, whose spectrum `eigen3` may refuse as a ConfigError(key)."""
    report = _read(key, ctl.matignon_check, matrix, orders)
    return {
        "matrix": matrix.tolist(),
        "stability": report.to_dict(),
        "chaos_threshold": report.chaos_threshold,
    }


def _cmd_stability(args, cfg):
    fp, vp, orders, model = _model(cfg)
    spec = cfg.pop("matrix", {})
    if not isinstance(spec, dict):
        raise ConfigError("matrix", f"expected an object, got {spec!r}")
    source = spec.pop("source", "closed_loop")
    resolved = {**model, "matrix_source": source}
    report: dict = {"config": resolved}

    if source == "closed_loop":
        _, echo, report["closed_loop"] = _controller(cfg, vp, orders)
        resolved.update(echo)
    elif source == "explicit":
        values = spec.pop("values", None)
        if values is None:
            raise ConfigError("matrix.values", "required for source 'explicit'")
        matrix = _read("matrix.values", _matrix, values)
        report["explicit"] = _stability_entry("matrix.values", matrix, orders)
    elif source == "equilibria":
        entries = []
        for state in _read("financial", financial_equilibria, fp):
            entry = _stability_entry("financial", financial_jacobian(state, fp), orders)
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
    else:
        raise ConfigError(
            "matrix.source", f"expected 'closed_loop', 'equilibria' or 'explicit', got {source!r}"
        )

    _refuse_leftovers(spec, "stability", "matrix.")
    outdir = _outdir(args, cfg)
    print(f"stability: source {source}")
    return outdir, report, None


def _cmd_convergence(args, cfg):
    # The refinement study is pinned: it reads no key, so any key is refused.
    outdir = _outdir(args, cfg)
    (cases, ok), elapsed = _timed(experiments.convergence_selftest)
    report = {
        "config": {
            "h0": experiments.CONVERGENCE_H0,
            "levels": experiments.CONVERGENCE_LEVELS,
            "band_halfwidth": experiments.CONVERGENCE_BAND,
        },
        "cases": [c.to_dict() for c in cases],
        "all_in_band": bool(ok),
    }
    for c in cases:
        status = "in band" if c.in_band else "OUT OF BAND"
        orders_text = ", ".join(f"{v:.3f}" for v in c.report.orders)
        print(f"q = {c.q:g}: orders [{orders_text}] vs {c.band[0]:g}..{c.band[1]:g} ({status})")
    print(f"convergence study finished in {elapsed:.2f} s")
    return outdir, report, None


# Each flag overrides the config key of its name; --t-end sets t_end.
_FLAGS = {
    "h": {"type": float, "help": "step size override"},
    "t_end": {"type": float, "help": "horizon override"},
    "orders": {"type": float, "nargs": "+", "help": "derivative orders override (1 or 3 values)"},
    "mode": {"help": "controller family: exact or literal"},
}

# Subcommand -> (handler, help text, the flags it takes in --help order).
_COMMANDS = {
    "simulate": (_cmd_simulate, "integrate one system and write its trajectory",
                 ("h", "t_end", "orders")),
    "synchronize": (_cmd_synchronize, "run the driven pair and write errors and controls",
                    ("h", "t_end", "orders", "mode")),
    "stability": (_cmd_stability, "eigenvalue and argument-criterion report for a matrix",
                  ("orders", "mode")),
    "convergence": (_cmd_convergence, "step-halving self test on a known solution", ()),
}


def _outdir(args, cfg: dict) -> Path:
    """The output directory, created once every key of `cfg` has been read."""
    _refuse_leftovers(cfg, args.command)
    if args.out == "":  # Path("") is the working directory
        raise ConfigError("out", "expected a directory, got an empty path")
    outdir = Path(args.out) if args.out is not None else Path("out") / args.command
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", f"cannot create directory {outdir}: {exc.strerror}")
    return outdir


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsync",
        description="Fractional-order chaotic systems: simulation, synchronization, stability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        # No prefixes: "stability --h 0.1" would otherwise be read as --help.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default out/<command>)")
        for key in flags:
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        outdir, report, table = _COMMANDS[args.command][0](args, _load_config(args))
        _write(outdir, {"command": args.command, **report}, table)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    blowup = report.get("blowup")
    if blowup:
        print(f"run left the finite range at step {blowup['step']} (t = {blowup['time']:g})")
        return EXIT_BLOWUP
    return EXIT_BAND if report.get("all_in_band") is False else EXIT_OK


def entry() -> None:
    sys.exit(main())
