"""Command line behavior: artifacts, exit codes, config validation."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracsync
from fracsync import VoltaParams, cli, closed_loop_error_matrix
from fracsync.cli import EXIT_BAND, EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, main


def _run(*argv):
    return main([str(a) for a in argv])


def _refuse_constant(name):
    raise ValueError(f"report.json holds {name}, which is not JSON")


def _report(outdir):
    # Strict JSON (RFC 8259): Python's json writes inf and nan as bare Infinity and NaN.
    return json.loads((outdir / "report.json").read_text(), parse_constant=_refuse_constant)


def _csv(outdir):
    text = (outdir / "trajectory.csv").read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    return lines[0], lines[1:]


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestSimulate:
    def test_default_financial_run(self, tmp_path):
        out = tmp_path / "sim"
        code = _run("simulate", "--h", 0.01, "--t-end", 1.0, "--out", out)
        assert code == EXIT_OK
        header, rows = _csv(out)
        assert header == "t,x,y,z"
        assert rows[0] == "0,2,-1,1"
        assert len(rows) == 101
        report = _report(out)
        assert report["command"] == "simulate"
        assert report["status"] == "ok"
        assert report["config"]["system"] == "financial"
        assert report["config"]["h"] == 0.01
        assert report["config"]["n_steps"] == 100
        assert report["config"]["memory"] == "full"
        assert "backend" not in report
        assert report["rows_written"] == 101
        assert report["blowup"] is None
        assert len(report["final_state"]) == 3
        assert report["files"] == {"trajectory": "trajectory.csv"}

    def test_volta_default_initial_state(self, tmp_path):
        out = tmp_path / "sim"
        cfg = _write_config(tmp_path, {"system": "volta"})
        code = _run("simulate", "--config", cfg, "--h", 0.005, "--t-end", 0.5, "--out", out)
        assert code == EXIT_OK
        _, rows = _csv(out)
        assert rows[0] == "0,8,2,3"

    def test_zero_system_stays_put(self, tmp_path):
        out = tmp_path / "sim"
        cfg = _write_config(tmp_path, {"system": "zero", "orders": 0.7})
        code = _run("simulate", "--config", cfg, "--h", 0.1, "--t-end", 1.0, "--out", out)
        assert code == EXIT_OK
        _, rows = _csv(out)
        assert rows[5] == "0.5,0,0,0"
        assert all(r.endswith(",0,0,0") for r in rows)

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert _run("simulate", "--h", 0.005, "--t-end", 1.0, "--out", out) == EXIT_OK
        assert (first / "trajectory.csv").read_bytes() == (second / "trajectory.csv").read_bytes()
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()

    def test_blowup_keeps_partial_rows(self, tmp_path):
        out = tmp_path / "sim"
        cfg = _write_config(tmp_path, {"financial": {"alpha": -1000.0}})
        code = _run("simulate", "--config", cfg, "--h", 0.01, "--t-end", 4.0, "--out", out)
        assert code == EXIT_BLOWUP
        report = _report(out)
        assert report["status"] == "blowup"
        step = report["blowup"]["step"]
        assert step >= 1
        assert report["rows_written"] == step
        _, rows = _csv(out)
        assert len(rows) == step
        for row in rows:
            assert all(np.isfinite(float(v)) for v in row.split(","))


# Values whose shortest repr ends in ".0", carries an exponent, or is not a number.
CSV_VALUES = [
    0.0, -0.0, 2.0, -3.0, 1e15, 1e16, 1e22,
    5e-324, 1e-05, 10.05, 100.0001, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
]
CHUNK = cli._CSV_CHUNK


def _value_text(x):
    # The per-value format the chunked writer must reproduce.
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


# The writer builds its row format from the column count, so each width is
# checked: 4 (simulate, whose ids are the row count alone), 13 (synchronize)
# and 1.
@pytest.mark.parametrize(
    "n_rows,n_cols",
    [
        pytest.param(n_rows, n_cols, id=str(n_rows) if n_cols == 4 else f"{n_rows}-{n_cols}cols")
        for n_cols in (4, 1, 13)
        for n_rows in (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)
    ],
)
def test_csv_matches_the_per_value_format(tmp_path, n_rows, n_cols):
    columns = [np.resize(np.roll(CSV_VALUES, k), n_rows) for k in range(n_cols)]
    header = ",".join(f"c{k}" for k in range(n_cols))
    path = tmp_path / "trajectory.csv"
    cli._write_csv(path, header, columns)
    rows = [",".join(_value_text(c[i]) for c in columns) for i in range(n_rows)]
    assert path.read_bytes() == "\n".join([header, *rows, ""]).encode()


def _assert_written_per_value(tmp_path, columns):
    header = ",".join(f"c{k}" for k in range(len(columns)))
    path = tmp_path / "trajectory.csv"
    cli._write_csv(path, header, columns)
    rows = [",".join(_value_text(v) for v in row) for row in zip(*columns)]
    assert path.read_bytes() == "\n".join([header, *rows, ""]).encode()


def test_csv_matches_the_per_value_format_on_random_bit_patterns(tmp_path):
    # orjson formats every value in [1e-4, 1e16) that is not integral;
    # uniform bit patterns weigh every binade of that range alike.
    rng = np.random.default_rng(20261020)
    lo, hi = np.array([1e-4, 1e16]).view(np.int64)
    values = rng.integers(lo, hi, 200_000).view(np.float64)
    values *= rng.choice([-1.0, 1.0], values.size)
    _assert_written_per_value(tmp_path, list(values.reshape(4, -1)))


def test_csv_matches_the_per_value_format_at_the_orjson_range_ends(tmp_path):
    values = []
    for end in (1e-4, -1e-4, 1e16, -1e16):
        below = above = end
        for _ in range(8):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 2 * end)
            values += [below, above]
        values.append(end)
    _assert_written_per_value(tmp_path, [np.array(values)])


# Values that `repr` formats: zeros, subnormals, magnitudes below 1e-4 or
# from 1e16, integral values and non-finite ones.
SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, -2.225e-308, 1e-7, -3.2e-05, 9.999999999999999e-05,
    2.0, -3.0, 4503599627370497.0, 1e16, -1.2345678901234568e16, 1e22,
    1.7976931348623157e308, math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("n_cols", [1, 4, 13])
def test_csv_matches_the_per_value_format_when_every_value_is_special(tmp_path, n_cols):
    n_rows = CHUNK + 3
    columns = [np.resize(np.roll(SPECIAL_VALUES, k), n_rows) for k in range(n_cols)]
    _assert_written_per_value(tmp_path, columns)


def test_importing_the_cli_leaves_orjson_unloaded():
    # Only the CSV writer needs orjson, so only a run that writes a CSV loads it.
    src = str(Path(fracsync.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, fracsync.cli; print('orjson' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestSimulateValidation:
    def _expect_config_error(self, tmp_path, capsys, *argv, field):
        out = tmp_path / "never"
        code = _run(*argv, "--out", out)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err
        assert field in err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        self._expect_config_error(
            tmp_path, capsys, "simulate", "--config", tmp_path / "nope.json", field="config"
        )

    @pytest.mark.parametrize("name,problem", [("nope.json", "file not found"),
                                              (".", "not a file")])
    def test_a_config_path_that_is_not_a_file_is_named_as_such(self, tmp_path, capsys, name,
                                                                problem):
        # A directory was reported as "file not found".
        path = tmp_path / name
        assert _run("stability", "--config", path, "--out", tmp_path / "never") == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config: {problem}: {path}\n"
        assert not (tmp_path / "never").exists()

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        self._expect_config_error(tmp_path, capsys, "simulate", "--config", bad, field="config")

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{}")
        self._expect_config_error(tmp_path, capsys, "simulate", "--config", bad, field="config")

    def test_config_nested_past_the_recursion_limit(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        self._expect_config_error(tmp_path, capsys, "simulate", "--config", deep, field="config")

    def test_non_object_top_level(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        self._expect_config_error(tmp_path, capsys, "simulate", "--config", bad, field="config")

    def test_unknown_key(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"wat": 1})
        self._expect_config_error(tmp_path, capsys, "simulate", "--config", cfg, field="wat")

    def test_unknown_system(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"system": "lorenz"})
        self._expect_config_error(tmp_path, capsys, "simulate", "--config", cfg, field="system")

    def test_order_out_of_range(self, tmp_path, capsys):
        self._expect_config_error(tmp_path, capsys, "simulate", "--orders", 0.0, field="orders")

    def test_two_order_values(self, tmp_path, capsys):
        self._expect_config_error(
            tmp_path, capsys, "simulate", "--orders", 0.9, 0.8, field="orders"
        )

    def test_string_orders(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"orders": "0.9"})
        self._expect_config_error(tmp_path, capsys, "simulate", "--config", cfg, field="orders")

    def test_bad_memory_string(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"memory": "sometimes"})
        self._expect_config_error(tmp_path, capsys, "simulate", "--config", cfg, field="memory")

    @pytest.mark.parametrize(
        "text",
        ['{"memory": 2.5}', '{"memory": 1e400}', '{"memory": 0}', '{"memory": {"last": true}}',
         '{"memory": "4_0"}', '{"memory": " 40 "}', '{"memory": "last: 40"}',
         '{"memory": "+40"}', '{"memory": "\\u0664\\u0660"}', '{"memory": {"last": " 40"}}',
         '{"memory": {"last": "40"}}', '{"memory": "last:50"}', '{"memory": "64"}',
         '{"memory": 40}', '{"memory": {"last": 40}}', '{"memory": null}'],
    )
    def test_bad_memory_window(self, tmp_path, capsys, text):
        # Every run keeps its full history, so "full" is the one memory value; window
        # forms such as "last:50", "64", 40 and {"last": 40} are refused like any other.
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        self._expect_config_error(tmp_path, capsys, "simulate", "--config", cfg, field="memory")

    def test_horizon_that_rounds_to_no_step(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"h": 1.0, "t_end": 0.1})
        assert _run("simulate", "--config", cfg, "--out", tmp_path / "never") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: t_end: horizon 0.1 allows no step at h = 1.0\n"
        assert not (tmp_path / "never").exists()

    def test_horizon_whose_step_count_overflows(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"h": 1e-300, "t_end": 1e300})
        assert _run("simulate", "--config", cfg, "--out", tmp_path / "never") == EXIT_CONFIG
        want = "config error: t_end: horizon 1e+300 needs more than 5000000 steps at h = 1e-300\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "never").exists()

    def test_horizon_past_the_step_cap_is_refused_in_one_short_line(self, tmp_path, capsys):
        # The refusal names the cap, not the 1e300-step count the horizon asks for.
        cfg = _write_config(tmp_path, {"h": 1e-300, "t_end": 1})
        assert _run("simulate", "--config", cfg, "--out", tmp_path / "never") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: t_end: ") and len(err) < 120
        assert not (tmp_path / "never").exists()

    def test_model_parameters_that_are_not_an_object(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"financial": 3})
        assert _run("simulate", "--config", cfg, "--out", tmp_path / "never") == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: financial: expected an object, got 3\n"
        assert not (tmp_path / "never").exists()

    def test_nonpositive_step(self, tmp_path, capsys):
        self._expect_config_error(tmp_path, capsys, "simulate", "--h", -0.1, field="h")

    def test_step_budget_cap(self, tmp_path, capsys):
        self._expect_config_error(
            tmp_path, capsys, "simulate", "--h", 1e-6, "--t-end", 10.0, field="t_end"
        )

    def test_short_initial_state(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"initial_state": [1.0, 2.0]})
        self._expect_config_error(
            tmp_path, capsys, "simulate", "--config", cfg, field="initial_state"
        )

    def test_unknown_system_parameter(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"financial": {"delta": 1.0}})
        self._expect_config_error(
            tmp_path, capsys, "simulate", "--config", cfg, field="financial"
        )


@pytest.mark.parametrize("command", ["simulate", "synchronize", "stability"])
def test_one_order_reads_alike_as_a_number_a_list_and_a_flag(tmp_path, command):
    # {"orders": [0.9]} was refused ("must have shape (3,)") where 0.9 and
    # --orders 0.9 ran.
    grid = () if command == "stability" else ("--h", 0.01, "--t-end", 0.5)
    number, listed = tmp_path / "number.json", tmp_path / "list.json"
    number.write_text(json.dumps({"orders": 0.9}))
    listed.write_text(json.dumps({"orders": [0.9]}))
    written = []
    for i, argv in enumerate([("--config", number), ("--config", listed), ("--orders", 0.9)]):
        out = tmp_path / f"out{i}"
        assert _run(command, *grid, *argv, "--out", out) == EXIT_OK
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert written[0] == written[1] == written[2]
    assert _report(out)["config"]["orders"] == [0.9, 0.9, 0.9]


@pytest.mark.parametrize("key,value,flag", [("orders", [0.9, 0.9], ("--orders", 0.9, 0.9)),
                                            ("lambda", [-1.0, -1.0], None)],
                         ids=["orders", "lambda"])
def test_a_count_that_does_not_broadcast_reads_alike_from_flag_and_config(
        tmp_path, capsys, key, value, flag):
    # Orders read "must have shape (3,)" and rates "lam must give 3 rates" before;
    # the rates' message named the library's argument, not the config key.
    want = f"config error: {key}: {key} must broadcast to shape (3,), got shape (2,)\n"
    cfg = _write_config(tmp_path, {key: value})
    for argv in [("--config", cfg)] + ([flag] if flag else []):
        assert _run("synchronize", *argv, "--out", tmp_path / "never") == EXIT_CONFIG
        assert capsys.readouterr().err == want
    assert not (tmp_path / "never").exists()


class TestSynchronize:
    def test_exact_mode_artifacts(self, tmp_path):
        out = tmp_path / "sync"
        code = _run("synchronize", "--h", 0.01, "--t-end", 1.0, "--out", out)
        assert code == EXIT_OK
        header, rows = _csv(out)
        assert header == "t,x1,y1,z1,x2,y2,z2,e1,e2,e3,u1,u2,u3"
        assert rows[0] == "0,2,-1,1,8,2,3,6,3,2,43,108.1,-24.19"
        assert len(rows) == 101
        report = _report(out)
        assert report["config"]["mode"] == "exact"
        assert report["config"]["lambda"] == [-1.0, -1.0, -1.0]
        assert report["closed_loop"]["matrix"] == [
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ]
        stab = report["closed_loop"]["stability"]
        assert stab["satisfied"] is True
        assert stab["eigenvalues"] == [[-1.0, 0.0]] * 3
        # one time unit is far too short to settle below the default tol
        assert report["sync"]["sync_time"] is None
        assert report["sync"]["final_below_tol"] is False

    def test_identical_initial_states_settle_immediately(self, tmp_path):
        out = tmp_path / "sync"
        cfg = _write_config(
            tmp_path,
            {"master_initial": [2.0, -1.0, 1.0], "slave_initial": [2.0, -1.0, 1.0]},
        )
        code = _run("synchronize", "--config", cfg, "--h", 0.01, "--t-end", 0.5, "--out", out)
        assert code == EXIT_OK
        report = _report(out)
        assert report["sync"]["sync_time"] == 0.0
        _, rows = _csv(out)
        for row in rows:
            parts = [float(v) for v in row.split(",")]
            assert max(abs(v) for v in parts[7:10]) <= 1e-12

    def test_literal_mode_reports_gain(self, tmp_path):
        out = tmp_path / "sync"
        code = _run(
            "synchronize", "--mode", "literal", "--h", 0.01, "--t-end", 1.0, "--out", out
        )
        assert code == EXIT_OK
        report = _report(out)
        assert report["config"]["mode"] == "literal"
        assert report["config"]["gain"] == [
            [0.0, 19.0, -1.0],
            [11.0, 0.0, 0.0],
            [1.0, 0.0, -1.73],
        ]
        assert "lambda" not in report["config"]
        assert report["closed_loop"]["matrix"] == [
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ]

    def test_scalar_lambda_broadcasts(self, tmp_path):
        out = tmp_path / "sync"
        cfg = _write_config(tmp_path, {"lambda": -2})
        code = _run("synchronize", "--config", cfg, "--h", 0.01, "--t-end", 0.5, "--out", out)
        assert code == EXIT_OK
        report = _report(out)
        assert report["config"]["lambda"] == [-2.0, -2.0, -2.0]
        assert report["closed_loop"]["matrix"][0][0] == -2.0

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert _run("synchronize", "--h", 0.01, "--t-end", 1.0, "--out", out) == EXIT_OK
        assert (first / "trajectory.csv").read_bytes() == (second / "trajectory.csv").read_bytes()
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()

    def test_literal_blowup_is_silent_and_names_its_component(self, tmp_path, capsys, monkeypatch):
        # The design matrix -4500 I puts s = h^q * 4500 near 2.4, past the
        # scheme's stability bound, so roundoff seeds a blowup. The law runs
        # on Python floats in the driver, so overflow writes no warning.
        runs = []
        run_synchronization = cli.experiments.run_synchronization

        def keep_run(*args):
            runs.append(run_synchronization(*args))
            return runs[-1]

        monkeypatch.setattr(cli.experiments, "run_synchronization", keep_run)
        base = closed_loop_error_matrix(np.zeros((3, 3)), VoltaParams())
        gain = (-4500.0 * np.eye(3) - base).tolist()
        cfg = _write_config(tmp_path, {"mode": "literal", "gain": gain, "t_end": 1.0})
        code = _run("synchronize", "--config", cfg, "--out", tmp_path / "sync")
        assert code == EXIT_BLOWUP
        assert capsys.readouterr().err == ""
        assert _report(tmp_path / "sync")["blowup"]["step"] == 302
        assert (runs[0].blowup.step, runs[0].blowup.component) == (302, 4)

    def test_literal_artifacts_do_not_depend_on_the_blas_kernel(self, tmp_path):
        """A literal run under OpenBLAS's Prescott kernel (no FMA) writes the bytes
        of a run under the kernel the CPU selects: no sum of the law goes
        through BLAS. Under a BLAS that ignores OPENBLAS_CORETYPE this reduces
        to a rerun check.
        """
        src = str(Path(fracsync.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outs = []
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            outs.append(tmp_path / f"sync{len(outs)}")
            argv = ["synchronize", "--mode", "literal", "--t-end", "2", "--out", str(outs[-1])]
            proc = subprocess.run([sys.executable, "-m", "fracsync", *argv], env={**env, **extra},
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr
        for name in ("report.json", "trajectory.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({"gain": [[0.0] * 3] * 3}, "gain"),
            ({"mode": "literal", "lambda": -1}, "lambda"),
            ({"lambda": 1.0}, "lambda"),
            ({"mode": "sliding"}, "mode"),
            ({"sync_tol": 0.0}, "sync_tol"),
            ({"master_initial": [1.0]}, "master_initial"),
            ({"mode": "literal", "gain": "abc"}, "gain"),
            ({"mode": "literal", "gain": {"a": 1}}, "gain"),
            ({"mode": "literal", "gain": [["a", "b", "c"]] * 3}, "gain"),
            ({"lambda": [[-1]]}, "lambda"),
        ],
    )
    def test_rejected_configs(self, tmp_path, capsys, payload, field):
        out = tmp_path / "never"
        cfg = _write_config(tmp_path, payload)
        code = _run("synchronize", "--config", cfg, "--out", out)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err
        assert field in err
        assert not out.exists()

    def test_literal_run_takes_its_verdict_once(self, tmp_path, monkeypatch):
        # The design matrix and its spectrum are computed where the controller
        # is read, and the run does not compute them again.
        calls = {"eigen3": 0, "design_matrix": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(cli.ctl, "eigen3", counted("eigen3", cli.ctl.eigen3))
        monkeypatch.setattr(cli.ctl.LiteralFeedback, "design_matrix",
                            counted("design_matrix", cli.ctl.LiteralFeedback.design_matrix))
        out = tmp_path / "sync"
        assert _run("synchronize", "--mode", "literal", "--h", 0.01, "--t-end", 0.1,
                    "--out", out) == EXIT_OK
        assert calls == {"eigen3": 1, "design_matrix": 1}
        assert _report(out)["closed_loop"]["stability"]["satisfied"] is True

    @pytest.mark.parametrize("payload", [
        {"lambda": [-1.0, -2.0, -0.5], "orders": [0.99, 0.95, 0.9]},
        {"mode": "literal", "gain": [[0, 18, -1], [11, 0.5, 0], [1, 0, -2]], "orders": 0.9},
    ], ids=["exact", "literal"])
    def test_verdict_equals_the_stability_report(self, tmp_path, payload):
        cfg = _write_config(tmp_path, payload)
        sync, stab = tmp_path / "sync", tmp_path / "stab"
        assert _run("synchronize", "--config", cfg, "--h", 0.01, "--t-end", 0.1,
                    "--out", sync) == EXIT_OK
        assert _run("stability", "--config", cfg, "--out", stab) == EXIT_OK
        sync_report, stab_report = _report(sync), _report(stab)
        assert sync_report["closed_loop"] == stab_report["closed_loop"]
        key = "gain" if payload.get("mode") == "literal" else "lambda"
        for name in ("mode", key):
            assert sync_report["config"][name] == stab_report["config"][name]


class TestStability:
    def test_closed_loop_default(self, tmp_path):
        out = tmp_path / "stab"
        code = _run("stability", "--out", out)
        assert code == EXIT_OK
        report = _report(out)
        assert report["config"]["matrix_source"] == "closed_loop"
        assert report["config"]["mode"] == "exact"
        entry = report["closed_loop"]
        assert entry["stability"]["satisfied"] is True
        assert entry["chaos_threshold"] == 2.0

    def test_closed_loop_literal_mode(self, tmp_path):
        out = tmp_path / "stab"
        code = _run("stability", "--mode", "literal", "--out", out)
        assert code == EXIT_OK
        report = _report(out)
        assert report["config"]["mode"] == "literal"
        assert report["closed_loop"]["matrix"] == [
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ]

    @pytest.mark.parametrize("argv,payload,echo", [
        ((), {"lambda": -2}, {"mode": "exact", "lambda": [-2.0, -2.0, -2.0]}),
        (("--mode", "literal"), {},
         {"mode": "literal", "gain": [[0.0, 19.0, -1.0], [11.0, 0.0, 0.0], [1.0, 0.0, -1.73]]}),
    ], ids=["lambda", "default-gain"])
    def test_closed_loop_echoes_its_controller(self, tmp_path, argv, payload, echo):
        # The controller is echoed after matrix_source, as synchronize echoes it after the grid.
        out = tmp_path / "stab"
        cfg = _write_config(tmp_path, payload)
        assert _run("stability", *argv, "--config", cfg, "--out", out) == EXIT_OK
        config = _report(out)["config"]
        assert list(config) == ["financial", "volta", "orders", "matrix_source", *echo]
        assert {key: config[key] for key in echo} == echo

    def test_literal_gain_with_repeated_root(self, tmp_path):
        # Design matrix diag(-1, -1, -0.77): a double root at -1 and a real root.
        out = tmp_path / "stab"
        cfg = _write_config(tmp_path, {"gain": [[0, 19, -1], [11, 0, 0], [1, 0, -1.5]]})
        code = _run("stability", "--mode", "literal", "--config", cfg, "--out", out)
        assert code == EXIT_OK
        entry = _report(out)["closed_loop"]
        assert entry["stability"]["min_argument"] == math.pi
        assert entry["chaos_threshold"] == 2.0

    def test_equilibria_survey(self, tmp_path):
        out = tmp_path / "stab"
        cfg = _write_config(tmp_path, {"matrix": {"source": "equilibria"}})
        code = _run("stability", "--config", cfg, "--orders", 0.9, "--out", out)
        assert code == EXIT_OK
        report = _report(out)
        entries = report["equilibria"]
        assert len(entries) == 3
        for entry in entries:
            assert len(entry["state"]) == 3
            assert "stability" in entry
        thresholds = [e["chaos_threshold"] for e in entries]
        assert report["chaos_threshold"] == max(thresholds)
        assert report["chaos_threshold"] == pytest.approx(0.8536482401280289, abs=1e-12)
        ref = report["reference"]
        assert ref["reported_onset"] == 0.8436
        assert ref["delta"] == pytest.approx(0.0100482, abs=1e-6)

    def test_explicit_matrix(self, tmp_path):
        out = tmp_path / "stab"
        cfg = _write_config(
            tmp_path,
            {"matrix": {"source": "explicit", "values": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
        )
        code = _run("stability", "--config", cfg, "--out", out)
        assert code == EXIT_OK
        entry = _report(out)["explicit"]
        assert entry["stability"]["satisfied"] is False
        assert entry["chaos_threshold"] == 0.0

    def test_flat_explicit_matrix(self, tmp_path):
        reports = []
        for values in ([[1.5, -2, 0.3], [4, -1, 2], [-0.7, 3, -2.5]],
                       [1.5, -2, 0.3, 4, -1, 2, -0.7, 3, -2.5]):
            out = tmp_path / str(len(reports))
            cfg = _write_config(tmp_path, {"matrix": {"source": "explicit", "values": values}})
            assert _run("stability", "--config", cfg, "--out", out) == EXIT_OK
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_degenerate_spectrum_reported(self, tmp_path):
        out = tmp_path / "stab"
        cfg = _write_config(
            tmp_path,
            {"matrix": {"source": "explicit", "values": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}},
        )
        code = _run("stability", "--config", cfg, "--out", out)
        assert code == EXIT_OK
        entry = _report(out)["explicit"]
        assert entry["stability"]["degenerate"] is True
        assert entry["chaos_threshold"] is None

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({"matrix": {"source": "spectral"}}, "matrix.source"),
            ({"matrix": {"source": "explicit"}}, "matrix.values"),
            ({"matrix": "closed_loop"}, "matrix"),
            ({"matrix": {"source": "equilibria"}, "financial": {"beta": 0.0}}, "financial"),
        ],
    )
    def test_rejected_configs(self, tmp_path, capsys, payload, field):
        out = tmp_path / "never"
        cfg = _write_config(tmp_path, payload)
        code = _run("stability", "--config", cfg, "--out", out)
        assert code == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()


# Finite entries whose spectrum LAPACK returns with an eigenvalue of +inf.
OVERFLOWING_SPECTRUM = [[1e308, 1e308, 1e308], [1e308, 1e308, 1e308], [1e308, 1e308, -1e308]]
# Finite numbers whose design matrix entry -a + gain[0][1] is -inf.
OVERFLOWING_DESIGN = {"mode": "literal", "volta": {"a": 1e308},
                      "gain": [[0, -1e308, 0], [0, 0, 0], [0, 0, 0]]}
SHORT_GRID = {"h": 0.01, "t_end": 0.1}


class TestOverflowRefused:
    # Finite inputs whose matrix, spectrum or equilibrium overflows are refused
    # before any run or directory, never reported as inf.
    @pytest.mark.parametrize(
        "command,payload,key",
        [
            ("stability", {"matrix": {"source": "explicit", "values": OVERFLOWING_SPECTRUM}},
             "matrix.values"),
            ("stability", OVERFLOWING_DESIGN, "gain"),
            ("synchronize", {**OVERFLOWING_DESIGN, **SHORT_GRID}, "gain"),
            ("stability", {"mode": "literal", "gain": OVERFLOWING_SPECTRUM}, "gain"),
            ("synchronize", {"mode": "literal", "gain": OVERFLOWING_SPECTRUM, **SHORT_GRID},
             "gain"),
            ("stability", {"financial": {"beta": 1e-320}, "matrix": {"source": "equilibria"}},
             "financial"),
            # a finite equilibrium whose Jacobian entry y - alpha overflows
            ("stability", {"financial": {"beta": 1.1e-308, "alpha": -1e308},
                           "matrix": {"source": "equilibria"}}, "financial"),
        ],
        ids=["explicit-spectrum", "stability-design", "synchronize-design",
             "stability-gain-spectrum", "synchronize-gain-spectrum", "equilibrium",
             "equilibrium-jacobian"],
    )
    def test_exit_2_naming_the_key(self, tmp_path, capsys, command, payload, key):
        out = tmp_path / "never"
        code = _run(command, "--config", _write_config(tmp_path, payload), "--out", out)
        assert code == EXIT_CONFIG
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not out.exists()


# Python's float() and int() read JSON true/false as 1 and 0, so every key must refuse
# them. The CLI has no boolean rule of its own: each key's builder refuses, and the CLI
# reports its message under the key.
_BOOLEAN_CASES = [
    ("simulate", {"h": True}, "h", "value must be a number, got True"),
    ("simulate", {"t_end": True}, "t_end", "value must be a number, got True"),
    ("simulate", {"memory": True}, "memory",
     "expected 'full', the one history policy, got True"),
    ("simulate", {"orders": True}, "orders", "orders must be numbers, got True"),
    ("simulate", {"orders": [0.9, True, 0.9]}, "orders",
     "orders must be numbers, got [0.9, True, 0.9]"),
    ("simulate", {"initial_state": [True, False, True]}, "initial_state",
     "value must be numbers, got [True, False, True]"),
    ("simulate", {"financial": {"alpha": True}}, "financial.alpha",
     "value must be a number, got True"),
    ("simulate", {"volta": {"c": False}}, "volta.c", "value must be a number, got False"),
    ("synchronize", {"sync_tol": True}, "sync_tol", "value must be a number, got True"),
    ("synchronize", {"slave_initial": [True, 0.0, 0.0]}, "slave_initial",
     "value must be numbers, got [True, 0.0, 0.0]"),
    ("synchronize", {"lambda": True}, "lambda", "lambda must be numbers, got True"),
    ("synchronize", {"mode": "literal", "gain": [[True, 0, 0], [0, 0, 0], [0, 0, 0]]}, "gain",
     "gain must be numbers, got [[True, 0, 0], [0, 0, 0], [0, 0, 0]]"),
    ("stability", {"matrix": {"source": "explicit",
                              "values": [[True, 0, 0], [0, -1, 0], [0, 0, -1]]}},
     "matrix.values", "value must be numbers, got [[True, 0, 0], [0, -1, 0], [0, 0, -1]]"),
]


class TestBooleanFields:
    @pytest.mark.parametrize(
        "command,payload,field,message",
        _BOOLEAN_CASES,
        # Ids name the command, the payload's index and the key, not the message.
        ids=[f"{c}-payload{i}-{f}" for i, (c, _, f, _) in enumerate(_BOOLEAN_CASES)],
    )
    def test_rejected(self, tmp_path, capsys, command, payload, field, message):
        out = tmp_path / "never"
        code = _run(command, "--config", _write_config(tmp_path, payload), "--out", out)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {field}: {message}\n"
        assert not out.exists()


class TestPackageMessages:
    # Each key's rule lives in the package code that reads it; the CLI adds only the key.
    @pytest.mark.parametrize(
        "command,payload,want",
        [
            ("stability", {"matrix": {"source": "explicit", "values": [[1, 2], [3]]}},
             "matrix.values: value must be numbers, got [[1, 2], [3]]"),
            ("stability", {"matrix": {"source": "explicit", "values": [1] * 8}},
             "matrix.values: value must have shape (9,), got shape (8,)"),
            ("stability", {"matrix": {"source": "explicit", "values": [[1, 2], [3, 4]]}},
             "matrix.values: value must have shape (3, 3), got shape (2, 2)"),
            # Non-finite is checked before shape, as for every other number.
            ("stability", {"matrix": {"source": "explicit", "values": [float("nan")]}},
             "matrix.values: value must be finite, got [nan]"),
            ("simulate", {"system": "lorenz"},
             "system: system must be one of financial, volta, zero, got 'lorenz'"),
            ("simulate", {"system": True},
             "system: system must be one of financial, volta, zero, got True"),
        ],
        ids=["ragged", "flat-8", "rows-2x2", "nan-flat-1", "unknown-system", "boolean-system"],
    )
    def test_refused(self, tmp_path, capsys, command, payload, want):
        out = tmp_path / "never"
        code = _run(command, "--config", _write_config(tmp_path, payload), "--out", out)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {want}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload,field",
        [({"financial": {"alpha": "1"}}, "financial.alpha"), ({"volta": {"d": 1}}, "volta"),
         ({"orders": 2.0}, "orders")],
    )
    def test_model_keys_are_reported_before_system(self, tmp_path, capsys, payload, field):
        cfg = _write_config(tmp_path, {"system": "lorenz", **payload})
        assert _run("simulate", "--config", cfg, "--out", tmp_path / "never") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    def test_an_unconverged_spectrum_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def unconverged(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", unconverged)
        cfg = _write_config(tmp_path, {"matrix": {"source": "explicit", "values": EYE}})
        assert _run("stability", "--config", cfg, "--out", tmp_path / "never") == EXIT_CONFIG
        want = "matrix.values: matrix has no computable spectrum: Eigenvalues did not converge"
        assert capsys.readouterr().err == f"config error: {want}\n"

    def test_a_bare_type_error_is_a_fault_not_a_config_error(self, tmp_path, monkeypatch):
        # Only InvalidInput is a refusal; anything else a builder raises propagates.
        def broken(value, name):
            raise TypeError("broken builder")

        monkeypatch.setattr(cli, "positive_number", broken)
        with pytest.raises(TypeError, match="broken builder"):
            _run("simulate", "--t-end", 0.01, "--out", tmp_path / "never")
        assert not (tmp_path / "never").exists()


class TestNumericStrings:
    # float() and numpy parse "0.01"; every number field must refuse a string, as orders do.
    @pytest.mark.parametrize(
        "command,payload,field",
        [
            ("simulate", {"h": "0.01"}, "h"),
            ("simulate", {"t_end": "10"}, "t_end"),
            ("simulate", {"initial_state": ["2", -1, 1]}, "initial_state"),
            ("simulate", {"financial": {"alpha": "1"}}, "financial.alpha"),
            ("simulate", {"volta": {"c": "0.73"}}, "volta.c"),
            ("synchronize", {"sync_tol": "1e-3"}, "sync_tol"),
            ("synchronize", {"master_initial": ["2", -1, 1]}, "master_initial"),
            ("synchronize", {"slave_initial": [8, 2, "3"]}, "slave_initial"),
            ("synchronize", {"lambda": "-1"}, "lambda"),
            ("synchronize", {"lambda": ["-1", "-1", "-1"]}, "lambda"),
            ("synchronize", {"mode": "literal",
                             "gain": [["0", "19", "-1"], ["11", "0", "0"], ["1", "0", "-1.73"]]},
             "gain"),
            ("stability", {"matrix": {"source": "explicit",
                                      "values": [["-1", 0, 0], [0, -1, 0], [0, 0, -1]]}},
             "matrix.values"),
        ],
    )
    def test_rejected(self, tmp_path, capsys, command, payload, field):
        out = tmp_path / "never"
        code = _run(command, "--config", _write_config(tmp_path, payload), "--out", out)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {field}: " in err
        assert "number" in err
        assert not out.exists()


EYE = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]


class TestLeftoverKeys:
    # Each subcommand pops the keys it reads; a key left over is refused, not ignored.
    @pytest.mark.parametrize(
        "command,payload,key",
        [
            ("simulate", {"mode": "sliding", "lambda": "x", "sync_tol": -1,
                          "master_initial": "abc", "matrix": 5}, "master_initial"),
            ("synchronize", {"system": "lorenz"}, "system"),
            ("synchronize", {"initial_state": [2.0, -1.0, 1.0]}, "initial_state"),
            ("synchronize", {"gain": None}, "gain"),
            ("synchronize", {"mode": "literal", "lambda": -1}, "lambda"),
            ("stability", {"h": "abc"}, "h"),
            ("stability", {"memory": 10}, "memory"),
            ("stability", {"mode": "sliding", "matrix": {"source": "explicit", "values": EYE}},
             "mode"),
            ("stability", {"lambda": -2, "matrix": {"source": "equilibria"}}, "lambda"),
            ("stability", {"matrix": {"source": "equilibria", "values": "junk"}}, "matrix.values"),
            ("stability", {"matrix": {"values": EYE}}, "matrix.values"),
            ("stability", {"matrix": {"source": "explicit", "values": EYE, "rows": 3}},
             "matrix.rows"),
            ("stability", {"gain": None}, "gain"),
            ("stability", {"mode": "literal", "lambda": -1}, "lambda"),
            ("convergence", {"h": -1}, "h"),
            ("convergence", {"orders": 0.9}, "orders"),
        ],
    )
    def test_refused(self, tmp_path, capsys, command, payload, key):
        out = tmp_path / "never"
        code = _run(command, "--config", _write_config(tmp_path, payload), "--out", out)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: " in err
        assert key in err
        assert f"not used by {command}" in err
        assert not out.exists()

    def test_mode_flag_beside_an_explicit_matrix(self, tmp_path, capsys):
        out = tmp_path / "never"
        cfg = _write_config(tmp_path, {"matrix": {"source": "explicit", "values": EYE}})
        code = _run("stability", "--config", cfg, "--mode", "literal", "--out", out)
        assert code == EXIT_CONFIG
        assert "config error: mode: not used by stability" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("given", ["flag", "key"])
@pytest.mark.parametrize("command", ["synchronize", "stability"])
def test_bad_mode_is_checked_where_the_controller_is_read(tmp_path, capsys, command, given):
    # One check, in cli._controller, for the flag as for the config key.
    out = tmp_path / "never"
    if given == "flag":
        argv = ["--mode", "bogus"]
    else:
        argv = ["--config", _write_config(tmp_path, {"mode": "bogus"})]
    assert _run(command, *argv, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: mode: expected 'exact' or 'literal', got 'bogus'\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", [["exact"], None, {}], ids=["list", "null", "object"])
@pytest.mark.parametrize("command", ["synchronize", "stability"])
def test_a_mode_that_is_not_a_string_is_refused(tmp_path, capsys, command, mode):
    # The mode table is looked up only with a string: an unhashable mode is refused too.
    out = tmp_path / "never"
    cfg = _write_config(tmp_path, {"mode": mode})
    assert _run(command, "--config", cfg, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: mode: expected 'exact' or 'literal', got {mode!r}\n"
    assert not out.exists()


class TestOutputDirectory:
    # An --out that cannot be a directory is a config error, and nothing is written.
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_refused(self, tmp_path, capsys, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        out = blocker / "sub" if below else blocker
        assert _run("stability", "--out", out) == EXIT_CONFIG
        assert f"config error: out: cannot create directory {out}" in capsys.readouterr().err
        assert blocker.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    @pytest.mark.parametrize("command", ["stability", "simulate"])
    def test_empty_path_is_refused(self, tmp_path, capsys, monkeypatch, command):
        # Path("") is the working directory, which an unset shell variable would fill.
        monkeypatch.chdir(tmp_path)
        argv = SHORT_RUNS[command][0]
        assert _run(command, *argv, "--out", "") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: out: expected a directory, got an empty path\n"
        assert list(tmp_path.iterdir()) == []


# Short argv for each subcommand, and the artifacts it writes in order.
SHORT_RUNS = {
    "simulate": (["--h", 0.01, "--t-end", 0.1], ["trajectory.csv", "report.json"]),
    "synchronize": (["--h", 0.01, "--t-end", 0.1], ["trajectory.csv", "report.json"]),
    "stability": ([], ["report.json"]),
    "convergence": ([], ["report.json"]),
}


class TestArtifactWriteFailure:
    # An artifact that cannot be written after the run is a config error on "out".
    @pytest.mark.parametrize(
        "command, blocked",
        [(c, name) for c, (_, names) in SHORT_RUNS.items() for name in names],
    )
    def test_named_and_exit_2(self, tmp_path, capsys, command, blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        argv, names = SHORT_RUNS[command]
        assert _run(command, *argv, "--out", out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: out: cannot write {out / blocked}: " in err
        assert "Traceback" not in err
        # Files before the blocked one were written; none after it was.
        earlier = names[: names.index(blocked)]
        assert sorted(p.name for p in out.iterdir()) == sorted([blocked, *earlier])


@pytest.mark.parametrize("command", SHORT_RUNS)
def test_unreadable_config(tmp_path, capsys, monkeypatch, command):
    cfg = _write_config(tmp_path, {})
    out = tmp_path / "never"

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "read_text", refuse)
    assert _run(command, "--config", cfg, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: config: cannot read {cfg}: Permission denied" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, payload, expected",
    [
        (["simulate", "--h", 0.01, "--t-end", 0.5], None, EXIT_OK),
        (["simulate"], {"system": "volta", "h": 0.05, "t_end": 10}, EXIT_BLOWUP),
        (["synchronize", "--h", 0.01, "--t-end", 0.5], None, EXIT_OK),
        (["stability"], None, EXIT_OK),
        (["convergence"], None, EXIT_BAND),
    ],
    ids=["simulate", "volta-blowup", "synchronize", "stability", "convergence"],
)
def test_exit_code_follows_report(tmp_path, capsys, argv, payload, expected):
    out = tmp_path / "out"
    config = [] if payload is None else ["--config", _write_config(tmp_path, payload)]
    code = _run(*argv, *config, "--out", out)
    report = _report(out)
    assert report["command"] == argv[0]
    assert code == expected
    blowup = report.get("blowup")
    assert bool(blowup) == (code == EXIT_BLOWUP)
    assert (report.get("all_in_band") is False) == (code == EXIT_BAND)
    stdout = capsys.readouterr().out
    if blowup:
        line = f"run left the finite range at step {blowup['step']} (t = {blowup['time']:g})"
        assert stdout.splitlines()[-1] == line
    else:
        assert stdout.splitlines()[-1].startswith("wrote ")

# The flags each subcommand takes, with a value that parses. No subcommand
# takes --memory: every run keeps its full history.
FLAG_VALUES = {"h": "0.1", "t_end": "1", "memory": "full", "orders": "0.9", "mode": "exact"}
COMMAND_FLAGS = {
    "simulate": {"h", "t_end", "orders"},
    "synchronize": {"h", "t_end", "orders", "mode"},
    "stability": {"orders", "mode"},
    "convergence": set(),
}


@pytest.mark.parametrize("flag", FLAG_VALUES)
@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_subcommand_takes_only_its_flags(capsys, command, flag):
    argv = [command, "--" + flag.replace("_", "-"), FLAG_VALUES[flag]]
    if flag in COMMAND_FLAGS[command]:
        assert getattr(cli._build_parser().parse_args(argv), flag) is not None
    else:
        with pytest.raises(SystemExit) as info:
            cli._build_parser().parse_args(argv)
        assert info.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_simulate_config_runs(tmp_path):
    # The documented config must stay valid under the leftover-key rule.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### simulate\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    out = tmp_path / "sim"
    cfg = _write_config(tmp_path, json.loads(block))
    assert _run("simulate", "--config", cfg, "--t-end", 0.05, "--out", out) == EXIT_OK
    assert _report(out)["status"] == "ok"


def test_readme_quick_start_runs_and_settles(capsys):
    # The library example runs as printed, and its synchronization settles.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    final_error, settled = capsys.readouterr().out.splitlines()[-1].split()
    assert float(final_error) < 1e-3
    assert settled == "65.01"


class TestConvergence:
    def test_exit_code_matches_report(self, tmp_path):
        out = tmp_path / "conv"
        code = _run("convergence", "--out", out)
        report = _report(out)
        assert (code == EXIT_OK) == report["all_in_band"]
        assert code in (EXIT_OK, EXIT_BAND)
        cases = {c["q"]: c for c in report["cases"]}
        assert sorted(cases) == [0.5, 0.8, 1.0]
        assert cases[1.0]["in_band"] is True
        assert cases[0.8]["in_band"] is True
        # the pure-forcing study measures quadrature order near 2 at q = 0.5,
        # outside its 1.5-centered band, so the command signals out-of-band
        assert cases[0.5]["in_band"] is False
        assert report["all_in_band"] is False
        assert code == EXIT_BAND


class TestModuleEntry:
    def test_runs_as_module(self, tmp_path):
        out = tmp_path / "sim"
        src = str(Path(fracsync.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "fracsync",
                "simulate",
                "--h",
                "0.05",
                "--t-end",
                "0.5",
                "--out",
                str(out),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "trajectory.csv").exists()
        assert "simulate" in proc.stdout
