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
from fracsync import cli
from fracsync.cli import EXIT_BAND, EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, main


def _run(*argv):
    return main([str(a) for a in argv])


def _report(outdir):
    return json.loads((outdir / "report.json").read_text())


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
        assert report["backend"] == "numpy"
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

    @pytest.mark.parametrize(
        "flag,echoed", [("full", "full"), ("last:50", 50), ("64", 64)]
    )
    def test_memory_flag_round_trip(self, tmp_path, flag, echoed):
        out = tmp_path / "sim"
        code = _run(
            "simulate", "--h", 0.01, "--t-end", 0.5, "--memory", flag, "--out", out
        )
        assert code == EXIT_OK
        assert _report(out)["config"]["memory"] == echoed

    def test_memory_object_form_in_config(self, tmp_path):
        out = tmp_path / "sim"
        cfg = _write_config(tmp_path, {"memory": {"last": 40}})
        code = _run("simulate", "--config", cfg, "--h", 0.01, "--t-end", 0.5, "--out", out)
        assert code == EXIT_OK
        assert _report(out)["config"]["memory"] == 40

    def test_memory_object_form_takes_a_whole_float(self, tmp_path):
        out = tmp_path / "sim"
        cfg = _write_config(tmp_path, {"memory": {"last": 40.0}})
        code = _run("simulate", "--config", cfg, "--h", 0.01, "--t-end", 0.5, "--out", out)
        assert code == EXIT_OK
        assert _report(out)["config"]["memory"] == 40

    @pytest.mark.parametrize("memory", [40, 40.0, "40", "last:40"])
    def test_memory_number_and_string_forms_in_config(self, tmp_path, memory):
        out = tmp_path / "sim"
        cfg = _write_config(tmp_path, {"memory": memory})
        code = _run("simulate", "--config", cfg, "--h", 0.01, "--t-end", 0.5, "--out", out)
        assert code == EXIT_OK
        assert _report(out)["config"]["memory"] == 40

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


@pytest.mark.parametrize("n_rows", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_csv_matches_the_per_value_format(tmp_path, n_rows):
    columns = [np.resize(np.roll(CSV_VALUES, k), n_rows) for k in range(4)]
    path = tmp_path / "trajectory.csv"
    cli._write_csv(path, "t,x,y,z", columns)
    rows = [",".join(_value_text(c[i]) for c in columns) for i in range(n_rows)]
    assert path.read_bytes() == "\n".join(["t,x,y,z", *rows, ""]).encode()


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
        self._expect_config_error(
            tmp_path, capsys, "simulate", "--memory", "sometimes", field="memory"
        )

    @pytest.mark.parametrize(
        "text",
        ['{"memory": 2.5}', '{"memory": 1e400}', '{"memory": 0}', '{"memory": {"last": true}}',
         '{"memory": "4_0"}', '{"memory": " 40 "}', '{"memory": "last: 40"}',
         '{"memory": "+40"}', '{"memory": "\\u0664\\u0660"}', '{"memory": {"last": " 40"}}',
         '{"memory": {"last": "40"}}'],
    )
    def test_bad_memory_window(self, tmp_path, capsys, text):
        # 1e400 parses as float infinity; a window must be a finite whole number of steps.
        # int() reads each string here as 40; a string window is "k" or "last:k" in ASCII digits.
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
        want = "config error: t_end: horizon 1e+300 allows no finite step count at h = 1e-300\n"
        assert capsys.readouterr().err == want
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
        assert report["design_matrix"] == [
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ]
        stab = report["stability"]
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
        assert report["design_matrix"] == [
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
        assert report["design_matrix"][0][0] == -2.0

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert _run("synchronize", "--h", 0.01, "--t-end", 1.0, "--out", out) == EXIT_OK
        assert (first / "trajectory.csv").read_bytes() == (second / "trajectory.csv").read_bytes()
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()

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


class TestBooleanFields:
    # float() and int() read JSON true/false as 1 and 0; each number field must refuse them.
    @pytest.mark.parametrize(
        "command,payload,field",
        [
            ("simulate", {"h": True}, "h"),
            ("simulate", {"t_end": True}, "t_end"),
            ("simulate", {"memory": True}, "memory"),
            ("simulate", {"orders": True}, "orders"),
            ("simulate", {"orders": [0.9, True, 0.9]}, "orders"),
            ("simulate", {"initial_state": [True, False, True]}, "initial_state"),
            ("simulate", {"financial": {"alpha": True}}, "financial.alpha"),
            ("simulate", {"volta": {"c": False}}, "volta.c"),
            ("synchronize", {"sync_tol": True}, "sync_tol"),
            ("synchronize", {"slave_initial": [True, 0.0, 0.0]}, "slave_initial"),
            ("synchronize", {"lambda": True}, "lambda"),
            ("synchronize", {"mode": "literal", "gain": [[True, 0, 0], [0, 0, 0], [0, 0, 0]]},
             "gain"),
            ("stability", {"matrix": {"source": "explicit",
                                      "values": [[True, 0, 0], [0, -1, 0], [0, 0, -1]]}},
             "matrix.values"),
        ],
    )
    def test_rejected(self, tmp_path, capsys, command, payload, field):
        out = tmp_path / "never"
        code = _run(command, "--config", _write_config(tmp_path, payload), "--out", out)
        assert code == EXIT_CONFIG
        assert f"config error: {field}: expected a number, got " in capsys.readouterr().err
        assert not out.exists()


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


# The flags each subcommand takes, with a value that parses.
FLAG_VALUES = {"h": "0.1", "t_end": "1", "memory": "full", "orders": "0.9", "mode": "exact"}
COMMAND_FLAGS = {
    "simulate": {"h", "t_end", "memory", "orders"},
    "synchronize": {"h", "t_end", "memory", "orders", "mode"},
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
