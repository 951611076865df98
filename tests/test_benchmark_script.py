"""Benchmark tooling cannot rot unnoticed.

Smoke tests run benchmarks/benchmark_kernels.py and
benchmarks/code_lines.py, and a guard checks that
every function perfbench/tracing.py wraps still exists in the package: a
missing target would silently read zero in its per-layer metric.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import fracsync
from fracsync import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "benchmark_kernels.py"
CODE_LINES = ROOT / "benchmarks" / "code_lines.py"
TRACING = ROOT / "perfbench" / "tracing.py"
# Span targets removed from the package before the benchmark was repointed;
# no other target may be missing.
STALE_TARGETS = {("experiments", "closed_loop_matrix"), ("control", "control_input")}


def _run_script(cwd, *args, repeats=1, env=None):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--steps", "64", "--repeats", str(repeats), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


CASES = {"financial", "volta", "coupled", "coupled-literal"}


def test_short_run_prints_every_case_and_writes_nothing(tmp_path):
    proc = _run_script(tmp_path)
    rows = [line.split() for line in proc.stdout.splitlines()]
    cases = {row[1] for row in rows if row[:1] == ["run"] and row[2:3] == ["64"]}
    assert cases == CASES
    # Volta leaves the finite range at 64 steps; the others print min, median and peak.
    timed = [row for row in rows if row[2:3] == ["64"] and row[1] != "volta"]
    assert len(timed) == 3 and all(len(row) == 6 and float(row[5]) > 0 for row in timed)
    rhs = {row[2] for row in rows if row[:2] == ["run", "rhs"] and len(row) == 5}
    assert rhs == cases
    assert list(tmp_path.iterdir()) == []


def test_script_finds_its_own_package_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    _run_script(tmp_path, "--tag", "smoke", env=env)
    facts = json.loads((tmp_path / "BENCH_smoke.json").read_text())["runs"]["run"]["facts"]
    assert facts["package"] == str(ROOT / "src" / "fracsync")


def test_tagged_run_records_the_peak_memory_of_each_timed_case(tmp_path):
    _run_script(tmp_path, "--tag", "smoke", f"change={ROOT}")
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    # The CSV writer and mittag_leffler are timed by perfbench's traced runs.
    assert set(record["runs"]["change"]) == {"facts", "settings", "results", "rhs"}
    results = record["runs"]["change"]["results"]
    assert {row["case"] for row in results} == CASES
    for row in results:
        if "blowup_step" in row:
            assert "peak_bytes" not in row
        else:
            assert isinstance(row["peak_bytes"], int) and row["peak_bytes"] > 0


def test_one_run_alternates_and_records_every_label(tmp_path):
    proc = _run_script(tmp_path, f"a={ROOT}", f"b={ROOT}", "--tag", "smoke", repeats=2)
    runs = json.loads((tmp_path / "BENCH_smoke.json").read_text())["runs"]
    assert set(runs) == {"a", "b"}
    for run in runs.values():
        assert {row["case"] for row in run["results"]} == CASES
        assert {row["case"] for row in run["rhs"]} == CASES
        for row in run["results"]:
            if row["case"] == "volta":
                assert "blowup_step" in row and "peak_bytes" not in row
            else:
                assert len(row["samples_s"]) == 2
    # Each timed cell pairs b's sample of a repeat with a's of the same repeat.
    assert not any("ratio" in row for row in runs["a"]["results"] + runs["a"]["rhs"])
    for row, first in zip(runs["b"]["results"], runs["a"]["results"]):
        if "samples_s" in row:
            paired = [s / f for s, f in zip(row["samples_s"], first["samples_s"])]
            assert row["ratio"]["median"] == pytest.approx(sum(paired) / 2, rel=1e-12)
    for row in runs["b"]["results"] + runs["b"]["rhs"]:
        if "blowup_step" not in row:
            q1, q3 = row["ratio"]["quartiles"]
            assert row["ratio"]["to"] == "a" and 0 < q1 <= row["ratio"]["median"] <= q3
    printed = [line for line in proc.stdout.splitlines() if "ratio to a" in line]
    assert len(printed) == 2 * len(CASES) - 1 and all(line.startswith("b ") for line in printed)
    # Both labels load one checkout, so every cell, the blowup too, has the same states.
    assert not any("same_states" in row for row in runs["a"]["results"])
    assert all(row["same_states"] is True for row in runs["b"]["results"])
    printed = [line for line in proc.stdout.splitlines() if "states equal to a" in line]
    assert len(printed) == len(CASES) and all(line.startswith("b ") for line in printed)


def test_pairs_may_follow_the_step_counts(tmp_path):
    # --steps takes one or more values; a pair after them is still a pair, in its place.
    argv = ["--repeats", "1", f"b={ROOT}", "--steps", "64", "65", f"a={ROOT}", "--tag", "smoke"]
    proc = subprocess.run([sys.executable, str(SCRIPT), *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads((tmp_path / "BENCH_smoke.json").read_text())["runs"]
    assert set(runs) == {"a", "b"}
    assert {row["steps"] for row in runs["a"]["results"]} == {64, 65}
    assert all(row["ratio"]["to"] == "b" for row in runs["a"]["rhs"])


@pytest.mark.parametrize("mode", [[], ["--end-to-end"]])
def test_a_repeated_label_is_refused(tmp_path, mode):
    proc = subprocess.run([sys.executable, str(SCRIPT), *mode, f"x={ROOT}", f"x={tmp_path}"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "label 'x' is given more than once" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def script():
    """The benchmark script, imported by path."""
    spec = importlib.util.spec_from_file_location("benchmark_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differing_states_are_reported_as_different(script, capsys):
    # Label b integrates like fracsync, then moves its last state by one ulp.
    def integrate(*args):
        traj = fracsync.integrate(*args)
        traj.states[-1, 0] = np.nextafter(traj.states[-1, 0], np.inf)
        return traj

    nudged = types.SimpleNamespace(**{n: getattr(fracsync, n) for n in fracsync.__all__})
    nudged.integrate = integrate
    layers = script.time_layers({"a": fracsync, "b": nudged}, [1000], 1)
    assert not any("same_states" in row for row in layers["a"]["results"])
    assert [row["same_states"] for row in layers["b"]["results"]] == [False] * len(CASES)
    out = capsys.readouterr().out
    assert out.count("states DIFFER to a") == len(CASES) and "states equal" not in out


def test_end_to_end_runs_every_subcommand(script):
    assert {args[0] for args, _ in script.CLI_RUNS.values()} == set(cli._COMMANDS)


def test_wall_holds_a_process_to_its_expected_exit_code(script):
    argv = [sys.executable, "-c", "raise SystemExit(4)"]
    assert script._wall(argv, 4) > 0
    with pytest.raises(subprocess.CalledProcessError):
        script._wall(argv, 0)


def test_two_runs_of_one_checkout_write_the_same_bytes(script, capsys):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    records = script.time_cli("stability", ["stability"], 0, {"a": env, "b": env}, 1)
    assert "same_bytes" not in records["a"] and records["b"]["same_bytes"] is True
    assert records["a"]["sha256"] == records["b"]["sha256"]
    # stability writes a report and no trajectory.
    assert len(records["a"]["sha256"]["report.json"]) == 64
    assert records["a"]["sha256"]["trajectory.csv"] is None
    assert "bytes equal to a" in capsys.readouterr().out


def test_differing_digests_are_reported_as_different(script, monkeypatch, capsys):
    digests = iter(["0" * 64, "1" * 64])
    monkeypatch.setattr(script, "_wall", lambda *args, **kwargs: 0.5)
    monkeypatch.setattr(script, "_digests", lambda out: {"report.json": next(digests)})
    records = script.time_cli("stability", ["stability"], 0, {"a": {}, "b": {}}, 1)
    assert records["a"]["sha256"] != records["b"]["sha256"]
    assert records["b"]["same_bytes"] is False
    assert "bytes DIFFER to a" in capsys.readouterr().out


def _tracing_constant(name):
    """The literal assigned to `name` in perfbench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACING}")


def test_every_traced_target_exists():
    targets = [(m, a) for m, a, _ in _tracing_constant("SPANS") + _tracing_constant("LEAVES")]
    assert len(targets) > 20
    modules = {m: importlib.import_module(f"fracsync.{m}") for m, _ in targets}
    missing = {(m, a) for m, a in targets if not hasattr(modules[m], a)}
    assert missing <= STALE_TARGETS, f"traced targets missing from fracsync: {sorted(missing)}"


def _code_lines(*args):
    proc = subprocess.run([sys.executable, str(CODE_LINES), *map(str, args)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return dict(line.split() for line in proc.stdout.splitlines())


def test_code_lines_total_is_the_sum_of_the_modules():
    counts = {name: int(v) for name, v in _code_lines().items()}
    total = counts.pop("total")
    assert set(counts) == {p.name for p in (ROOT / "src" / "fracsync").glob("*.py")}
    assert total == sum(counts.values()) > 0


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "module.py").write_text(
        '"""Module docstring,\nover two lines."""\n'
        "\n"
        "# A comment.\n"
        "class Thing:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def method(self):  # a trailing comment\n"
        '        """Function docstring."""\n'
        "        return 1\n"
    )
    assert _code_lines(tmp_path) == {"module.py": "3", "total": "3"}
