"""Benchmark tooling cannot rot unnoticed.

Smoke tests run benchmarks/benchmark_kernels.py, and a guard checks that
every function perfbench/tracing.py wraps still exists in the package: a
missing target would silently read zero in its per-layer metric.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import fracsync

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "benchmark_kernels.py"
TRACING = ROOT / "perfbench" / "tracing.py"
# Span targets removed from the package before the benchmark was repointed;
# no other target may be missing.
STALE_TARGETS = {("experiments", "closed_loop_matrix"), ("control", "control_input")}


def _run_script(cwd, *args):
    src = str(Path(fracsync.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--steps", "64", "--repeats", "1", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_short_run_prints_every_case_and_writes_nothing(tmp_path):
    proc = _run_script(tmp_path)
    rows = [line.split() for line in proc.stdout.splitlines()]
    cases = {row[0] for row in rows if row[1:2] == ["64"]}
    assert cases == {"financial", "volta", "coupled", "coupled-literal"}
    # Volta leaves the finite range at 64 steps; the others print min, median and peak.
    timed = [row for row in rows if row[1:2] == ["64"] and row[0] != "volta"]
    assert len(timed) == 3 and all(len(row) == 5 and float(row[4]) > 0 for row in timed)
    rhs = {row[1] for row in rows if row[:1] == ["rhs"] and len(row) == 4}
    assert rhs == cases
    assert ["write_csv", "financial", "64"] in [row[:3] for row in rows]
    assert any(line.startswith("mittag_leffler: 99 calls") for line in proc.stdout.splitlines())
    assert list(tmp_path.iterdir()) == []


def test_tagged_run_records_the_peak_memory_of_each_timed_case(tmp_path):
    _run_script(tmp_path, "--tag", "smoke", "--label", "change")
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    results = record["runs"]["change"]["results"]
    assert {row["case"] for row in results} == {"financial", "volta", "coupled", "coupled-literal"}
    for row in results:
        if "blowup_step" in row:
            assert "peak_bytes" not in row
        else:
            assert isinstance(row["peak_bytes"], int) and row["peak_bytes"] > 0


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
