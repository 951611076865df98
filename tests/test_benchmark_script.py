"""Smoke test of benchmarks/benchmark_kernels.py, so the script cannot rot unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import fracsync

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "benchmark_kernels.py"


def test_short_run_prints_every_case_and_writes_nothing(tmp_path):
    src = str(Path(fracsync.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--steps", "64", "--repeats", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    cases = {row[0] for row in rows if row[1:2] == ["64"]}
    assert cases == {"financial", "volta", "coupled", "coupled-literal"}
    rhs = {row[1] for row in rows if row[:1] == ["rhs"] and len(row) == 4}
    assert rhs == cases
    assert ["write_csv", "financial", "64"] in [row[:3] for row in rows]
    assert any(line.startswith("mittag_leffler: 99 calls") for line in proc.stdout.splitlines())
    assert list(tmp_path.iterdir()) == []
