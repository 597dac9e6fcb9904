"""Smoke tests: the scripts in scripts/ run end to end as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

from clickwitness.scenarios import presets

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_all_figures_writes_every_preset(tmp_path):
    result = run_script("run_all_figures.py", str(tmp_path / "out"), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    for name in presets():
        written = sorted((tmp_path / "out" / name).glob("*.csv"))
        assert written
        assert f"{name}: {len(written)} files" in result.stdout
        for path in written:
            assert f"  {path}" in result.stdout


def test_sampling_experiment_reports_each_seed(tmp_path):
    result = run_script("sampling_experiment.py", "2000", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("strongest negativity at |alpha|^2 = ")
    seeds = [line for line in lines if line.lstrip().startswith("shots=")]
    assert len(seeds) == 5
    assert all("shots=     2000" in line and "verdict=" in line for line in seeds)
    assert "conclusive" in lines[-1]
