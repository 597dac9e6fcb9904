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


def test_output_hashes_lists_the_same_files_from_any_directory(tmp_path):
    listings = []
    for name in ("a", "nested/b"):
        result = run_script("output_hashes.py", str(tmp_path / name), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        listings.append(result.stdout)
    assert listings[0] == listings[1]
    header, *lines = listings[0].splitlines()
    assert header.startswith("# python ") and " numpy " in header and " blas " in header
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths == sorted(paths)
    assert {path.split("/")[0] for path in paths} == {"figures", "sweeps", "witness", "sample"}
    # the paths the commands printed are relative to the output directory
    printed = (tmp_path / "a" / "sweeps" / "onoff31.stdout").read_text().splitlines()
    assert printed and all(line.startswith("sweeps/onoff31/") for line in printed)
