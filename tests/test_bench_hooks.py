"""The benchmark tracer's lookup sites still exist in the package.

``bench/tracing.py`` wraps package functions at the module attributes where
their callers look them up.  A hooked name that is renamed or removed, or a
parameter that a hook's ``after`` callback reads, makes a traced benchmark
run drop that hook's metrics with only a warning.  These tests load the
tracer by path, without changing it, and fail instead.
"""

import importlib.util
import inspect
import sys
import warnings
from pathlib import Path

import pytest

from clickwitness import cli
from clickwitness.detectors import DetectorConfig
from clickwitness.scenarios import Scenario, StateInput, SweepSpec

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# The call parameters each hook's ``after`` callback reads.
AFTER_PARAMETERS = {
    "cli.run": ("scenario",),
    "witnesses": ("iset",),
    "numerics.min_eigenvalue": ("matrix",),
    "sampler.sample": ("shots",),
    "sampler.empirical_witness": ("resamples",),
    "sampler.write_histogram": ("path",),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # read only: no bytecode cache is written next to the tracer
    monkeypatch = pytest.MonkeyPatch()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        spec.loader.exec_module(module)
    finally:
        monkeypatch.undo()
    return module


def test_every_hook_site_resolves(tracing):
    missing = [
        site for hook in tracing.HOOKS for site in hook.sites
        if tracing._resolve(site) is None
    ]
    assert not missing


def test_after_callbacks_find_their_parameters(tracing):
    with_after = {hook.name for hook in tracing.HOOKS if hook.after}
    assert with_after == set(AFTER_PARAMETERS)
    for hook in tracing.HOOKS:
        for site in hook.sites:
            owner, attr = tracing._resolve(site)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            parameters = inspect.signature(fn).parameters
            for name in AFTER_PARAMETERS.get(hook.name, ()):
                assert name in parameters, f"{site} has no parameter {name!r}"


def test_traced_run_reports_the_cli_metrics(tracing, tmp_path):
    scenario = Scenario(
        name="fig1",
        state=StateInput("cat", parity="both"),
        detector=DetectorConfig.onoff(bins=5, efficiency=0.5),
        sets="integer",
        sweep=SweepSpec(start=0.1, stop=1.0, points=3),
    )
    tracer = tracing.Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error", tracing.HookMissingWarning)
        try:
            tracer.install()
            paths = cli.run(scenario, outdir=tmp_path)
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    assert not tracer.broken
    assert set(metrics) == set(tracing.METRICS)
    assert metrics["cli.run.calls"][0] == 1
    assert metrics["cli.output.files"][0] == len(paths) == 1
    assert metrics["cli.output.bytes"][0] == paths[0].stat().st_size
    assert metrics["cli.run.fig1.wall_s"][0] > 0.0
