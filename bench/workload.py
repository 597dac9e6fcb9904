"""One benchmark pass of one workload, in a fresh interpreter.

Usage: python3 bench/workload.py WORKLOAD --seed N --pass-index I
                                 [--trace] [--setup-only]

Imports ``clickwitness`` from ``src/`` (no install needed), builds the
workload's inputs from the seed, runs one timed pass over the workload's
operations through the package's public functions, then checks every
output outside the timed region.  The pass is timed in segments with a
host-speed probe between them (``hostspeed.py``).  The last stdout line is
one JSON object: ``ready`` (CLOCK_MONOTONIC when inputs were built, for the
driver's set-up time), ``setup_probe_s`` (a probe run right after that),
``wall_s`` (less host steal time) and ``cpu_s`` scaled to the reference
speed, ``raw_wall_s`` and ``raw_cpu_s`` as measured, ``steal_s`` (steal per
CPU during the pass), ``probes_s`` (every probe of the pass, the
set-up probe first), ``peak_rss_mb``, ``attempted``, ``failed``, ``errors``
and, with ``--trace``, per-layer ``layers``.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import clickwitness  # noqa: E402
import hostspeed  # noqa: E402
from clickwitness import cli, detectors, sampler, scenarios, witnesses  # noqa: E402

REFERENCE = BENCH / "reference"
OUTPUT = ROOT / ".bench_out"

FIGURES = ("fig1", "fig3", "fig4", "fig5", "fig6")

# Sweep outputs must match within this share of each file's largest |value|.
VALUE_TOL = 1e-8
# Verdicts are compared only where |value - threshold| clears this share of
# the file's largest |value|; below it the value is roundoff (for example the
# insensitive cat parity, ~1e-24) and its verdict is not meaningful.
VERDICT_MARGIN = 1e-6
# The verdict threshold of each criterion: min_eig against 0, ratios against 1.
THRESHOLDS = {"min_eig": 0.0, "moment_ratio": 1.0}
# One character per row in the committed reference; "-" is an empty verdict.
VERDICT_CODES = {"N": "nonclassical", "n": "no_violation", "i": "indeterminate", "-": ""}

WIDE_POINTS = 50
WIDE_ROWS_CHECKED = 6

DEFAULT_SEED = 1
LARGE_SHOTS = 20_000_000
BOOT_SHOTS = 1_000_000
RESAMPLES = 200
# Empirical min_eig must lie within this many bootstrap standard errors of
# the exact value.  The bootstrap cannot see outcomes the draw never hit, so
# the allowance also holds the spectral norm of the exact entries that read
# zero in the sample (Weyl's bound for that part of the error), plus a
# roundoff allowance of 1e-10 of the largest entry.
STAT_SIGMAS = 6.0

VERDICTS = {witnesses.NONCLASSICAL, witnesses.NO_VIOLATION, witnesses.INDETERMINATE}


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def _threshold(criterion: str):
    for suffix, value in THRESHOLDS.items():
        if criterion.endswith(suffix):
            return value
    return None


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    for column in ("grid_value", "state", "criterion", "value", "verdict"):
        if rows and column not in rows[0]:
            raise CheckFailed(f"{path.name}: no column {column!r}")
    return rows


def _compare(name: str, got: float, want: float, got_verdict: str,
             want_verdict: str, criterion: str, scale: float) -> None:
    if not abs(got - want) <= VALUE_TOL * scale:
        raise CheckFailed(f"{name}: value {got!r}, expected {want!r}")
    threshold = _threshold(criterion)
    if (threshold is not None and want_verdict
            and abs(want - threshold) > VERDICT_MARGIN * scale
            and got_verdict != want_verdict):
        raise CheckFailed(f"{name}: verdict {got_verdict}, expected {want_verdict}")


# --------------------------------------------------------------------------
# paper-figures: the published cat-state figure sweeps, as the CLI runs them


def paper_figures_inputs(seed: int) -> dict:
    catalogue = scenarios.presets()
    return {"scenarios": [catalogue[name] for name in FIGURES]}


def paper_figures_pass(inputs: dict, outdir: Path, ops: list) -> None:
    for scenario in inputs["scenarios"]:
        _op(ops, scenario.name, lambda s=scenario: cli.run(s, outdir=outdir / s.name))


def paper_figures_check(inputs: dict, outdir: Path, ops: list, first: bool) -> None:
    reference = json.loads((REFERENCE / "paper_figures.json").read_text())
    for op in ops:
        if op["error"]:
            continue
        _checked(op, lambda: _check_preset(reference[op["name"]], op["result"]))


def _check_preset(ref: dict, paths: list) -> None:
    written = {Path(p).name: Path(p) for p in paths}
    if sorted(written) != sorted(ref["files"]):
        raise CheckFailed(f"files {sorted(written)}, expected {sorted(ref['files'])}")
    keys = [(g, s) for g in ref["grid"] for s in ref["states"]]
    for name, want in ref["files"].items():
        rows = sorted(_read_rows(written[name]),
                      key=lambda r: (float(r["grid_value"]), r["state"]))
        if len(rows) != len(keys):
            raise CheckFailed(f"{name}: {len(rows)} rows, expected {len(keys)}")
        scale = want["scale"]
        for row, (grid, state), value, verdict in zip(
                rows, keys, want["values"], want["verdicts"]):
            if row["state"] != state or abs(float(row["grid_value"]) - grid) > 1e-12 * grid:
                raise CheckFailed(f"{name}: row {row['grid_value']} {row['state']} "
                                  f"where {grid} {state} was expected")
            _compare(f"{name} @ {grid} {state}", float(row["value"]), value,
                     row["verdict"], VERDICT_CODES[verdict], row["criterion"], scale)


# --------------------------------------------------------------------------
# wide-sets: exact sweeps with the largest admissible index sets


def wide_sets_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    # The seeded jitter moves every grid point, so no result can be reused
    # from a run with another seed.
    sweep = scenarios.SweepSpec(start=1e-2 * (1 + 0.25 * rng.random()),
                                stop=10.0 * (1 - 0.2 * rng.random()),
                                points=WIDE_POINTS)
    cat = scenarios.StateInput("cat", parity="both")
    configs = {
        "wide_onoff31": detectors.DetectorConfig.onoff(bins=31, efficiency=0.5),
        "wide_pnr8_2": detectors.DetectorConfig.pnr(bins=8, levels=2, efficiency=0.5),
    }
    return {
        "seed": seed,
        "scenarios": [
            scenarios.Scenario(name=name, state=cat, detector=cfg, sets="all",
                               kinds=("counts", "moments"), sweep=sweep)
            for name, cfg in configs.items()
        ],
    }


def wide_sets_pass(inputs: dict, outdir: Path, ops: list) -> None:
    for scenario in inputs["scenarios"]:
        _op(ops, scenario.name, lambda s=scenario: cli.run(s, outdir=outdir / s.name))


def wide_sets_check(inputs: dict, outdir: Path, ops: list, first: bool) -> None:
    rng = random.Random(inputs["seed"])
    for op, scenario in zip(ops, inputs["scenarios"]):
        if not op["error"]:
            _checked(op, lambda: _check_sweep(scenario, op["result"], rng))


def _check_sweep(scenario, paths: list, rng: random.Random) -> None:
    cfg = scenario.detector
    sets = {s.label: s for s in witnesses.enumerate_index_sets(cfg) if s.elements}
    expected = len(sets) * len(scenario.kinds)
    if len(paths) != expected:
        raise CheckFailed(f"{scenario.name}: {len(paths)} files, expected {expected}")
    grid = scenario.sweep.grid()
    for path in paths:
        rows = _read_rows(Path(path))
        if len(rows) != 2 * len(grid):
            raise CheckFailed(f"{path}: {len(rows)} rows, expected {2 * len(grid)}")
        if sorted({float(r["grid_value"]) for r in rows}) != sorted(grid):
            raise CheckFailed(f"{path}: grid differs from the scenario's")
        scale = max(abs(float(r["value"])) for r in rows)
        if not scale > 0.0:
            raise CheckFailed(f"{path}: every value is zero")
        for row in rng.sample(rows, WIDE_ROWS_CHECKED):
            kind = row["criterion"].split("_")[0]
            build = witnesses.count_matrix if kind == "counts" else witnesses.moment_matrix
            alpha2 = float(row["grid_value"])
            state = dict(scenario.state.build(alpha2))[row["state"]]
            report = build(state, cfg, sets[row["set_id"]])
            _compare(f"{Path(path).name} @ {alpha2} {row['state']}",
                     float(row["value"]), report.min_eig, row["verdict"],
                     report.verdict, row["criterion"], scale)


# --------------------------------------------------------------------------
# sampling: the experimenter's finite-shot certification path


def sampling_inputs(seed: int) -> dict:
    cat = clickwitness.make_cat(1.0, "odd")
    large = detectors.DetectorConfig.onoff(bins=5, efficiency=0.5)
    boot = [
        detectors.DetectorConfig.onoff(bins=31, efficiency=0.5),
        detectors.DetectorConfig.pnr(bins=8, levels=2, efficiency=0.5),
        detectors.DetectorConfig.pnr(bins=5, levels=3, efficiency=0.5),
    ]
    return {
        "seed": seed,
        "state": cat,
        "large": (large, [s for s in witnesses.enumerate_index_sets(large) if s.elements]),
        "boot": [
            (cfg, [s for s in witnesses.enumerate_index_sets(cfg) if s.elements])
            for cfg in boot
        ],
    }


def _distribution(state, cfg):
    if cfg.model == detectors.ONOFF:
        return detectors.click_distribution(state, cfg)
    return detectors.pnr_distribution(state, cfg)


def sampling_pass(inputs: dict, outdir: Path, ops: list) -> None:
    state, seed = inputs["state"], inputs["seed"]
    large_cfg, large_sets = inputs["large"]
    path = outdir / "histogram.csv"

    def draw():
        run = sampler.sample(_distribution(state, large_cfg), LARGE_SHOTS, seed)
        sampler.write_histogram(run, path)
        return run

    large = _op(ops, "draw", draw)
    if large is not None:
        for iset in large_sets:
            _op(ops, f"witness onoff5 {iset.label}",
                lambda i=iset: sampler.empirical_witness(
                    large, large_cfg, i, resamples=RESAMPLES),
                cfg=large_cfg, iset=iset)
    for k, (cfg, sets) in enumerate(inputs["boot"], start=1):
        tag = f"{cfg.model}{cfg.bins}" + (f"_{cfg.levels}" if cfg.levels else "")
        run = _op(ops, f"draw {tag}", lambda c=cfg, k=k: sampler.sample(
            _distribution(state, c), BOOT_SHOTS, seed * 1000 + k))
        if run is None:
            continue
        for iset in sets:
            _op(ops, f"witness {tag} {iset.label}",
                lambda c=cfg, r=run, i=iset: sampler.empirical_witness(
                    r, c, i, resamples=RESAMPLES),
                cfg=cfg, iset=iset)


def sampling_check(inputs: dict, outdir: Path, ops: list, first: bool) -> None:
    for op in ops:
        if op["error"]:
            continue
        if op["name"] == "draw":
            _checked(op, lambda: _check_histogram(op["result"], outdir / "histogram.csv"))
        elif op["name"].startswith("draw"):
            _checked(op, lambda: _check_counts(op["result"]))
        else:
            _checked(op, lambda: _check_witness(inputs["state"], op))
    if first:
        ops.append({"name": "reference histogram", "error": None})
        _checked(ops[-1], lambda: _check_reference(inputs))


def _check_counts(run) -> None:
    if sum(run.counts) != run.shots:
        raise CheckFailed(f"histogram sums to {sum(run.counts)}, not {run.shots}")


def _check_histogram(run, path: Path) -> None:
    _check_counts(run)
    outcomes, counts = sampler.read_histogram(path)
    if outcomes != run.source.outcomes or counts != run.counts:
        raise CheckFailed(f"{path.name} does not round-trip the drawn counts")


def _check_witness(state, op: dict) -> None:
    result, cfg, iset = op["result"], op["cfg"], op["iset"]
    if result.verdict not in VERDICTS:
        raise CheckFailed(f"{op['name']}: unknown verdict {result.verdict!r}")
    exact = witnesses.count_matrix(state, cfg, iset)
    got, err = result.values["min_eig"], result.stderrs["min_eig"]
    entries = exact.matrix.entries
    unseen = np.where(result.report.matrix.entries == 0.0, entries, 0.0)
    allowance = float(np.linalg.norm(unseen, 2)) + 1e-10 * float(np.abs(entries).max())
    if not (err >= 0.0 and abs(got - exact.min_eig) <= STAT_SIGMAS * err + allowance):
        raise CheckFailed(f"{op['name']}: empirical min_eig {got!r} +- {err!r} "
                          f"is far from exact {exact.min_eig!r}")


def _check_reference(inputs: dict) -> None:
    """SplitMix64 promise: the default-seed histogram is fixed bit for bit."""
    cfg, _ = inputs["large"]
    run = sampler.sample(_distribution(inputs["state"], cfg), LARGE_SHOTS, DEFAULT_SEED)
    with open(REFERENCE / "histogram_onoff5_seed1.csv", newline="") as handle:
        want = [int(row["count"]) for row in csv.DictReader(handle)]
    if list(run.counts) != want:
        raise CheckFailed(f"default-seed histogram {run.counts} != reference {want}")


# --------------------------------------------------------------------------
# pass mechanics


WORKLOADS = {
    "paper-figures": (paper_figures_inputs, paper_figures_pass, paper_figures_check),
    "wide-sets": (wide_sets_inputs, wide_sets_pass, wide_sets_check),
    "sampling": (sampling_inputs, sampling_pass, sampling_check),
}


# The timeline of the pass in progress; ``_op`` cuts it between operations.
_timeline: hostspeed.Timeline | None = None


def _op(ops: list, name: str, fn, **context):
    """Run one operation; an exception is recorded as its failure."""
    if _timeline is not None:
        _timeline.cut()
    record = {"name": name, "error": None, "result": None, **context}
    ops.append(record)
    try:
        record["result"] = fn()
    except Exception:
        record["error"] = traceback.format_exc(limit=3)
    return record["result"]


def _checked(op: dict, check) -> None:
    try:
        check()
    except Exception as exc:
        op["error"] = f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    global _timeline
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    make_inputs, run_pass, check = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    ready = time.monotonic()
    setup_probe = hostspeed.probe()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_probe_s": setup_probe}))
        return 0

    outdir = OUTPUT / f"{args.workload}-{args.pass_index}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ops: list = []
    try:
        _timeline = timeline = hostspeed.Timeline(first_probe=setup_probe)
        run_pass(inputs, outdir, ops)
        timeline.finish()
        _timeline = None
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
        check(inputs, outdir, ops, first=args.pass_index == 0)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    errors = [f"{op['name']}: {op['error']}" for op in ops if op["error"]]
    wall, cpu = timeline.scaled()
    raw_wall, raw_cpu, steal = timeline.raw()
    result = {
        "ready": ready,
        "setup_probe_s": setup_probe,
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "steal_s": steal,
        "probes_s": timeline.probes,
        "peak_rss_mb": peak_kib / 1024,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
