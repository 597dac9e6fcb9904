"""Command-line front end: single evaluations, sweeps, sampling, figure presets.

Commands
    witness   evaluate witness matrices for one state and configuration
    sweep     run a scenario (from flags or a JSON file) over a grid
    sample    draw Monte-Carlo shots and optionally an empirical witness
    figures   run a named figure-reproduction preset (fig1/3/4/5/6)
    sets      list the enumerated index sets for a configuration

Sweep outputs are one CSV (or JSON) file per (index set x criterion) with
columns grid_value, set_id, criterion, value, stderr (empty when exact),
verdict, plus enough metadata (state, eta, bins, levels, modes) to re-run
any row standalone.  Floats are printed with 17 significant digits, so
outputs are byte-identical across runs; the CLICKWITNESS_OUTDIR environment
variable overrides the output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .detectors import (
    DetectorConfig,
    ONOFF,
    PHOTOELECTRIC,
    PNR,
    check_truncation,
    click_distribution,
    outcome_count,
    photo_distribution,
    pnr_distribution,
)
from .multimode import mean_total_photons, ratio_criterion
from .sampler import check_resamples, check_shots, empirical_witness, sample, write_histogram
from .scenarios import (
    MATRIX_CRITERIA,
    OutputSpec,
    Scenario,
    StateInput,
    SweepSpec,
    admit,
    case_indices,
    presets,
    scenario_from_json,
)
from .witnesses import (
    IndexSet,
    count_matrix,
    enumerate_index_sets,
    min_eig_sweep,
    moment_matrix,
)

ENV_OUTDIR = "CLICKWITNESS_OUTDIR"

COLUMNS = (
    "grid_value", "set_id", "criterion", "value", "stderr", "verdict",
    "state", "eta", "bins", "levels", "modes",
)

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_IO = 3


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_")


# --------------------------------------------------------------------------
# scenario execution


# The rows of each output file, keyed by (set_id, criterion): the cells
# every row shares (eta, bins, levels, modes) and a list of
# (grid_value, state, value, verdict) rows.
Blocks = dict[tuple[str, str], tuple[tuple, list[tuple]]]


def _add_rows(blocks: Blocks, key: tuple[str, str], shared: tuple,
              labels: tuple[str, ...], grid, values, verdicts) -> None:
    """Add the rows of ``values`` and ``verdicts``, (L, G) arrays or one
    value for every label and grid point, label by label."""
    _, rows = blocks.setdefault(key, (shared, []))
    shape = (len(labels), len(grid))
    values, verdicts = (np.broadcast_to(a, shape).tolist() for a in (values, verdicts))
    for label, label_values, label_verdicts in zip(labels, values, verdicts):
        rows.extend(zip(grid, repeat(label), label_values, label_verdicts))


def _matrix_blocks(scenario: Scenario, isets: list[IndexSet]) -> Blocks:
    cfg = scenario.detector
    grid = scenario.sweep.grid()
    shared = (cfg.efficiency, cfg.bins, cfg.levels, scenario.state.modes)
    blocks: Blocks = {}
    labels, states = scenario.state.stack(grid)
    values = {}
    for kind in scenario.kinds:
        for iset in isets:
            min_eig, verdicts = min_eig_sweep(states, cfg, kind, iset, values)
            _add_rows(blocks, (iset.label, f"{kind}_min_eig"), shared, labels, grid,
                      min_eig, verdicts)
    return blocks


def _ratio_blocks(scenario: Scenario) -> Blocks:
    grid = scenario.sweep.grid()
    blocks: Blocks = {}
    for mu in scenario.mode_counts:
        shared = (1.0, "", "", mu)
        labels, states = scenario.state.stack(grid, modes=mu)
        mean_n = mean_total_photons(states)
        for case in scenario.cases:
            n_idx, m_idx = case_indices(case, mu)
            set_id = f"case_{case}_mu{mu}"
            result = ratio_criterion(states, n_idx, m_idx)
            _add_rows(blocks, (set_id, "moment_ratio"), shared, labels, grid,
                      result.ratio, result.verdict)
            _add_rows(blocks, (set_id, "mean_photon_number"), shared, labels, grid,
                      mean_n, "")
    return blocks


class _Echo:
    """A file whose ``write`` returns its text, so ``writerow`` returns the line."""

    @staticmethod
    def write(text: str) -> str:
        return text


def _csv_cells(*cells) -> str:
    """``cells`` joined as ``csv.writer`` writes them inside a longer row."""
    # the empty last cell keeps a lone empty cell from being quoted
    line = csv.writer(_Echo, lineterminator="\n").writerow([*map(_fmt, cells), ""])
    return line[:-2]


def _csv_lines(set_id: str, criterion: str, shared: tuple, rows: list[tuple],
               grid_text: dict) -> list[str]:
    """The lines of one CSV file, header first.

    The cells that stay the same within the file are quoted once per state
    label, ``grid_text`` holds the nonzero grid values formatted once per run
    (a zero keeps its sign in its row), and each row formats its value, so
    the lines are the ones ``csv.writer`` writes row by row.  Verdicts are
    package constants that never need quoting; stderr is empty (exact values).
    """
    head = _csv_cells(set_id, criterion)
    tails = {state: _csv_cells(state, *shared) for state in {row[1] for row in rows}}
    lines = [_csv_cells(*COLUMNS) + "\n"]
    lines.extend(
        f"{grid_text.get(point) or _fmt(point)},{head},{value:.17g},,{verdict},{tails[state]}\n"
        for point, state, value, verdict in rows
    )
    return lines


def run(scenario: Scenario, outdir=None) -> list[Path]:
    """Execute a scenario that :func:`~.scenarios.admit` admits; returns the written paths."""
    isets = admit(scenario)
    outdir = Path(outdir or os.environ.get(ENV_OUTDIR) or scenario.output.path)
    if tuple(scenario.criteria) == MATRIX_CRITERIA:
        blocks = _matrix_blocks(scenario, isets)
    else:
        blocks = _ratio_blocks(scenario)
    outdir.mkdir(parents=True, exist_ok=True)
    grid_text = {value: _fmt(value) for value in scenario.sweep.grid() if value}

    paths = []
    for (set_id, criterion) in sorted(blocks):
        shared, rows = blocks[(set_id, criterion)]
        rows = sorted(rows, key=itemgetter(0, 1))
        stem = f"{scenario.name}_{_slug(set_id)}_{_slug(criterion)}"
        if scenario.output.format == "csv":
            path = outdir / f"{stem}.csv"
            with open(path, "w", newline="") as handle:
                handle.write("".join(_csv_lines(set_id, criterion, shared, rows, grid_text)))
        else:
            path = outdir / f"{stem}.json"
            payload = {
                "columns": list(COLUMNS),
                "rows": [
                    [None if v == "" else v
                     for v in (grid_value, set_id, criterion, value, "", verdict,
                               state, *shared)]
                    for grid_value, state, value, verdict in rows
                ],
            }
            with open(path, "w") as handle:
                json.dump(payload, handle, indent=None, sort_keys=True)
                handle.write("\n")
        paths.append(path)
    return paths


# --------------------------------------------------------------------------
# argument plumbing


def _add_state_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", default="coherent",
                        choices=["coherent", "cat", "fock"])
    parser.add_argument("--parity", choices=["even", "odd", "both"])
    parser.add_argument("--alpha2", type=float, default=1.0,
                        help="total input intensity |alpha|^2")
    parser.add_argument("--modes", type=int, default=1)
    parser.add_argument("--coeffs",
                        help="comma-separated Fock coefficients (fock states)")


def _add_detector_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="onoff",
                        choices=[PHOTOELECTRIC, ONOFF, PNR])
    parser.add_argument("--bins", type=int, help="number of multiplexing bins N")
    parser.add_argument("--levels", type=int,
                        help="intrinsic resolution K (pnr model)")
    parser.add_argument("--efficiency", type=float, default=1.0)
    parser.add_argument("--dark", type=float, default=0.0)


def _add_set_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sets",
                        help="index-set preset: integer, half, or all (the default)")
    parser.add_argument("--set", action="append", dest="explicit_sets",
                        metavar="ELEMENTS",
                        help="explicit set, e.g. '0,1,2' or '1/2:0:3/2,3/2:0:1/2'")


def _state_input(args) -> StateInput:
    coeffs = None
    if args.coeffs:
        coeffs = tuple(float(c) for c in args.coeffs.split(","))
    return StateInput(args.state, parity=args.parity, modes=args.modes,
                      coefficients=coeffs)


def _detector(args) -> DetectorConfig:
    return DetectorConfig(args.model, efficiency=args.efficiency,
                          dark=args.dark, bins=args.bins, levels=args.levels)


def _parse_element(token: str):
    if ":" in token:
        return tuple(part.strip() for part in token.split(":"))
    return token.strip()


def _sets_arg(args):
    if args.explicit_sets:
        return tuple(
            (f"custom{i}", tuple(_parse_element(tok) for tok in spec.split(",")))
            for i, spec in enumerate(args.explicit_sets)
        )
    return "all" if args.sets is None else args.sets


def _one_point(args) -> SweepSpec:
    """The one-point grid of ``witness`` and ``sample``, at --alpha2."""
    SweepSpec.check_intensity(args.alpha2, "--alpha2")
    return SweepSpec(start=args.alpha2, stop=args.alpha2, points=1, scale="linear")


def _distribution(state, cfg: DetectorConfig, n_max: int):
    if cfg.model == PHOTOELECTRIC:
        return photo_distribution(state, cfg, n_max)
    if cfg.model == ONOFF:
        return click_distribution(state, cfg)
    return pnr_distribution(state, cfg)


# --------------------------------------------------------------------------
# commands


def _cmd_witness(args) -> int:
    scenario = Scenario(
        name="witness",
        state=_state_input(args),
        detector=_detector(args),
        sets=_sets_arg(args),
        kinds=tuple(args.kind),
        sweep=_one_point(args),
    )
    cfg = scenario.detector
    isets = admit(scenario)
    records = []
    for state_label, state in scenario.state.build(args.alpha2):
        for kind in scenario.kinds:
            build = count_matrix if kind == "counts" else moment_matrix
            for iset in isets:
                report = build(state, cfg, iset)
                records.append({
                    "state": state_label,
                    "kind": kind,
                    "set": iset.label,
                    "elements": iset.describe(),
                    "min_eig": report.min_eig,
                    "minors": list(report.minors),
                    "verdict": report.verdict,
                })
    if args.json:
        json.dump(records, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for rec in records:
            print(
                f"{rec['state']} {rec['kind']} set={rec['set']} "
                f"{rec['elements']} min_eig={_fmt(rec['min_eig'])} "
                f"verdict={rec['verdict']}"
            )
    return _EXIT_OK


def _cmd_sweep(args) -> int:
    if args.scenario:
        scenario = scenario_from_json(Path(args.scenario).read_text())
    else:
        scenario = Scenario(
            name=args.name,
            state=_state_input(args),
            detector=_detector(args),
            sets=_sets_arg(args),
            kinds=tuple(args.kind),
            sweep=SweepSpec(start=args.start, stop=args.stop,
                            points=args.points, scale=args.scale),
            output=OutputSpec(format=args.format),
        )
    paths = run(scenario, outdir=args.outdir)
    for path in paths:
        print(path)
    return _EXIT_OK


def _cmd_sample(args) -> int:
    """Draw a histogram, and with --witness its empirical witnesses; every
    guard, the distribution builder's included, runs before anything is evaluated."""
    state_input = _state_input(args)
    if state_input.parity == "both":
        raise ValueError("sample draws one state; pass --parity even or odd")
    scenario = Scenario(
        name="sample", state=state_input, detector=_detector(args),
        sets=_sets_arg(args), kinds=("counts",),
        sweep=_one_point(args),
    )
    cfg = scenario.detector
    shots = check_shots(args.shots)
    if args.witness:
        check_resamples(args.resamples, outcome_count(cfg, args.n_max))
    isets = admit(scenario) if args.witness else []
    (state_label, state), = state_input.build(args.alpha2)
    if cfg.model == PHOTOELECTRIC:
        check_truncation(state, cfg, args.n_max)
    if not args.witness and (args.explicit_sets or args.sets is not None):
        raise ValueError("--set and --sets choose the sets of the empirical witnesses; "
                         "they need --witness")
    dist = _distribution(state, cfg, args.n_max)
    run_ = sample(dist, shots, args.seed)
    outdir = Path(args.outdir or os.environ.get(ENV_OUTDIR) or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / args.out
    write_histogram(run_, path)
    print(path)
    for iset in isets:
        result = empirical_witness(run_, cfg, iset, resamples=args.resamples)
        print(f"{state_label} set={iset.label} min_eig={_fmt(result.values['min_eig'])} "
              f"stderr={_fmt(result.stderrs['min_eig'])} verdict={result.verdict}")
    return _EXIT_OK


def _cmd_figures(args) -> int:
    catalogue = presets()
    if args.name not in catalogue:
        raise ValueError(
            f"unknown figure {args.name!r}; available: {sorted(catalogue)}"
        )
    paths = run(catalogue[args.name], outdir=args.outdir)
    for path in paths:
        print(path)
    return _EXIT_OK


def _cmd_sets(args) -> int:
    cfg = _detector(args)
    for iset in enumerate_index_sets(cfg, max_order=args.max_order):
        marker = "" if iset.elements else "  (empty)"
        print(f"{iset.label}: {iset.describe()}{marker}")
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clickwitness",
        description="Nonclassicality witnesses for multiplexed photon counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_witness = sub.add_parser("witness", help="single witness evaluation")
    _add_state_args(p_witness)
    _add_detector_args(p_witness)
    _add_set_args(p_witness)
    p_witness.add_argument("--kind", action="append", default=None,
                           choices=["counts", "moments"])
    p_witness.add_argument("--json", action="store_true")
    p_witness.set_defaults(handler=_cmd_witness)

    p_sweep = sub.add_parser("sweep", help="grid sweep producing CSV/JSON files")
    p_sweep.add_argument("--scenario", help="scenario JSON file")
    _add_state_args(p_sweep)
    _add_detector_args(p_sweep)
    _add_set_args(p_sweep)
    p_sweep.add_argument("--kind", action="append", default=None,
                         choices=["counts", "moments"])
    p_sweep.add_argument("--name", default="sweep")
    p_sweep.add_argument("--start", type=float, default=1e-2)
    p_sweep.add_argument("--stop", type=float, default=1e1)
    p_sweep.add_argument("--points", type=int, default=200)
    p_sweep.add_argument("--scale", default="log", choices=["log", "linear"])
    p_sweep.add_argument("--format", default="csv", choices=["csv", "json"])
    p_sweep.add_argument("--outdir")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_sample = sub.add_parser("sample", help="Monte-Carlo sampling")
    _add_state_args(p_sample)
    _add_detector_args(p_sample)
    _add_set_args(p_sample)
    p_sample.add_argument("--shots", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=1)
    p_sample.add_argument("--n-max", type=int, default=60,
                          help="photocount cutoff (photoelectric model)")
    p_sample.add_argument("--out", default="histogram.csv")
    p_sample.add_argument("--outdir")
    p_sample.add_argument("--witness", action="store_true",
                          help="also compute empirical witnesses")
    p_sample.add_argument("--resamples", type=int, default=200)
    p_sample.set_defaults(handler=_cmd_sample)

    p_figures = sub.add_parser("figures", help="run a figure preset")
    p_figures.add_argument("name")
    p_figures.add_argument("--outdir")
    p_figures.set_defaults(handler=_cmd_figures)

    p_sets = sub.add_parser("sets", help="list enumerated index sets")
    _add_detector_args(p_sets)
    p_sets.add_argument("--max-order", type=int, default=None,
                        help="order cap for the photoelectric model")
    p_sets.set_defaults(handler=_cmd_sets)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kind", "missing") is None:
        args.kind = ["counts"]
    try:
        return args.handler(args)
    except (ValueError, OverflowError) as exc:
        # OverflowError: entries beyond float range at large amplitudes.
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
