"""Grid sweeps against the single-point oracle, row by row.

``cli.run`` evaluates a scenario as arrays over its whole grid.  The
oracle re-evaluates every written row at its own grid point, one component
pair at a time (``oracles.py``), and takes each eigenvalue from its own
matrix.  Values must agree within 1e-13 of each file's largest |value|, and
verdicts must be identical on every row.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest

from clickwitness.cli import run
from clickwitness.detectors import ONOFF, PNR, DetectorConfig
from clickwitness.scenarios import (
    RATIO_CRITERIA,
    Scenario,
    StateInput,
    SweepSpec,
    presets,
)
from clickwitness.states import FockVector, NOExpr, expect_fock
from clickwitness.witnesses import IndexSet, enumerate_index_sets
from oracles import fock_povm_reference, pair_expect, pair_povm_product

REL_TOL = 1e-13
SUBGRID_POINTS = 7

# First-mode exponents of the pair sum, 2n and 2m for each ratio case.
CASE_EXPONENTS = {"i": (2, 0, 4), "ii": (1, 0, 2), "iii": (2, 1, 3), "iv": (3, 1, 5)}


# A Fock state's photoelectric monomials go through the package's Fock-basis
# backend, which a Fock sweep evaluates once and repeats on every row.  Its
# POVM products come from the exact expanded reference, rounded once.
def _expect(state, expr):
    if isinstance(state, FockVector):
        return expect_fock(state, expr)
    return pair_expect(state, [expr])


def _povm(state, cfg, exponents):
    if isinstance(state, FockVector):
        return float(fock_povm_reference(state.probabilities().tolist(), cfg, exponents))
    levels = 1 if cfg.model == ONOFF else cfg.levels
    return pair_povm_product(state, cfg.gamma_rate, cfg.dark, levels, exponents)


def _entry(state, cfg, kind, a, b):
    if cfg.model == PNR:
        return _povm(state, cfg, tuple((x + y).to_int() for x, y in zip(a, b)))
    s = (a + b).to_int()
    if cfg.model == ONOFF:
        return _povm(state, cfg, (cfg.bins - s, s) if kind == "counts" else (0, s))
    if kind == "counts":
        return _expect(state, NOExpr.monomial(1.0, s, 1.0, cfg.gamma_rate, cfg.dark))
    return _expect(state, NOExpr.monomial(1.0, s, 0.0, cfg.efficiency, 0.0))


def _witness_point(state, cfg, kind, iset):
    labels = iset.elements
    dim = len(labels)
    matrix = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            matrix[i, j] = matrix[j, i] = _entry(state, cfg, kind, labels[i], labels[j])
    min_eig = float(np.linalg.eigvalsh(matrix)[0])
    nonclassical = min_eig < -1e-10 * np.abs(matrix).max()
    return min_eig, "nonclassical" if nonclassical else "no_violation"


def _joint_moment(state, exponents):
    return pair_expect(
        state, [NOExpr.monomial(1.0, m, 0.0, 1.0, 0.0) for m in exponents]
    )


def _first_mode(exponent, modes):
    return (exponent,) + (0,) * (modes - 1)


def _ratio_point(state, case, modes):
    pair, two_n, two_m = (_first_mode(e, modes) for e in CASE_EXPONENTS[case])
    numer = _joint_moment(state, pair) ** 2
    denom = _joint_moment(state, two_n) * _joint_moment(state, two_m)
    if denom == 0.0:
        return math.nan, "indeterminate"
    ratio = numer / denom
    return ratio, "nonclassical" if ratio > 1.0 + 1e-10 else "no_violation"


def _mean_point(state, modes):
    return sum(
        _joint_moment(state, tuple(int(j == k) for j in range(modes)))
        for k in range(modes)
    )


def _index_sets(scenario):
    if isinstance(scenario.sets, str):
        return {s.label: s for s in enumerate_index_sets(scenario.detector)}
    return {label: IndexSet(tuple(elements), label) for label, elements in scenario.sets}


def _oracle(scenario, row):
    alpha2 = float(row["grid_value"])
    modes = int(row["modes"])
    state = dict(scenario.state.build(alpha2, modes))[row["state"]]
    criterion = row["criterion"]
    if criterion == "moment_ratio":
        case = row["set_id"].split("_")[1]
        return _ratio_point(state, case, modes)
    if criterion == "mean_photon_number":
        return _mean_point(state, modes), ""
    kind = criterion.split("_")[0]
    iset = _index_sets(scenario)[row["set_id"]]
    return _witness_point(state, scenario.detector, kind, iset)


def _check_against_oracle(scenario, outdir):
    paths = run(scenario, outdir=outdir)
    assert paths
    grid = scenario.sweep.grid()
    for path in paths:
        rows = _rows(path)
        assert {float(r["grid_value"]) for r in rows} == set(grid)
        want = [_oracle(scenario, row) for row in rows]
        scale = max(abs(value) for value, _ in want if math.isfinite(value))
        for row, (value, verdict) in zip(rows, want):
            where = f"{path.name} @ {row['grid_value']} {row['state']}"
            assert row["verdict"] == verdict, where
            got = float(row["value"])
            if math.isnan(value):
                assert math.isnan(got), where
            else:
                assert abs(got - value) <= REL_TOL * scale, (where, got, value)
    return paths


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _subgrid(scenario):
    return dataclasses.replace(
        scenario, sweep=dataclasses.replace(scenario.sweep, points=SUBGRID_POINTS)
    )


@pytest.mark.parametrize("name", ["fig1", "fig3", "fig4", "fig5", "fig6"])
def test_figure_presets_match_single_point_oracle(name, tmp_path):
    _check_against_oracle(_subgrid(presets()[name]), tmp_path)


def test_coherent_sweep_with_dark_counts(tmp_path):
    scenario = Scenario(
        name="coherent",
        state=StateInput("coherent"),
        detector=DetectorConfig.onoff(bins=6, efficiency=0.7, dark=0.02),
        sets="all",
        kinds=("counts", "moments"),
        sweep=SweepSpec(start=1e-2, stop=1e1, points=SUBGRID_POINTS),
    )
    _check_against_oracle(scenario, tmp_path)


@pytest.mark.parametrize("detector", [
    DetectorConfig.pnr(bins=4, levels=2, efficiency=0.5),
    DetectorConfig.photoelectric(efficiency=0.5),
], ids=["pnr", "photoelectric"])
def test_fock_sweep_is_one_state_on_every_row(detector, tmp_path):
    scenario = Scenario(
        name="fock",
        state=StateInput("fock", coefficients=(0.6, 0.0, 0.8)),
        detector=detector,
        sets="all",
        kinds=("counts", "moments"),
        sweep=SweepSpec(start=1e-2, stop=1e1, points=SUBGRID_POINTS),
    )
    paths = _check_against_oracle(scenario, tmp_path)
    if detector.model == PNR:
        # every entry of this set vanishes exactly, so no row may read nonclassical
        rows = _rows(next(p for p in paths if "int_half_half_counts" in p.name))
        assert {(r["value"], r["verdict"]) for r in rows} == {("0", "no_violation")}


def test_three_mode_coherent_ratio_sweep(tmp_path):
    scenario = Scenario(
        name="ratio3",
        state=StateInput("coherent"),
        sweep=SweepSpec(start=1e-2, stop=20.0, points=SUBGRID_POINTS),
        criteria=RATIO_CRITERIA,
        mode_counts=(3,),
        cases=("i", "ii", "iii", "iv"),
    )
    _check_against_oracle(scenario, tmp_path)
