"""The admission step: every configuration the CLI accepts evaluates to finite
values, or exits 2 before a single expectation is evaluated.

The property test draws ``sweep`` and ``sample`` command lines over the
options that reach the evaluation: detector model, bins, levels, efficiency
and dark counts, preset and explicit index sets, matrix kinds, state and
parity, log grids up to |alpha|^2 = 1e6, shots, n_max and resamples.  Each
kernel entry point is replaced by a counting wrapper.  A failing example
becomes an explicit case of ``test_rejected_before_any_kernel_call``; none
is filtered out of the strategy.
"""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickwitness import detectors, multimode, scenarios, states, witnesses
from clickwitness.cli import main
from clickwitness.detectors import DetectorConfig, check_truncation
from clickwitness.scenarios import MAX_POINTS, MAX_SETS
from clickwitness.states import FockVector

# Where the expectation routes are looked up: the POVM kernel by the sweeps'
# and witnesses' entries and by the distributions that ``sample`` draws
# from; ``expect`` on its module by witnesses and detectors, and by name in
# multimode, whose moments the ratio runs take.
KERNELS = (
    (witnesses, "povm_product_value"),
    (detectors, "povm_product_value"),
    (states, "expect"),
    (multimode, "expect"),
)

FOCK_COEFFS = ("0,1", "0.6,0.8", "0.6,0,0.8", "0,0,0,0.6,0,0,0.8")


def run_counted(argv: list) -> tuple[int, int, str, Path]:
    """Exit code, kernel calls, stdout and output directory of one CLI run."""
    calls = []

    def counted(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)
        return wrapper

    outdir = Path(tempfile.mkdtemp(prefix="admission-"))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        for module, name in KERNELS:
            patch.setattr(module, name, counted(getattr(module, name)))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # witness writes no files, so it takes no --outdir
            code = main(argv if argv[0] == "witness" else [*argv, "--outdir", str(outdir)])
    return code, len(calls), out.getvalue() + err.getvalue(), outdir


def written_values(command: str, text: str, outdir: Path) -> list[float]:
    """Every number a successful run wrote: CSV values, or the printed witnesses."""
    if command == "sweep":
        return [float(row["value"]) for path in sorted(outdir.glob("*.csv"))
                for row in csv.DictReader(path.read_text().splitlines())]
    histogram = (outdir / "histogram.csv").read_text().splitlines()[1:]
    values = [float(line.rpartition(",")[2]) for line in histogram]
    return values + [float(v) for v in re.findall(r"(?:min_eig|stderr)=(\S+)", text)]


def check_admission(argv: list, admitted: bool = False) -> None:
    """Finite values, or (unless ``admitted``) exit 2 before any kernel call."""
    code, calls, text, outdir = run_counted(argv)
    try:
        if code == 0:
            values = written_values(argv[0], text, outdir)
            assert values and all(map(math.isfinite, values)), text
        else:
            assert code == 2 and not admitted, text
            assert calls == 0, f"rejected after {calls} kernel calls: {text}"
    finally:
        for path in sorted(outdir.rglob("*"), reverse=True):
            path.unlink() if path.is_file() else path.rmdir()
        outdir.rmdir()


def half(twice: int) -> str:
    return f"{twice}/2"


@st.composite
def index_sets(draw, model: str, bins: int, levels: int):
    """A preset flag, or one or two explicit sets of the model's element shape."""
    if draw(st.booleans()):
        return ["--sets", draw(st.sampled_from(["integer", "half", "all"]))]
    flags = []
    top = 120 if model == "photoelectric" else bins + 1
    for _ in range(draw(st.integers(1, 2))):
        odd = draw(st.integers(0, 1))
        if model == "pnr":
            size = levels + 1
            elements = draw(st.lists(st.lists(st.integers(0, bins), min_size=size,
                                              max_size=size), min_size=1, max_size=4))
            spec = ",".join(":".join(half(2 * v + odd) for v in e) for e in elements)
        else:
            elements = draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
            spec = ",".join(half(2 * v + odd) for v in elements)
        flags += ["--set", spec]
    return flags


@st.composite
def commands(draw):
    command = draw(st.sampled_from(["sweep", "sample"]))
    model = draw(st.sampled_from(["onoff", "pnr", "photoelectric"]))
    bins = levels = 0
    argv = [command, "--model", model]
    if model == "onoff":
        bins = draw(st.integers(1, 33))
        argv += ["--bins", str(bins)]
    elif model == "pnr":
        bins, levels = draw(st.integers(1, 8)), draw(st.integers(1, 7))
        argv += ["--bins", str(bins), "--levels", str(levels)]
    argv += ["--efficiency", repr(draw(st.floats(0.001, 1.0))),
             "--dark", repr(draw(st.floats(0.0, 5.0)))]
    state = draw(st.sampled_from(["coherent", "cat", "fock"]))
    argv += ["--state", state]
    if state == "cat":
        parities = ["even", "odd", "both"] if command == "sweep" else ["even", "odd"]
        argv += ["--parity", draw(st.sampled_from(parities))]
    if state == "fock":
        argv += ["--coeffs", draw(st.sampled_from(FOCK_COEFFS))]
    argv += draw(index_sets(model, bins, levels))
    exponent = st.floats(-3.0, 6.0)
    if command == "sweep":
        for kind in draw(st.sampled_from([["counts"], ["moments"], ["counts", "moments"]])):
            argv += ["--kind", kind]
        start, stop = (repr(10.0 ** draw(exponent)) for _ in range(2))
        argv += ["--start", start, "--stop", stop, "--points", str(draw(st.integers(1, 3)))]
    else:
        argv += ["--alpha2", repr(10.0 ** draw(exponent)),
                 "--shots", str(draw(st.sampled_from([0, 1, 500, 200_000_000]))),
                 "--n-max", str(draw(st.integers(-3, 200))),
                 "--resamples", str(draw(st.integers(1, 4)))]
        if draw(st.booleans()):
            argv.append("--witness")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(commands())
def test_admitted_configurations_evaluate_to_finite_values(argv):
    check_admission(argv)


CAT = ["--state", "cat", "--parity", "odd", "--efficiency", "1"]
PHOTO = ["--model", "photoelectric", "--state", "coherent"]
ONE_POINT = ["--start", "100", "--stop", "100", "--points", "1"]
ONOFF5_SETS = ["--model", "onoff", "--bins", "5", *["--set", "0,1"] * MAX_SETS]
SETS_MESSAGE = f"a scenario selects at most MAX_SETS = 64 index sets, got {MAX_SETS + 1}"
PNR8 = ["sample", "--model", "pnr", "--bins", "8", "--levels", "2", "--shots", "100",
        "--witness"]
PNR16 = ["sample", "--model", "pnr", "--bins", "16", "--levels", "6", "--shots", "100",
         "--witness", "--set", "0:0:0:0:0:0:8"]


@pytest.mark.parametrize("argv, message", [
    # the first grid point past the limit is named, here the third
    (["sweep", *CAT, "--model", "onoff", "--bins", "1", "--start", "600", "--stop", "900",
      "--points", "4", "--scale", "linear"], "overflows at |alpha|^2 = 800, "),
    (["sweep", *PHOTO, "--set", "0,200", "--kind", "moments", *ONE_POINT],
     "photoelectric order = 400 is outside 0..MAX_FACTORIAL = 170"),
    (["sweep", *PHOTO, "--set", "0,80", "--kind", "moments", *ONE_POINT],
     "the expectation of order 160 overflows at |alpha|^2 = 100, "),
    (["sweep", "--model", "photoelectric", *CAT, "--set", "0,200", *ONE_POINT],
     "photoelectric order = 400 is outside 0..MAX_FACTORIAL = 170"),
    (["sample", "--model", "photoelectric", "--witness", "--set", "0,100", "--shots", "100"],
     "photoelectric order = 200 is outside 0..MAX_FACTORIAL = 170"),
    (["sample", "--model", "onoff", "--bins", "5", "--shots", "200000000"],
     "shots must lie in 1.._MAX_SHOTS = 100000000, got 200000000"),
    (["sample", "--model", "photoelectric", "--n-max", "-3", "--shots", "100"],
     "n_max = -3 is outside 0..MAX_FACTORIAL = 170"),
    (["sample", "--model", "photoelectric", "--n-max", "200", "--shots", "100"],
     "n_max = 200 is outside 0..MAX_FACTORIAL = 170"),
    # found by the property test: the photocount distribution was cut at
    # n_max = 0, evaluated, and then refused by sample() as not normalized
    (["sample", "--model", "photoelectric", "--state", "coherent", "--set", "0/2",
      "--alpha2", "1.0", "--shots", "1", "--n-max", "0", "--resamples", "1"],
     "n_max = 0 may drop up to 0.736 of the photocount distribution, more than 1e-10"),
    (["sample", *CAT, "--model", "onoff", "--bins", "1", "--alpha2", "800", "--shots", "100"],
     "POVM exponents (0, 1) overflows at |alpha|^2 = 800, "),
    (["sample", *CAT, "--model", "pnr", "--bins", "2", "--levels", "3", "--alpha2", "700",
      "--shots", "100"], "POVM exponents (0, 0, 0, 2) overflows at |alpha|^2 = 700, "),
    # a cut at 170 drops nothing at |alpha|^2 = 90, but 90^170 is no float
    (["sample", "--model", "photoelectric", "--alpha2", "90", "--n-max", "170", "--shots", "10"],
     "the expectation of order 170 overflows at |alpha|^2 = 90, "),
    (["sweep", "--model", "pnr", "--bins", "2", "--levels", "7", "--points", "2"],
     "index-set enumeration is capped at MAX_LEVELS = 6, got levels=7"),
    (["sweep", "--model", "onoff", "--bins", "65", "--points", "2"],
     "bins is capped at MAX_EXACT_N = 64, got 65"),
    # |alpha|^2 endpoints that are not finite, or negative, were evaluated
    (["sweep", "--bins", "5", "--start", "nan"], "start = nan is out of range: |alpha|^2 must"),
    (["sweep", "--bins", "5", "--stop", "inf"], "stop = inf is out of range: |alpha|^2 must"),
    (["sweep", "--bins", "5", "--scale", "linear", "--start", "-1"],
     "start = -1.0 is out of range: |alpha|^2 must be finite and >= 0"),
    # the one-point commands name the flag, not the grid's start
    (["witness", "--bins", "5", "--alpha2", "nan"], "--alpha2 = nan is out of range"),
    (["sample", "--bins", "5", "--alpha2", "nan", "--shots", "10"],
     "--alpha2 = nan is out of range"),
    # set flags without --witness choose nothing
    (["sample", "--model", "onoff", "--bins", "5", "--shots", "10", "--set", "0,1/2"],
     "--set and --sets choose the sets of the empirical witnesses; they need --witness"),
    (["sample", "--model", "pnr", "--bins", "4", "--levels", "2", "--sets", "integer",
      "--shots", "10"], "they need --witness"),
    (["sample", "--model", "onoff", "--bins", "5", "--sets", "all", "--shots", "10"],
     "they need --witness"),
    (["witness", "--bins", "5", "--alpha2", "inf"], "--alpha2 = inf is out of range"),
    (["sample", "--bins", "5", "--alpha2", "-1", "--shots", "10"],
     "--alpha2 = -1.0 is out of range: |alpha|^2 must be finite and >= 0"),
    # the kernels hold every grid point at once
    (["sweep", "--bins", "5", "--points", str(MAX_POINTS + 1)],
     f"points must lie in 1..MAX_POINTS = {MAX_POINTS}, got {MAX_POINTS + 1}"),
    # so do the rows of every index set
    (["sweep", *ONOFF5_SETS, "--set", "0,1", "--points", "2"], SETS_MESSAGE),
    (["witness", *ONOFF5_SETS, "--set", "0,1"], SETS_MESSAGE),
    # 45 outcomes count as MAX_DIM^2 = 256 cells per redraw: each holds a
    # 10 x 10 matrix besides its row
    ([*PNR8, "--resamples", "78126"], "78126 resamples of 45 outcomes need 20000256 bootstrap "
     "cells, resamples x max(outcomes, MAX_DIM^2 = 256), above MAX_BOOTSTRAP_CELLS = 20000000"),
    ([*PNR16, "--resamples", "269"], "269 resamples of 74613 outcomes need 20070897 "),
])
def test_rejected_before_any_kernel_call(argv, message):
    check_rejected(argv, message)


def check_rejected(argv: list, message: str) -> None:
    code, calls, text, outdir = run_counted(argv)
    try:
        assert code == 2
        assert calls == 0
        assert message in text
        assert not list(outdir.iterdir())
    finally:
        outdir.rmdir()


FOCK_RATIO = {
    "name": "fock_ratio", "state": {"kind": "fock", "coefficients": [0.6, 0.8]},
    "criteria": ["moment_ratio", "mean_photon_number"], "cases": ["ii"],
    "sweep": {"start": 0.1, "stop": 1.0, "points": 3},
}


# with [1, 2], mode count 1 was evaluated before mode count 2 failed
@pytest.mark.parametrize("mode_counts", [[2], [1, 2]])
def test_a_fock_ratio_scenario_above_one_mode_is_rejected(mode_counts, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(FOCK_RATIO, mode_counts=mode_counts)))
    check_rejected(["sweep", "--scenario", str(path)],
                   "fock states have one mode, got mode count 2")


def cat_ratio(cases: list, mode_counts: list, alpha2: float) -> dict:
    return {"name": "cat_ratio", "state": {"kind": "cat", "parity": "both"},
            "criteria": ["moment_ratio", "mean_photon_number"], "cases": cases,
            "mode_counts": mode_counts, "sweep": {"start": alpha2, "stop": alpha2, "points": 1}}


# A case (n, m) squares a moment of order |n+m| and multiplies two of orders
# 2|n| and 2|m|: at order 2|n+m| = 4 (case iii) the ratio was inf / inf past
# |alpha|^2 = 1.16e77 and written as nan, no_violation; at order 6 (case iv)
# past 2.38e51; a moment of order 3 overflowed in the kernel at 1e120.
@pytest.mark.parametrize("cases, mode_counts, alpha2, message", [
    (["iii"], [1], 2e77, "the expectation of order 4 overflows at |alpha|^2 = 2e+77, "),
    (["iv"], [1], 1e52, "the expectation of order 6 overflows at |alpha|^2 = 1e+52, "),
    (["ii", "iii"], [1], 1e120, "the expectation of order 4 overflows at |alpha|^2 = 1e+120, "),
    (["iv"], [1], 1e100, "the expectation of order 6 overflows at |alpha|^2 = 1e+100, "),
    # two modes split 2e77 into 1e77 per mode, which case iii admits
    (["iii"], [2, 1], 2e77, "the expectation of order 4 overflows at |alpha|^2 = 2e+77, "),
])
def test_a_ratio_scenario_beyond_the_float_range_is_rejected(cases, mode_counts, alpha2,
                                                             message, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cat_ratio(cases, mode_counts, alpha2)))
    check_rejected(["sweep", "--scenario", str(path)], message)


@pytest.mark.parametrize("cases, mode_counts, alpha2", [
    (["iii"], [1], 1e77),
    (["iii"], [2, 3], 2e77),
    (["iv"], [1], 2e51),
    (["ii"], [1], 1e120),
])
def test_a_ratio_scenario_within_the_float_range_writes_finite_rows(cases, mode_counts,
                                                                    alpha2, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cat_ratio(cases, mode_counts, alpha2)))
    check_admission(["sweep", "--scenario", str(path)], admitted=True)


def test_pnr_dimension_is_checked_before_the_sets_are_listed(monkeypatch):
    # (20, 6) took 6.6 s and 201 MB to list 64 sets before the first failed
    def unlisted(*args, **kwargs):
        raise AssertionError("the enumerator was called")

    monkeypatch.setattr(scenarios, "enumerate_index_sets", unlisted)
    check_rejected(["sweep", "--model", "pnr", "--bins", "20", "--levels", "6", "--points", "2"],
                   "index set 'int-int-int-int-int-int-int' has dimension 8008; "
                   "witness matrices are capped at dimension 16")
    check_rejected(["sweep", "--model", "pnr", "--bins", "20", "--levels", "6",
                    "--sets", "integer", "--points", "2"],
                   "the multinomial model needs sets='all' or explicit sets")


def test_a_json_scenario_with_more_sets_than_the_cap_is_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "sets", "state": {"kind": "coherent"},
        "detector": {"model": "onoff", "bins": 5}, "sets": [[0, 1]] * (MAX_SETS + 1),
        "sweep": {"start": 0.1, "stop": 1.0, "points": 2},
    }))
    check_rejected(["sweep", "--scenario", str(path)], SETS_MESSAGE)


def test_a_one_mode_fock_ratio_scenario_writes_its_rows(tmp_path):
    # it ended in a TypeError from an expect that took coherent inputs only
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(FOCK_RATIO, mode_counts=[1])))
    code, calls, text, outdir = run_counted(["sweep", "--scenario", str(path)])
    rows = {p.name: list(csv.DictReader(p.read_text().splitlines()))
            for p in sorted(outdir.glob("*.csv"))}
    for p in outdir.iterdir():
        p.unlink()
    outdir.rmdir()
    assert code == 0 and calls > 0, text
    ratio = rows["fock_ratio_case_ii_mu1_moment_ratio.csv"]
    mean = rows["fock_ratio_case_ii_mu1_mean_photon_number.csv"]
    assert len(ratio) == len(mean) == 3
    # <:n^2:> = 0 for 0.6|0> + 0.8|1>, so the ratio has no denominator
    assert {(row["value"], row["verdict"]) for row in ratio} == {("nan", "indeterminate")}
    assert [float(row["value"]) for row in mean] == pytest.approx([0.64] * 3, rel=1e-15)


@pytest.mark.parametrize("argv", [
    # photoelectric cat sweeps above the multiplexed limits still write rows
    ["sweep", "--model", "photoelectric", "--state", "cat", "--parity", "both",
     "--start", "900", "--stop", "1100", "--points", "2", "--kind", "counts",
     "--kind", "moments"],
    # just below the on-off N=1 limit of 723.26 at eta = 1
    ["sweep", *CAT, "--model", "onoff", "--bins", "1", "--start", "723", "--stop", "723",
     "--points", "1"],
    ["sample", *CAT, "--model", "onoff", "--bins", "1", "--alpha2", "723", "--shots", "100"],
    ["sample", "--model", "photoelectric", "--n-max", "170", "--shots", "100"],
    # |6> at eta = 0.01 drops 0.01^6 = 1e-12 at n_max = 5: the cut counts
    # Bin(6, eta) photons, not all six
    ["sample", "--model", "photoelectric", "--state", "fock", "--coeffs", "0,0,0,0,0,0,1",
     "--efficiency", "0.01", "--n-max", "5", "--shots", "10"],
    # without set flags, sample draws whatever the "all" sets would need
    ["sample", "--model", "onoff", "--bins", "40", "--shots", "10"],
])
def test_admitted_near_the_limits(argv):
    check_admission(argv)


@pytest.mark.parametrize("argv", [
    ["sweep", *ONOFF5_SETS, "--points", "2"],
    # the default 200 resamples of 74613 outcomes
    PNR16,
])
def test_admitted_at_the_caps(argv):
    check_admission(argv, admitted=True)


@pytest.mark.parametrize("eta", [0.01, 0.03, 0.3, 1.0])
@pytest.mark.parametrize("n_max", [0, 2, 5, 6])
def test_a_fock_cut_counts_only_the_detected_photons(eta, n_max):
    # 0.36 |0><0| + 0.64 |6><6| without dark counts drops 0.64 P(Bin(6, eta) > n_max)
    dropped = 0.64 * sum(math.comb(6, k) * eta ** k * (1 - eta) ** (6 - k)
                         for k in range(n_max + 1, 7))
    state = FockVector((0.6, 0, 0, 0, 0, 0, 0.8))
    cfg = DetectorConfig.photoelectric(efficiency=eta)
    if dropped > 1e-10:
        with pytest.raises(ValueError, match=f"n_max = {n_max} may drop up to {dropped:.3g} "):
            check_truncation(state, cfg, n_max)
    else:
        check_truncation(state, cfg, n_max)
