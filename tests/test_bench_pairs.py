"""scripts/bench_pairs.py's summary of paired runs, on synthetic results."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
BETTER = {"wall_s": "lower", "ok_frac": "higher"}


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch = pytest.MonkeyPatch()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        spec.loader.exec_module(module)
    finally:
        monkeypatch.undo()
    return module


def runs_of(parent, change, workload="sampling", ok=1.0):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, wall in (("parent", p), ("change", c)):
            runs.append({"workload": workload, "pair": pair, "side": side,
                         "metrics": {"wall_s": wall, "ok_frac": ok}})
    return runs


def test_sides_alternate(pairs):
    assert [pairs.order(k) for k in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_quartiles_use_the_inclusive_method(pairs):
    runs = [0.47, 0.4204, 0.4234, 0.4279, 0.4286, 0.4308, 0.4319, 0.4321,
            0.4349, 0.4401]
    got = pairs.quartiles(runs)
    assert got["runs"] == sorted(runs)
    assert got["median"] == pytest.approx(0.43135)
    assert got["q1"] == pytest.approx(0.428075)
    assert got["q3"] == pytest.approx(0.43420)
    assert pairs.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0]}


def test_gain_holds_with_nine_wins_and_a_gap_beyond_the_iqr(pairs):
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    change = [0.90] * 9 + [1.20]
    summary = pairs.summarize(runs_of(parent, change), BETTER, ("sampling", "wall_s"))
    row = summary["workloads"]["sampling"]["wall_s"]
    assert row["pairs"] == 10
    assert row["change_better_pairs"] == 9
    assert row["parent_iqr"] == pytest.approx(0.045)
    assert row["relative_change"] == pytest.approx(0.90 / 1.045 - 1.0)
    assert row["gain_holds"]
    assert summary["claimed"]["workload"] == "sampling"
    assert summary["claimed"]["gain_holds"]


def test_eight_wins_or_a_gap_inside_the_iqr_is_no_gain(pairs):
    parent = [1.0 + 0.01 * k for k in range(10)]
    eight = pairs.summarize(runs_of(parent, [0.9] * 8 + [2.0] * 2), BETTER)
    assert eight["workloads"]["sampling"]["wall_s"]["change_better_pairs"] == 8
    assert not eight["workloads"]["sampling"]["wall_s"]["gain_holds"]
    close = pairs.summarize(runs_of(parent, [p - 0.005 for p in parent]), BETTER)
    assert close["workloads"]["sampling"]["wall_s"]["change_better_pairs"] == 10
    assert not close["workloads"]["sampling"]["wall_s"]["gain_holds"]


def test_ties_count_for_neither_side(pairs):
    summary = pairs.summarize(runs_of([1.0] * 10, [1.0] * 10), BETTER)
    rows = summary["workloads"]["sampling"]
    assert rows["ok_frac"]["change_better_pairs"] == 0
    assert rows["wall_s"]["change_better_pairs"] == 0
    assert not rows["ok_frac"]["gain_holds"]
    assert "claimed" not in summary


def test_higher_is_better_and_incomplete_pairs_are_dropped(pairs):
    runs = runs_of([1.0] * 10, [1.0] * 10, ok=0.5)
    for run in runs:
        if run["side"] == "change":
            run["metrics"]["ok_frac"] = 1.0
    runs.append({"workload": "sampling", "pair": 10, "side": "parent",
                 "metrics": {"wall_s": 9.0, "ok_frac": 0.0}})
    runs += runs_of([2.0] * 10, [1.0] * 10, workload="wide-sets")
    summary = pairs.summarize(runs, BETTER)
    assert list(summary["workloads"]) == ["sampling", "wide-sets"]
    ok = summary["workloads"]["sampling"]["ok_frac"]
    assert ok["pairs"] == 10 and ok["change_better_pairs"] == 10
    assert ok["gain_holds"]
    assert summary["workloads"]["wide-sets"]["wall_s"]["change_better_pairs"] == 10


def test_traced_medians_sorted_by_relative_move(pairs):
    runs = [
        {"workload": "sampling", "side": "parent", "metrics": {"a": 1.0, "b": 4.0}},
        {"workload": "sampling", "side": "change", "metrics": {"a": 1.0, "b": 2.0}},
    ]
    table = pairs.summarize_traced(runs)["sampling"]
    assert list(table) == ["b", "a"]
    assert table["b"] == {"parent": 4.0, "change": 2.0, "relative_change": -0.5}
