"""scripts/bench_pairs.py: its copy of a working tree, and its summary of paired
runs on synthetic results."""

import importlib.util
import json
import subprocess
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


def test_schedule_rotates_workloads_and_keeps_sides_alternating(pairs):
    workloads = ["paper-figures", "wide-sets", "sampling"]
    plans = [pairs.schedule(k, workloads) for k in range(pairs.PAIRS)]
    assert plans[1] == [("wide-sets", "change"), ("wide-sets", "parent"),
                        ("sampling", "change"), ("sampling", "parent"),
                        ("paper-figures", "change"), ("paper-figures", "parent")]
    leads = [plan[0][0] for plan in plans]
    assert all(3 <= leads.count(w) <= 4 for w in workloads)
    for k, plan in enumerate(plans):
        for w in workloads:
            at = [i for i, (name, _) in enumerate(plan) if name == w]
            assert at[1] == at[0] + 1
            assert (plan[at[0]][1], plan[at[1]][1]) == pairs.order(k)


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


def test_traced_schedule_runs_alternating_pairs_with_seeds_of_their_own(pairs):
    plan = pairs.traced_schedule(["paper-figures", "wide-sets"], 100)
    assert pairs.TRACE_PAIRS == 3
    assert len(plan) == 2 * 2 * pairs.TRACE_PAIRS
    assert [workload for _, workload, _, _ in plan] == ["paper-figures"] * 6 + ["wide-sets"] * 6
    assert [pair for pair, *_ in plan] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    for pair, _, _, seed in plan:
        assert seed == 100 + pairs.PAIRS + pair
    # the untraced pairs use seeds 100 .. 100 + PAIRS - 1
    assert min(seed for *_, seed in plan) == 100 + pairs.PAIRS
    for k in range(6):
        sides = tuple(side for pair, _, side, _ in plan if pair == k)
        assert sides == pairs.order(k)
    assert pairs.traced_schedule([], 100) == []


def test_traced_medians_take_every_pair(pairs):
    runs = [{"workload": "sampling", "side": side, "metrics": {"busy_s": value}}
            for side, values in (("parent", (3.0, 1.0, 2.0)), ("change", (1.5, 9.0, 1.0)))
            for value in values]
    row = pairs.summarize_traced(runs)["sampling"]["busy_s"]
    assert row["parent"] == 2.0 and row["change"] == 1.5
    assert row["relative_change"] == pytest.approx(-0.25)


def test_worktree_copy_takes_tracked_and_unignored_files(pairs, tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    files = {".gitignore": "ignored.txt\nbuild/\n", "tracked.txt": "committed",
             "sub/deep.txt": "deep", "gone.txt": "gone", "ignored.txt": "no",
             "build/out.bin": "no", "untracked.txt": "new"}
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", ".gitignore", "tracked.txt", "sub/deep.txt", "gone.txt"],
                   cwd=repo, check=True)
    (repo / "tracked.txt").write_text("edited")
    (repo / "gone.txt").unlink()
    pairs.copy_worktree(repo, dest)
    copied = {str(p.relative_to(dest)): p.read_text()
              for p in dest.rglob("*") if p.is_file()}
    assert copied == {".gitignore": files[".gitignore"], "tracked.txt": "edited",
                      "sub/deep.txt": "deep", "untracked.txt": "new"}


def test_warmup_puts_every_leading_slot_after_the_same_workload(pairs):
    # Paper-figures leads pairs 0, 3, 6 and 9; without the warm-up pair 0
    # followed no run while the others followed a wide-sets run.
    workloads = ["paper-figures", "wide-sets", "sampling"]
    assert pairs.warmup(workloads) == ("wide-sets", "parent")
    plan = [(-1, *pairs.warmup(workloads))] + [
        (k, workload, side) for k in range(pairs.PAIRS)
        for workload, side in pairs.schedule(k, workloads)]
    for lead in workloads:
        starts = [i for i, (k, workload, _) in enumerate(plan)
                  if k >= 0 and workload == lead and plan[i - 1][0] != k]
        assert len({plan[i - 1][1] for i in starts}) == 1
    leads = [i for i, (k, workload, _) in enumerate(plan)
             if workload == "paper-figures" and plan[i - 1][0] == k - 1]
    assert [plan[i][0] for i in leads] == [0, 3, 6, 9]
    assert all(plan[i - 1][1] == "wide-sets" for i in leads)
    assert sorted(plan[i][2] for i in leads) == ["change", "change", "parent", "parent"]


def test_main_runs_the_warmup_first_and_discards_it(pairs, monkeypatch, tmp_path):
    calls = []
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {name: {"value": 1.0} for name in
                          ("wall_s", "cpu_s", "peak_rss_mb", "ok_frac", "setup_s")}}

    def bench_run(root, workload, seed, seconds, trace):
        calls.append((root.name, workload, seed))
        return {"returncode": 0, "hook_warnings": 0, "result": dict(result), "meta": {}}

    monkeypatch.setattr(pairs, "export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(pairs, "copy_worktree", lambda root, dest: None)
    monkeypatch.setattr(pairs, "bench_run", bench_run)
    monkeypatch.setattr(pairs, "cli_run", lambda root, shots: {})
    out = tmp_path / "bench.json"
    assert pairs.main(["--parent", "HEAD", "--seed-base", "100", "--out", str(out)]) == 0
    assert calls[0] == ("parent", "wide-sets", 99)
    assert calls[1] == ("parent", "paper-figures", 100)
    written = json.loads(out.read_text())
    assert len(written["runs"]) == len(calls) - 1 == 3 * 2 * pairs.PAIRS
    assert "warm-up" in written["protocol"]
