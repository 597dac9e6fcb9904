#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against the working tree.

Usage:  python scripts/bench_pairs.py --parent REV --seed-base S --out BENCH_n.json
            [--trace-workloads W ...] [--claim WORKLOAD:METRIC] [--note TEXT]

Exports REV with ``git archive`` into a temporary directory and runs
``bench/run.py`` there and in the working tree, each side from its own
``bench/`` and ``src/``.  Every workload of BENCHMARK.json runs PAIRS times
per side, for the benchmark's ``run_seconds``.  Pair i uses seed S + i for
every workload; the parent runs first in even pairs and the change first in
odd ones.  The output holds every run, each side's median and quartiles per
metric, the pairs the change won, the parent's interquartile range, and
whether a claimed gain holds: the change wins at least 9 in 10 pairs and
the medians differ by more than the parent's IQR.  Optional traced pairs
(``--trace 1``, TRACE_SECONDS long) give per-layer medians per side.  Two
runs per side of ``clickwitness sample --witness`` at each of CLI_SHOTS add
wall time and peak RSS.  Run it from the repository root on an otherwise
idle host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10
TRACE_SECONDS = 15.0
CLI_SHOTS = (10**6, 10**8)
# The experimenter's command of ROADMAP's end-to-end targets.
CLI_SAMPLE = ["sample", "--state", "cat", "--parity", "odd", "--alpha2", "1",
              "--model", "onoff", "--bins", "8", "--efficiency", "0.5", "--witness"]


def export(rev: str, dest: Path) -> str:
    """Unpack the tree of ``rev`` into ``dest``; returns its commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    with subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as archive:
            archive.extractall(dest, filter="data")
    if proc.returncode:
        raise RuntimeError(f"git archive {commit} exited with {proc.returncode}")
    return commit


def order(pair: int) -> tuple[str, str]:
    """Sides in run order: the parent first in even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def bench_run(root: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``bench/run.py`` run: its result line, metadata line and warnings."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"returncode": proc.returncode,
              "hook_warnings": proc.stderr.count("HookMissingWarning")}
    try:
        record["result"] = json.loads(lines[-1])
        record["meta"] = json.loads(lines[-2])["meta"]
    except (IndexError, ValueError, KeyError):
        record["result"] = None
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def cli_run(root: Path, shots: int) -> dict:
    """Wall time, peak RSS and output hashes of one ``sample --witness`` run."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as outdir:
        cmd = [sys.executable, "-m", "clickwitness.cli", *CLI_SAMPLE,
               "--shots", str(shots), "--outdir", outdir]
        start = time.monotonic()
        with subprocess.Popen(cmd, cwd=outdir, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - start
        histogram = Path(outdir, "histogram.csv")
        return {
            "returncode": proc.returncode,
            "wall_s": round(wall, 4),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),
            # The histogram path in stdout names the temporary directory.
            "stdout_sha256": hashlib.sha256(
                stdout.replace(outdir.encode(), b"OUTDIR")).hexdigest(),
            "histogram_sha256": (hashlib.sha256(histogram.read_bytes()).hexdigest()
                                 if histogram.exists() else None),
        }


def quartiles(values: list) -> dict:
    """Median, quartiles (inclusive method) and the sorted runs."""
    runs = sorted(values)
    if len(runs) == 1:
        q1 = med = q3 = runs[0]
    else:
        q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": runs}


def summarize(runs: list, better: dict, claim: tuple | None = None) -> dict:
    """Per-workload, per-metric comparison of paired untraced runs.

    ``runs`` holds {"workload", "pair", "side", "metrics": {name: value}};
    ``better`` maps each metric name to "lower" or "higher".  A pair counts
    for the change only when its value is strictly better; ties count for
    neither side.
    """
    table = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        paired = {}
        for run in runs:
            if run["workload"] == workload:
                paired.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
        complete = [sides for _, sides in sorted(paired.items()) if len(sides) == 2]
        rows = {}
        for metric, direction in better.items():
            values = {side: [sides[side][metric] for sides in complete] for side in SIDES}
            if not values["parent"]:
                continue
            sign = 1.0 if direction == "lower" else -1.0
            wins = sum(sign * (p - c) > 0.0
                       for p, c in zip(values["parent"], values["change"]))
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            gain = sign * (parent["median"] - change["median"])
            rows[metric] = {
                "parent": parent,
                "change": change,
                "pairs": len(complete),
                "change_better_pairs": wins,
                "parent_iqr": parent["q3"] - parent["q1"],
                "relative_change": (change["median"] / parent["median"] - 1.0
                                    if parent["median"] else None),
                "gain_holds": wins >= 0.9 * len(complete)
                              and gain > parent["q3"] - parent["q1"],
            }
        table[workload] = rows
    summary = {"workloads": table}
    if claim is not None:
        workload, metric = claim
        summary["claimed"] = {"workload": workload, "metric": metric,
                              **table[workload][metric]}
    return summary


def summarize_traced(runs: list) -> dict:
    """Median of every traced metric per workload and side, largest moves first."""
    table = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        per_side = {side: [run["metrics"] for run in runs
                           if run["workload"] == workload and run["side"] == side]
                    for side in SIDES}
        names = per_side["parent"][0] if per_side["parent"] else {}
        rows = {}
        for name in names:
            medians = {side: statistics.median(m[name] for m in per_side[side])
                       for side in SIDES if per_side[side]}
            if len(medians) == 2 and medians["parent"]:
                medians["relative_change"] = medians["change"] / medians["parent"] - 1.0
            rows[name] = medians
        table[workload] = dict(sorted(
            rows.items(), key=lambda item: -abs(item[1].get("relative_change") or 0.0)))
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-workloads", nargs="*", default=[])
    parser.add_argument("--claim")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    claim = tuple(args.claim.split(":")) if args.claim else None

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        commit = export(args.parent, roots["parent"])
        runs, traced, cli = [], [], []

        def record(store, pair, workload, side, seed, rec):
            result = rec.pop("result")
            ok = rec["returncode"] == 0 and result is not None
            store.append({"workload": workload, "pair": pair, "side": side,
                          "seed": seed, **rec,
                          "correct": bool(ok and result["correct"]),
                          "attempted_failed": ([result["attempted"], result["failed"]]
                                               if ok else None),
                          "metrics": ({k: v["value"] for k, v in result["metrics"].items()}
                                      if ok else {})})
            print(f"{workload} pair {pair} {side}: correct={store[-1]['correct']} "
                  f"wall_s={store[-1]['metrics'].get('wall_s')}", file=sys.stderr)

        for pair in range(PAIRS):
            seed = args.seed_base + pair
            for workload in workloads:
                for side in order(pair):
                    record(runs, pair, workload, side, seed,
                           bench_run(roots[side], workload, seed, seconds, 0))
        for k, workload in enumerate(args.trace_workloads):
            seed = args.seed_base + PAIRS + k
            for side in order(k):
                record(traced, k, workload, side, seed,
                       bench_run(roots[side], workload, seed, TRACE_SECONDS, 1))
        for k, shots in enumerate(CLI_SHOTS):
            for repeat in range(2):
                for side in order(k + repeat):
                    cli.append({"shots": shots, "side": side,
                                **cli_run(roots[side], shots)})

    failed = [run for run in runs + traced if not run["correct"]]
    out = {
        "note": args.note,
        "parent_commit": commit,
        "python": sys.version.split()[0],
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g}"
                   " --trace 0",
        "protocol": f"{PAIRS} pairs per workload at seeds {args.seed_base}-"
                    f"{args.seed_base + PAIRS - 1}; parent first in even pairs",
        **summarize([r for r in runs if r["metrics"]], better, claim),
        "traced": summarize_traced([r for r in traced if r["metrics"]]),
        "cli_sample_witness": cli,
        "failed_runs": len(failed),
        "runs": runs,
        "traced_runs": traced,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
