"""Benchmark driver: end-to-end metrics, or per-layer metrics from a traced run.

Usage: python3 bench/run.py --workload {paper-figures,wide-sets,sampling}
                            --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout; the package is imported from
``src/`` without an install.  One workload child process runs at a time
(``bench/workload.py``), each a fresh interpreter doing one pass, so no
memo cache survives from one pass to the next and the sampling heap never
shares a process with the sweeps.  Passes repeat until the next one would
overrun ``--seconds`` (at least ``MIN_PASSES``); metrics are medians over
passes.  Every output is checked; a failed check counts the operation as
failed.  The last stdout line is the result JSON; the line before it holds
run metadata.

--trace 0 reports setup_s, wall_s, cpu_s, peak_rss_mb and ok_frac.  The
three times are scaled to a reference host speed by a probe measured next to
them, and wall_s leaves out the host's steal time (bench/hostspeed.py); the
metadata line holds them unscaled.
--trace 1 alternates untraced and traced passes and reports the traced
layers (see bench/README.md) plus trace.overhead_s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from hostspeed import REFERENCE_PROBE_S  # noqa: E402

WORKLOADS = ("paper-figures", "wide-sets", "sampling")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Interpreters that only import the package and build the inputs, started
# before every pass so that setup_s samples are spread over the whole run;
# with the pass children they give setup_s a median over many samples.
SETUP_ONLY_PER_PASS = 2
CHILD_TIMEOUT_S = 120


class ChildFailed(RuntimeError):
    """A workload process exited abnormally or printed no result."""


def _child(workload: str, seed: int, index: int, trace: bool = False,
           setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "workload.py"), workload,
           "--seed", str(seed), "--pass-index", str(index)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    result["duration_s"] = time.monotonic() - start
    return result


def _openblas_version() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metadata(args, passes: list, setups: list) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "setup_samples": len(setups),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _openblas_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clickwitness" / "__init__.py").is_file():
        print(f"error: no clickwitness package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    setups = []
    passes: list[dict] = []
    attempted = failed = 0
    min_passes = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    while True:
        # Traced runs alternate untraced and traced passes, so both see the
        # same machine conditions and their difference is the tracing cost.
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            if not args.trace:
                for _ in range(SETUP_ONLY_PER_PASS):
                    setups.append(_child(args.workload, args.seed, len(passes),
                                         setup_only=True))
            result = _child(args.workload, args.seed, len(passes), trace=traced)
        except (ChildFailed, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"pass {len(passes)} failed: {exc}", file=sys.stderr)
            return 1
        result["traced"] = traced
        passes.append(result)
        attempted += result["attempted"]
        failed += result["failed"]
        setups.append(result)
        for error in result["errors"]:
            print(f"pass {len(passes) - 1}: {error}", file=sys.stderr)
        print(f"pass {len(passes) - 1}{' traced' if traced else ''}: "
              f"wall {result['wall_s']:.4f} s ({result['raw_wall_s']:.4f} unscaled, "
              f"{result['steal_s']:.4f} steal), "
              f"cpu {result['cpu_s']:.4f} s, rss {result['peak_rss_mb']:.1f} MB, "
              f"setup {result['setup_s']:.4f} s unscaled, "
              f"{len(result['probes_s'])} probes, "
              f"{result['failed']}/{result['attempted']} failed")
        typical = statistics.median(p["duration_s"] for p in passes)
        if not args.trace:
            typical += SETUP_ONLY_PER_PASS * statistics.median(
                c["duration_s"] for c in setups if "wall_s" not in c)
        if (len(passes) >= min_passes
                and time.monotonic() - start + typical > args.seconds):
            break

    untraced = [p for p in passes if not p["traced"]]
    # Set-up is a fraction of a second, too short to bracket with probes of
    # its own, so its median is scaled by the median probe of the whole run.
    raw_setup = statistics.median(c["setup_s"] for c in setups)
    run_probe = statistics.median(
        [c["setup_probe_s"] for c in setups if "wall_s" not in c]
        + [t for p in passes for t in p["probes_s"]])
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {}
        for name, (_, unit) in traced[0]["layers"].items():
            value = statistics.median(p["layers"][name][0] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        overhead = (statistics.median(p["raw_wall_s"] for p in traced)
                    - statistics.median(p["raw_wall_s"] for p in untraced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": raw_setup * REFERENCE_PROBE_S / run_probe, "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall_s"] for p in untraced),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in untraced),
                      "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in untraced),
                            "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    meta = _metadata(args, passes, setups)
    meta["fail_frac"] = failed / attempted
    meta["unscaled"] = {
        "setup_s": raw_setup,
        "wall_s": statistics.median(p["raw_wall_s"] for p in untraced),
        "cpu_s": statistics.median(p["raw_cpu_s"] for p in untraced),
        "steal_s": statistics.median(p["steal_s"] for p in untraced),
        "probe_s": run_probe,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
