"""Regenerate the committed reference outputs in bench/reference/.

Usage: python3 bench/make_reference.py

Writes ``paper_figures.json`` (every row of every fig1..fig6 output, values
to 10 significant digits, which is far inside the check's tolerance) and
``histogram_onoff5_seed1.csv`` (the default-seed histogram of the sampling
workload's large draw).  Run it only when a change to the package's
outputs is intended, and say so in CHANGES.md.
"""

import json
import shutil

from workload import (
    DEFAULT_SEED, FIGURES, LARGE_SHOTS, OUTPUT, REFERENCE, VERDICT_CODES,
    _distribution, _read_rows, cli, sampler, sampling_inputs, scenarios,
)


def figures_reference() -> dict:
    codes = {verdict: code for code, verdict in VERDICT_CODES.items()}
    catalogue = scenarios.presets()
    outdir = OUTPUT / "reference"
    reference = {}
    try:
        for name in FIGURES:
            paths = cli.run(catalogue[name], outdir=outdir / name)
            files = {}
            states = set()
            for path in paths:
                rows = sorted(_read_rows(path),
                              key=lambda r: (float(r["grid_value"]), r["state"]))
                states.update(r["state"] for r in rows)
                values = [float(r["value"]) for r in rows]
                files[path.name] = {
                    "scale": max(abs(v) for v in values),
                    "values": [float(f"{v:.10g}") for v in values],
                    "verdicts": "".join(codes[r["verdict"]] for r in rows),
                }
            reference[name] = {
                "grid": list(catalogue[name].sweep.grid()),
                "states": sorted(states),
                "files": files,
            }
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return reference


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    with open(REFERENCE / "paper_figures.json", "w") as handle:
        json.dump(figures_reference(), handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    inputs = sampling_inputs(DEFAULT_SEED)
    cfg, _ = inputs["large"]
    run = sampler.sample(_distribution(inputs["state"], cfg), LARGE_SHOTS, DEFAULT_SEED)
    sampler.write_histogram(run, REFERENCE / "histogram_onoff5_seed1.csv")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
