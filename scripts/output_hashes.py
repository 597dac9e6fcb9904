#!/usr/bin/env python3
"""Write a fixed set of outputs and print one SHA-256 line per file.

Usage:  python scripts/output_hashes.py OUTDIR

Into the empty or missing directory OUTDIR it writes:

* the figure presets fig1, fig3, fig4, fig5 and fig6, through ``cli.run``;
* both-parity cat sweeps, counts and moments, on the figure grid for on-off
  N=31 and pnr (8,2), the largest admissible sets;
* ``witness --json`` for the even, odd and both cats, and ``sample
  --witness`` of the odd cat at 1e6 shots (stdout and histogram), on the
  photoelectric, on-off N=5 and pnr (4,2) detectors;
* a coherent on-off N=8 sweep, and Fock-input sweeps on pnr (4,2) and on
  the photoelectric detector.

Commands run in-process with OUTDIR as the working directory, so the paths
they print are relative to it.  The listing is a header naming Python,
numpy and the BLAS, then ``sha256  relative/path`` per file, sorted: the
listings of two trees run in the same environment compare with ``diff``.
"""

import contextlib
import hashlib
import io
import os
import platform
import sys
from pathlib import Path

import numpy as np

from clickwitness.cli import main as cli
from clickwitness.cli import run
from clickwitness.scenarios import presets

CAT = ["--state", "cat", "--efficiency", "0.5"]
DETECTORS = {
    "photo": ["--model", "photoelectric"],
    "onoff5": ["--model", "onoff", "--bins", "5"],
    "pnr4_2": ["--model", "pnr", "--bins", "4", "--levels", "2"],
}
FIGURE_GRID = ["--start", "1e-2", "--stop", "1e1", "--points", "200"]
BOTH_KINDS = ["--kind", "counts", "--kind", "moments"]
SWEEPS = {
    "onoff31": [*CAT, "--parity", "both", "--model", "onoff", "--bins", "31",
                *BOTH_KINDS, *FIGURE_GRID],
    "pnr8_2": [*CAT, "--parity", "both", "--model", "pnr", "--bins", "8", "--levels", "2",
               *BOTH_KINDS, *FIGURE_GRID],
    "coherent_onoff8": ["--state", "coherent", "--model", "onoff", "--bins", "8",
                        "--efficiency", "0.5", *BOTH_KINDS, *FIGURE_GRID],
    "fock_pnr4_2": ["--state", "fock", "--coeffs", "0.6,0,0.8", *DETECTORS["pnr4_2"],
                    "--efficiency", "0.5", *BOTH_KINDS, *FIGURE_GRID],
    "fock_photo": ["--state", "fock", "--coeffs", "0.6,0,0.8", *DETECTORS["photo"],
                   "--efficiency", "0.5", *BOTH_KINDS, *FIGURE_GRID],
}


def captured(argv: list, stdout: str) -> None:
    """Run the CLI on ``argv`` and keep what it prints in the file ``stdout``."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli(argv)
    if code != 0:
        raise SystemExit(f"exit {code}: clickwitness {' '.join(argv)}")
    Path(stdout).write_text(text.getvalue())


def write_outputs() -> None:
    for name, scenario in presets().items():
        run(scenario, outdir=Path("figures") / name)
    for name, flags in SWEEPS.items():
        captured(["sweep", *flags, "--name", name, "--outdir", f"sweeps/{name}"],
                 f"sweeps/{name}.stdout")
    Path("witness").mkdir()
    for name, flags in DETECTORS.items():
        for parity in ("even", "odd", "both"):
            captured(["witness", *CAT, "--parity", parity, *flags, "--json"],
                     f"witness/{name}_{parity}.json")
        captured(["sample", *CAT, "--parity", "odd", *flags, "--shots", "1000000",
                  "--witness", "--outdir", f"sample/{name}"], f"sample/{name}.stdout")


def header() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# python {platform.python_version()}  numpy {np.__version__}  "
            f"blas {blas['name']} {blas.get('version', '?')}")


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        raise SystemExit(f"{outdir} is not empty")
    os.chdir(outdir)
    write_outputs()
    print(header())
    for path in sorted(p.as_posix() for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(Path(path).read_bytes()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
