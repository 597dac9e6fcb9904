"""Monte-Carlo sampling of counting distributions and empirical witnesses.

Reproducibility contract: the sampler uses SplitMix64, a counter-based
64-bit generator, so a (seed, shots, distribution) triple determines the
histogram bit-exactly on any platform and library version.  The k-th
uniform is

    z   = (seed + (k+1) * 0x9E3779B97F4A7C15) mod 2^64
    z  ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
    z  ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
    z  ^= z >> 31
    u_k = (z >> 11) * 2^-53

and outcomes are drawn by inverting the CDF over the distribution's fixed
lexicographic outcome order.  Since u_k depends only on (seed, k), shots
are drawn in fixed-size chunks of the counter range and the per-chunk
histograms summed: memory does not grow with the shot count, and the
histogram is bit-identical to a single pass over all shots.

Bootstrap resampling quantifies the statistical uncertainty of the witness
scalars; the minimal eigenvalue is not a smooth statistic, so the
assumption-light bootstrap is preferred over jackknife-style error
propagation.  The redraws are one ``Generator.multinomial(shots,
frequencies, size=resamples)`` call from a generator seeded by
:func:`derive_seed`, the same stream as ``resamples`` single redraws, and
are evaluated in one array pass: an (R, outcomes) probability array gives
an (R, d, d) stack of matrices, one eigensolver call and one determinant
call per minor order.  numpy does not promise the multinomial stream
across versions; a golden-value test pins it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detectors import CountDistribution, DetectorConfig
from .numerics import leading_minors_stack, min_eigenvalues
from .witnesses import (
    HALF,
    INDETERMINATE,
    INTEGER,
    KLYSHKO_OUTCOMES,
    NONCLASSICAL,
    NO_VIOLATION,
    IndexSet,
    WitnessReport,
    check_admissible,
    count_matrix_from_counts,
    from_counts_entries,
    klyshko_ratio,
    klyshko_value,
    moment_matrix_from_counts,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MAX_SHOTS = 100_000_000
# Shots per chunk: bounds the draw's memory (512 KiB per array); 2^16 measured
# fastest against 2^12..2^20 and an unchunked draw.
_CHUNK = 1 << 16

DEFAULT_RESAMPLES = 200


def splitmix64(seed: int, count: int, start: int = 0) -> np.ndarray:
    """SplitMix64 outputs ``start`` .. ``start + count - 1`` for ``seed``."""
    ks = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & (2 ** 64 - 1)) + ks * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
    return z


def uniform01(seed: int, count: int, start: int = 0) -> np.ndarray:
    """``count`` doubles in [0, 1) from SplitMix64 outputs ``start`` on."""
    bits = splitmix64(seed, count, start) >> np.uint64(11)
    return bits.astype(np.float64) * 2.0 ** -53


def derive_seed(seed: int, stream: int = 1) -> int:
    """Decorrelated child seed for auxiliary streams (e.g. the bootstrap)."""
    return int(splitmix64(seed ^ (0xA5A5A5A5A5A5A5A5 * stream), 1)[0])


@dataclass(frozen=True)
class SampleRun:
    """Histogram of a finite-shot measurement of a counting distribution."""

    seed: int
    shots: int
    source: CountDistribution
    counts: tuple[int, ...]

    def histogram(self) -> dict:
        return dict(zip(self.source.outcomes, self.counts))

    def empirical(self) -> CountDistribution:
        probs = tuple(c / self.shots for c in self.counts)
        return CountDistribution(
            self.source.kind, self.source.outcomes, probs, self.source.config
        )


def sample(dist: CountDistribution, shots: int, seed: int) -> SampleRun:
    """Draw ``shots`` outcomes by inverse-CDF sampling with SplitMix64."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots capped at {_MAX_SHOTS}")
    total = dist.total()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"distribution sums to {total}; normalize before sampling")
    cdf = np.cumsum(np.array(dist.probs))
    size = len(dist.probs)
    counts = np.zeros(size, dtype=np.int64)
    for start in range(0, shots, _CHUNK):
        draws = uniform01(seed, min(_CHUNK, shots - start), start)
        idx = np.searchsorted(cdf, draws, side="right")
        np.minimum(idx, size - 1, out=idx)
        counts += np.bincount(idx, minlength=size)
    return SampleRun(seed, shots, dist, tuple(int(c) for c in counts))


# --------------------------------------------------------------------------
# empirical witnesses with bootstrap errors


@dataclass(frozen=True, eq=False)
class EmpiricalWitness:
    """Witness report from sampled data plus bootstrap standard errors.

    ``values`` holds the point estimates, ``stderrs`` the bootstrap standard
    errors keyed identically ("min_eig", "minor_1", ..., and the Klyshko
    ratios where defined).  The verdict demands min_eig < -3 stderr, a
    conservative rule against sampling noise.
    """

    report: WitnessReport
    values: dict
    stderrs: dict
    verdict: str
    resamples: int

    # Caveat: the minimal eigenvalue is a concave statistic, so for states
    # sitting exactly at the classical boundary (exact min_eig ~ 0) the
    # empirical estimate is biased downward while the bootstrap only
    # measures dispersion.  Treat borderline verdicts on near-boundary
    # states with care; genuinely negative eigenvalues are certified
    # reliably once |min_eig| clears a few standard errors.


def _matrix_scalars(report: WitnessReport) -> dict:
    scalars = {"min_eig": report.min_eig}
    for order, minor in enumerate(report.minors, start=1):
        scalars[f"minor_{order}"] = minor
    return scalars


def _klyshko_scalars(counts: CountDistribution) -> dict:
    scalars = {}
    bins = counts.config.bins
    for variant, needs in ((INTEGER, 2), (HALF, 3)):
        if bins >= needs:
            result = klyshko_ratio(counts, variant)
            if result.verdict != INDETERMINATE:
                scalars[f"klyshko_{variant}"] = result.ratio
    return scalars


def _klyshko_redraws(counts: CountDistribution, probs: np.ndarray, keys) -> dict:
    """Each Klyshko scalar of every redraw row whose denominator is nonzero."""
    index = {outcome: k for k, outcome in enumerate(counts.outcomes)}
    absent = [0.0] * len(probs)
    series = {}
    for key in keys:
        columns = [
            probs[:, index[k]].tolist() if k in index else absent
            for k in KLYSHKO_OUTCOMES[key.removeprefix("klyshko_")]
        ]
        ratios = (klyshko_value(*row) for row in zip(*columns))
        series[key] = [ratio for ratio in ratios if not math.isnan(ratio)]
    return series


def empirical_witness(run: SampleRun, cfg: DetectorConfig, iset: IndexSet,
                      resamples: int = DEFAULT_RESAMPLES,
                      kind: str = "counts") -> EmpiricalWitness:
    """Witness matrix from empirical frequencies with bootstrap errors.

    ``kind`` is "counts" or "moments".  Bootstrap: ``resamples``
    multinomial redraws of the histogram, drawn by one
    ``Generator.multinomial(..., size=resamples)`` call (the same stream as
    that many single redraws) and evaluated together as a stack of
    matrices, with the same arithmetic as the point estimate.  Klyshko
    ratios whose denominators vanish in a redraw (empty outcome classes)
    are skipped for that redraw; a scalar resolved fewer than twice gets a
    NaN standard error.
    """
    if run.source.config != cfg:
        raise ValueError("run outcome space does not match the detector config")
    if resamples < 2:
        raise ValueError("need at least 2 bootstrap resamples")
    check_admissible(iset, cfg, kind)
    builder = count_matrix_from_counts if kind == "counts" else moment_matrix_from_counts
    empirical = run.empirical()
    report = builder(empirical, iset)
    values = _matrix_scalars(report)
    if empirical.kind == "click" and empirical.config.bins >= 3:
        values.update(_klyshko_scalars(empirical))

    rng = np.random.Generator(np.random.PCG64(derive_seed(run.seed)))
    weights = np.array(run.counts, dtype=float) / run.shots
    probs = rng.multinomial(run.shots, weights, size=resamples) / run.shots
    entries = from_counts_entries(empirical, probs, iset, kind)
    boot = {"min_eig": min_eigenvalues(entries)}
    for order, minors in enumerate(leading_minors_stack(entries).T, start=1):
        boot[f"minor_{order}"] = minors
    boot.update(_klyshko_redraws(
        empirical, probs, [key for key in values if key.startswith("klyshko_")]
    ))

    stderrs = {}
    for key, series in boot.items():
        if len(series) >= 2:
            stderrs[key] = float(np.std(np.array(series), ddof=1))
        else:
            stderrs[key] = math.nan

    min_eig = values["min_eig"]
    err = stderrs["min_eig"]
    if err == 0.0:
        verdict = NONCLASSICAL if min_eig < -report.tolerance else NO_VIOLATION
    elif abs(min_eig) < 3.0 * err:
        verdict = INDETERMINATE
    elif min_eig < 0.0:
        verdict = NONCLASSICAL
    else:
        verdict = NO_VIOLATION
    return EmpiricalWitness(report, values, stderrs, verdict, resamples)


# --------------------------------------------------------------------------
# histogram CSV round trip


def _format_outcome(outcome) -> str:
    if isinstance(outcome, tuple):
        return ";".join(str(v) for v in outcome)
    return str(outcome)


def _parse_outcome(text: str):
    if ";" in text:
        return tuple(int(v) for v in text.split(";"))
    return int(text)


def write_histogram(run: SampleRun, path) -> None:
    """Write ``outcome,count`` rows; multi-outcomes are ';'-joined."""
    with open(Path(path), "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["outcome", "count"])
        for outcome, count in zip(run.source.outcomes, run.counts):
            writer.writerow([_format_outcome(outcome), count])


def read_histogram(path) -> tuple[tuple, tuple[int, ...]]:
    """Inverse of :func:`write_histogram`; returns (outcomes, counts)."""
    outcomes = []
    counts = []
    with open(Path(path), newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != ["outcome", "count"]:
            raise ValueError(f"unexpected histogram header {header}")
        for row in reader:
            outcomes.append(_parse_outcome(row[0]))
            counts.append(int(row[1]))
    return tuple(outcomes), tuple(counts)


def histogram_distribution(outcomes, counts, kind: str,
                           cfg: DetectorConfig | None = None) -> CountDistribution:
    """Empirical distribution from lab-style histogram data."""
    total = sum(counts)
    if total < 1:
        raise ValueError("histogram is empty")
    probs = tuple(c / total for c in counts)
    return CountDistribution(kind, tuple(outcomes), probs, cfg)
