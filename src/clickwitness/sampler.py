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
lexicographic outcome order: shot k lands on the first outcome j with
u_k < cdf_j, clipped at the last outcome.  The draw compares integers, not
floats.  With m_k = z >> 11 and t_j = max(0, ceil(cdf_j * 2^53)),
u_k >= cdf_j  <=>  m_k >= t_j, because u_k = m_k * 2^-53 exactly and both
the scaling by 2^53 and the ceil are exact in binary floating point.
Most shots never search the thresholds: the top b bits of m_k index a
histogram of 2^b buckets, a bucket holding no threshold belongs to one
outcome as a whole, and only the shots in the at most K buckets that
hold a threshold are located by binary search (b grows with the outcome
count K).  The bucket histogram is folded into outcome counts in int64.
Since m_k depends only on (seed, k), shots are drawn in fixed-size chunks
of the counter range and the per-chunk histograms summed: memory does not
grow with the shot count, and the histogram is bit-identical to a single
pass over all shots.  A chunk starting at counter s needs the sums
(seed + s * GOLDEN) + (i+1) * GOLDEN mod 2^64, so one counter-step array
(i+1) * GOLDEN is built per call and each chunk adds its offset to it and
mixes the result in place, in two buffers that every chunk reuses.  Only
the first two rounds run on every shot: the last round z ^= z >> 31 leaves
the top 31 bits of z alone, and the top b <= 18 bits of z are the top b
bits of m_k, so the bucket index is read before it.  Only the shots in a
split bucket finish the last round and are shifted to m_k and searched.

Bootstrap resampling quantifies the statistical uncertainty of the witness
scalars; the minimal eigenvalue is not a smooth statistic, so the
assumption-light bootstrap is preferred over jackknife-style error
propagation.  The redraws are one ``Generator.multinomial(shots,
frequencies, size=resamples)`` call from a generator seeded by
:func:`derive_seed`, the same stream as ``resamples`` single redraws.  The
point estimate is stacked as row 0 above the redraws and all are evaluated
in one array pass: a (1+R, outcomes) probability array gives a (1+R, d, d)
stack of matrices, one eigensolver call and one determinant call per minor
order, with the same bits per row as a matrix built alone.  The standard
errors of min_eig and of every minor come from one ``np.std`` over the
rows of a C-contiguous (1+d, R) array, which sums each row pairwise like a
1-D ``np.std``.  numpy does not promise the multinomial stream across
versions; a golden-value test pins it.
"""

from __future__ import annotations

import csv
import math
import operator
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
    # Unused here since empirical_witness builds its report from the
    # bootstrap stack; bench/tracing.py still looks both names up in this
    # module.
    count_matrix_from_counts,  # noqa: F401
    counts_report,
    from_counts_entries,
    klyshko_ratio,
    klyshko_value,
    moment_matrix_from_counts,  # noqa: F401
)

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_MAX_SHOTS = 100_000_000
# Shots per chunk: bounds the draw's memory (512 KiB per array); 2^16 measured
# fastest against 2^12..2^20 and an unchunked draw.
_CHUNK = 1 << 16
# Bits of a shot's integer draw m = z >> 11, with u = m * 2^-53.
_DRAW_BITS = 53

DEFAULT_RESAMPLES = 200


def _mix_rounds(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64's two multiply rounds on the counter sums ``z``, in place.

    The final round ``z ^= z >> 31`` leaves the top 31 bits alone, so these
    are already the top 31 bits of the output.  ``tmp`` is a scratch array
    of z's shape, so that no round allocates.
    """
    for shift, multiplier in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=tmp)
        z *= np.uint64(multiplier)


def _mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64's output rounds on the counter sums ``z``, in place."""
    _mix_rounds(z, tmp)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)


def splitmix64(seed: int, count: int, start: int = 0) -> np.ndarray:
    """SplitMix64 outputs ``start`` .. ``start + count - 1`` for ``seed``."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    # As a Python int, so that a numpy integer seed is masked without overflow.
    z += np.uint64(operator.index(seed) & _MASK)
    _mix(z, np.empty_like(z))
    return z


def derive_seed(seed: int, stream: int = 1) -> int:
    """Decorrelated child seed for auxiliary streams (e.g. the bootstrap)."""
    return int(splitmix64(operator.index(seed) ^ (0xA5A5A5A5A5A5A5A5 * stream), 1)[0])


@dataclass(frozen=True)
class SampleRun:
    """Histogram of a finite-shot measurement of a counting distribution."""

    seed: int
    shots: int
    source: CountDistribution
    counts: tuple[int, ...]

    def empirical(self) -> CountDistribution:
        probs = tuple(c / self.shots for c in self.counts)
        return CountDistribution(
            self.source.kind, self.source.outcomes, probs, self.source.config
        )


def _bucket_bits(size: int) -> int:
    """Bucket histogram width for ``size`` outcomes.

    About 8 buckets per outcome, clamped to 2^12 .. 2^18 buckets, so that
    few shots fall in a bucket that holds a threshold.  A fixed 2^12 buckets
    measured 4x slower at 5000 outcomes.
    """
    return min(max(size.bit_length() + 3, 12), 18)


def _locate(thresholds: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Outcome of each draw: its count of thresholds <= it, clipped."""
    idx = np.searchsorted(thresholds, draws, side="right")
    return np.minimum(idx, len(thresholds) - 1, out=idx)


def sample(dist: CountDistribution, shots: int, seed: int) -> SampleRun:
    """Draw ``shots`` outcomes by inverse-CDF sampling with SplitMix64."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots capped at {_MAX_SHOTS}")
    # A Python int (numpy integers too), so that the chunk offsets and
    # derive_seed wrap mod 2^64 exactly.
    seed = operator.index(seed)
    total = dist.total()
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"distribution sums to {total}; normalize before sampling")
    size = len(dist.probs)
    cdf = np.cumsum(np.array(dist.probs))
    # u >= cdf_j  <=>  m >= ceil(cdf_j * 2^53): both steps are exact.
    thresholds = np.maximum(np.ceil(cdf * 2.0 ** _DRAW_BITS), 0.0).astype(np.int64)
    bits = _bucket_bits(size)
    shift = _DRAW_BITS - bits
    # A threshold strictly inside a bucket splits it between two outcomes.
    inside = thresholds[(thresholds < 1 << _DRAW_BITS)
                        & (thresholds & ((1 << shift) - 1) != 0)]
    split = np.zeros(1 << bits, dtype=bool)
    split[inside >> shift] = True
    buckets = np.zeros(1 << bits, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    # Counter k's sum (seed + (k+1) GOLDEN) mod 2^64 is the chunk's offset
    # plus steps[k - start]; z and tmp are reused by every chunk.
    steps = np.arange(1, min(_CHUNK, shots) + 1, dtype=np.uint64)
    steps *= np.uint64(_GOLDEN)
    z = np.empty_like(steps)
    tmp = np.empty_like(steps)
    top = np.uint64(64 - bits)
    for start in range(0, shots, _CHUNK):
        k = min(_CHUNK, shots - start)
        zk, tk = z[:k], tmp[:k]
        np.add(steps[:k], np.uint64((seed + start * _GOLDEN) & _MASK), out=zk)
        _mix_rounds(zk, tk)
        # The top b <= 18 bits of m = z >> 11 are the top bits of z, which
        # the final round leaves alone; only straddling shots need it.
        bucket = np.right_shift(zk, top, out=tk).view(np.int64)
        buckets += np.bincount(bucket, minlength=1 << bits)
        straddling = zk[split[bucket]]
        if straddling.size:
            straddling ^= straddling >> np.uint64(31)
            draws = (straddling >> np.uint64(64 - _DRAW_BITS)).view(np.int64)
            part = np.bincount(_locate(thresholds, draws))
            counts[:part.size] += part
    # Every other drawn bucket goes whole to the outcome of its lowest draw.
    whole = np.flatnonzero((buckets > 0) & ~split)
    np.add.at(counts, _locate(thresholds, whole << shift), buckets[whole])
    return SampleRun(seed, shots, dist, tuple(counts.tolist()))


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
    empirical = run.empirical()
    rng = np.random.Generator(np.random.PCG64(derive_seed(run.seed)))
    weights = np.array(run.counts, dtype=float) / run.shots
    probs = rng.multinomial(run.shots, weights, size=resamples) / run.shots
    # Row 0 is the point estimate, rows 1.. the redraws.
    entries = from_counts_entries(empirical, np.vstack([weights, probs]), iset, kind)
    min_eigs = min_eigenvalues(entries)
    minors = leading_minors_stack(entries)
    report = counts_report(empirical, iset, kind, entries[0], (min_eigs[0], minors[0]))
    values = _matrix_scalars(report)
    if empirical.kind == "click" and empirical.config.bins >= 3:
        values.update(_klyshko_scalars(empirical))

    # The redraws' min_eig and minors as the rows of a C-contiguous array
    # (copy() is C order), whose rows np.std sums pairwise like 1-D arrays;
    # values lists min_eig and the minors first, in the same order.
    spectral = np.column_stack([min_eigs, minors])[1:].T.copy()
    stderrs = dict(zip(values, np.std(spectral, axis=-1, ddof=1).tolist()))
    redraws = _klyshko_redraws(
        empirical, probs, [key for key in values if key.startswith("klyshko_")]
    )
    for key, series in redraws.items():
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

