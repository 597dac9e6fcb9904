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
Since m_k depends only on (seed, k), shots are drawn in fixed-size chunks
of the counter range and the per-chunk counts summed: memory does not grow
with the shot count, and the histogram is bit-identical to a single pass
over all shots.  A chunk starting at counter s needs the sums
(seed + s * GOLDEN) + (i+1) * GOLDEN mod 2^64, so one counter-step array
(i+1) * GOLDEN is built per call and each chunk adds its offset to it and
mixes the result in place, in two buffers that every chunk reuses.  Only
the first two rounds run on every shot: the last round z ^= z >> 31 leaves
the top 31 bits of z alone, and these are the top 31 bits of m_k.

Two counters turn a chunk into outcome counts; both give the same
histogram, and which one runs depends only on the thresholds.  The inner
thresholds are those with 0 < t_j < 2^53 other than the last, which is
clipped: every shot is at or above a t_j <= 0, and none at or above a
t_j >= 2^53.

* With at most ``_MAX_COMPARED`` inner thresholds, each counts the shots
  at or above it by comparisons of h, the top 32 bits of z: with
  X_j = t_j >> 22, the top 31 bits of t_j, h >= 2 X_j + 2 is at or above
  t_j and h < 2 X_j below it.  Only the rare shots with h >> 1 == X_j
  finish the last round and compare m_k with t_j.  Outcome j's count is
  the total at or above t_{j-1} less the total at or above t_j.
* With more, the top b bits of m_k index a histogram of 2^b buckets (b
  grows with the outcome count K, b <= 18, so the index is read from z
  before the last round).  A bucket holding no threshold belongs to one
  outcome as a whole, and only the shots in the at most K buckets that
  hold a threshold finish the last round and are located by binary
  search.  The bucket histogram is folded into outcome counts in int64.

Bootstrap resampling quantifies the statistical uncertainty of the witness
scalars; the minimal eigenvalue is not a smooth statistic, so the
assumption-light bootstrap is preferred over jackknife-style error
propagation.  The redraws are one ``Generator.multinomial(shots,
frequencies, size=resamples)`` call from a generator seeded by
:func:`derive_seed`, the same stream as ``resamples`` single redraws.  The
point estimate is stacked as row 0 above the redraws and all are evaluated
in one array pass: a (1+R, outcomes) probability array gives a (1+R, d, d)
stack of matrices and one eigensolver call, with the same bits per row as a
matrix built alone.  Only the point estimate's report carries leading
minors; no redraw computes them.  The standard error of min_eig is one
``np.std`` over the redraws' min_eig values.  numpy does not promise the
multinomial stream across versions; a golden-value test pins it.
"""

from __future__ import annotations

import csv
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detectors import CountDistribution, DetectorConfig
from .numerics import min_eigenvalues
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
# Most inner thresholds counted by comparisons; more take the bucket
# histogram.  At 4e6 shots of equal probabilities on a 2-core Xeon,
# comparisons took 18.5 ms against the histogram's 20.8 ms at 5 thresholds,
# 20.6 against 21.2 ms at 6 and 22.9 against 20.8 ms at 8.
_MAX_COMPARED = 5
# Index of a uint64's high 32-bit word in its view as two uint32.
_HIGH_WORD = 1 if sys.byteorder == "little" else 0

DEFAULT_RESAMPLES = 200
# The bootstrap's standard error needs at least this many redraws.
MIN_RESAMPLES = 2


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


def _mixed_chunks(seed: int, shots: int):
    """Counter sums of shots 0 .. shots - 1 after two rounds, chunk by chunk.

    Yields (z, tmp) pairs of ``_CHUNK`` (the last one shorter) uint64
    arrays: z holds the chunk's sums after :func:`_mix_rounds`, tmp is
    scratch of z's shape, free for the caller until the next chunk.  Both
    are views of two buffers that every chunk overwrites.
    """
    # Counter k's sum (seed + (k+1) GOLDEN) mod 2^64 is the chunk's offset
    # plus steps[k - start].
    steps = np.arange(1, min(_CHUNK, shots) + 1, dtype=np.uint64)
    steps *= np.uint64(_GOLDEN)
    z = np.empty_like(steps)
    tmp = np.empty_like(steps)
    for start in range(0, shots, _CHUNK):
        k = min(_CHUNK, shots - start)
        zk, tk = z[:k], tmp[:k]
        np.add(steps[:k], np.uint64((seed + start * _GOLDEN) & _MASK), out=zk)
        _mix_rounds(zk, tk)
        yield zk, tk


def _count_by_comparison(thresholds: np.ndarray, inner: np.ndarray, seed: int,
                         shots: int) -> np.ndarray:
    """Outcome counts from each threshold's count of shots at or above it.

    ``inner`` indexes the thresholds 0 < t_j < 2^53 other than the last.
    The top 32 bits h of z after two rounds hold the top 31 bits of m as
    h >> 1, and X_j = t_j >> 22 holds those of t_j: a shot with
    h >= 2 X_j + 2 is at or above t_j, one with h < 2 X_j below it, and only
    the rare shots with h >> 1 == X_j finish the last round to compare m.
    """
    last = len(thresholds) - 1
    # at[j]: the shots with m >= t_j, for every threshold but the last.
    at = [shots if t <= 0 else 0 for t in thresholds[:last].tolist()]
    tests = []
    for j in inner.tolist():
        t = int(thresholds[j])
        top = t >> (_DRAW_BITS - 31)
        # No h reaches 2 X_j + 2 = 2^32 when X_j = 2^31 - 1.
        above = np.uint32(2 * top + 2) if top < (1 << 31) - 1 else None
        tests.append((j, t, top, np.uint32(2 * top), above))
    # With no inner threshold, no draw decides an outcome.
    for zk, tk in _mixed_chunks(seed, shots) if tests else ():
        # h and its mask hk take 4 and 1 of the scratch's 8 bytes per shot.
        scratch, k = tk.view(np.uint8), zk.size
        h, hk = scratch[:4 * k].view(np.uint32), scratch[4 * k:5 * k].view(bool)
        np.copyto(h, zk.view(np.uint32)[_HIGH_WORD::2])
        for j, t, top, prefix, above in tests:
            sure = 0 if above is None else np.count_nonzero(
                np.greater_equal(h, above, out=hk))
            at[j] += sure
            if np.count_nonzero(np.greater_equal(h, prefix, out=hk)) > sure:
                tied = zk[np.right_shift(h, 1) == top]
                tied ^= tied >> np.uint64(31)
                at[j] += int(np.count_nonzero(tied >> np.uint64(64 - _DRAW_BITS) >= t))
    # Outcome j holds the shots at or above t_{j-1} but below t_j, the last
    # outcome every shot at or above t_{last-1}.
    return -np.diff(np.array([shots, *at, 0], dtype=np.int64))


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


def _count_by_buckets(thresholds: np.ndarray, seed: int, shots: int) -> np.ndarray:
    """Outcome counts from a bucket histogram of the draws' top bits."""
    size = len(thresholds)
    bits = _bucket_bits(size)
    shift = _DRAW_BITS - bits
    # A threshold strictly inside a bucket splits it between two outcomes.
    inside = thresholds[(thresholds < 1 << _DRAW_BITS)
                        & (thresholds & ((1 << shift) - 1) != 0)]
    split = np.zeros(1 << bits, dtype=bool)
    split[inside >> shift] = True
    buckets = np.zeros(1 << bits, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    top = np.uint64(64 - bits)
    for zk, tk in _mixed_chunks(seed, shots):
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
    return counts


def check_shots(shots: int) -> int:
    """``shots`` as a Python int, once it is an integer in 1 .. ``_MAX_SHOTS``."""
    shots = operator.index(shots)
    if not 1 <= shots <= _MAX_SHOTS:
        raise ValueError(f"shots must lie in 1.._MAX_SHOTS = {_MAX_SHOTS}, got {shots}")
    return shots


def check_resamples(resamples: int) -> None:
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"need at least {MIN_RESAMPLES} bootstrap resamples")


def sample(dist: CountDistribution, shots: int, seed: int) -> SampleRun:
    """Draw ``shots`` outcomes by inverse-CDF sampling with SplitMix64."""
    # Python ints (numpy integers too), so that the chunk offsets and
    # derive_seed wrap mod 2^64 exactly.
    shots = check_shots(shots)
    seed = operator.index(seed)
    total = dist.total()
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"distribution sums to {total}; normalize before sampling")
    cdf = np.cumsum(np.array(dist.probs))
    # u >= cdf_j  <=>  m >= ceil(cdf_j * 2^53): both steps are exact.
    thresholds = np.maximum(np.ceil(cdf * 2.0 ** _DRAW_BITS), 0.0).astype(np.int64)
    # The last threshold is clipped; those at or below 0 hold every shot and
    # those at or above 2^53 none, so only the others split the draws.
    head = thresholds[:-1]
    inner = np.flatnonzero((head > 0) & (head < 1 << _DRAW_BITS))
    if inner.size <= _MAX_COMPARED:
        counts = _count_by_comparison(thresholds, inner, seed, shots)
    else:
        counts = _count_by_buckets(thresholds, seed, shots)
    return SampleRun(seed, shots, dist, tuple(counts.tolist()))


# --------------------------------------------------------------------------
# empirical witnesses with bootstrap errors


@dataclass(frozen=True, eq=False)
class EmpiricalWitness:
    """Witness report from sampled data plus bootstrap standard errors.

    ``values`` holds the point estimates, ``stderrs`` the bootstrap standard
    errors keyed identically: "min_eig", and "klyshko_integer" and
    "klyshko_half" where the ratio is defined.  The leading minors are in
    ``report.minors``, without errors.  The verdict demands
    min_eig < -3 stderr, a conservative rule against sampling noise.
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
    check_resamples(resamples)
    check_admissible(iset, cfg, kind)
    empirical = run.empirical()
    rng = np.random.Generator(np.random.PCG64(derive_seed(run.seed)))
    weights = np.array(run.counts, dtype=float) / run.shots
    probs = rng.multinomial(run.shots, weights, size=resamples) / run.shots
    # Row 0 is the point estimate, rows 1.. the redraws.
    entries = from_counts_entries(empirical, np.vstack([weights, probs]), iset, kind)
    min_eigs = min_eigenvalues(entries)
    report = counts_report(empirical, iset, kind, entries[0], min_eigs[0])
    values = {"min_eig": report.min_eig}
    if empirical.kind == "click" and empirical.config.bins >= 3:
        values.update(_klyshko_scalars(empirical))

    stderrs = {"min_eig": float(np.std(min_eigs[1:], ddof=1))}
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
        header = next(reader, None)
        if header != ["outcome", "count"]:
            raise ValueError(f"unexpected histogram header {header}")
        for row in reader:
            try:
                outcome, count = row
                outcomes.append(_parse_outcome(outcome))
                counts.append(int(count))
            except ValueError:
                raise ValueError(f"histogram line {reader.line_num}: {row} is not "
                                 "an outcome,count row") from None
    return tuple(outcomes), tuple(counts)

