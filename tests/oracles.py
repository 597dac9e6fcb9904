"""Independent reference implementations used only for cross-checking.

Nothing here shares code paths with the package: determinants are cofactor
expansions, eigenvalues come from sign bisection on det(A - x I), and
normally ordered expectations are evaluated through an explicit monomial
series instead of the package's per-term closed form.  The single-point
evaluators at the end take one component pair and one grid point at a time
with Python complex arithmetic; the package evaluates whole grids as arrays.
The from-counts builders and the bootstrap at the end assemble one entry and
one redraw at a time, with per-matrix eigenvalue and determinant calls; the
package evaluates every redraw of a bootstrap in one array pass.  The
outcome-by-outcome from-counts sum shares the package's outcome weights
but adds every outcome's term, zero weights included; the package adds
only the nonzero terms, one step for the j-th term of every pair sum.  The
sampler oracle draws every shot as a float uniform and binary-searches it in
the float CDF; the package compares integer draws with integer thresholds
through a bucket histogram.  It reuses the package's SplitMix64, which the
sampler tests check against the pure-Python ``scalar_splitmix`` here.  The
distribution check and the CSV writer at the end take one probability and
one row at a time; the package checks a whole distribution as an array and
formats the cells that a CSV block shares once.
"""

import cmath
import csv
import math

import numpy as np


def cofactor_det(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0.0
    for col in range(n):
        minor = [r[:col] + r[col + 1:] for r in rows[1:]]
        total += (-1.0) ** col * rows[0][col] * cofactor_det(minor)
    return total


def min_eig_bisection(entries, tol=1e-11):
    """Smallest root of det(A - x I) located by scan plus bisection."""
    rows = [list(map(float, row)) for row in entries]
    n = len(rows)
    radii = [sum(abs(rows[i][j]) for j in range(n) if j != i) for i in range(n)]
    lo = min(rows[i][i] - radii[i] for i in range(n)) - 1.0
    hi = max(rows[i][i] + radii[i] for i in range(n)) + 1.0

    def char(x):
        shifted = [
            [rows[i][j] - (x if i == j else 0.0) for j in range(n)]
            for i in range(n)
        ]
        return cofactor_det(shifted)

    # det(A - x I) = prod(l_i - x) is positive for x below every eigenvalue.
    steps = 4000
    left = lo
    f_left = char(left)
    assert f_left > 0.0, "scan must start below the spectrum"
    right = None
    for k in range(1, steps + 1):
        x = lo + (hi - lo) * k / steps
        if char(x) <= 0.0:
            right = x
            break
        left = x
    assert right is not None, "no sign change found; eigenvalues too clustered"
    for _ in range(200):
        mid = 0.5 * (left + right)
        if char(mid) > 0.0:
            left = mid
        else:
            right = mid
        if right - left < tol:
            break
    return 0.5 * (left + right)


def series_coefficients(expr, k_max):
    """Monomial coefficients a_k with f(x) = sum_k a_k x^k up to k_max.

    Expands each term c y^p exp(-d y) with y = r x + off through the
    exponential series; truncation at k_max is exact for expectations on
    Fock support <= k_max because <n|:x^k:|n> vanishes for k > n.
    """
    coeffs = [0.0] * (k_max + 1)
    for c, p, d in expr.terms:
        pref = c * math.exp(-d * expr.offset)
        for q in range(p + 1):
            base = math.comb(p, q) * expr.offset ** (p - q) * expr.rate ** q
            if base == 0.0:
                continue
            for j in range(k_max + 1 - q):
                coeffs[q + j] += pref * base * (-d * expr.rate) ** j / math.factorial(j)
    return coeffs


def series_expect_fock(fock_probs, expr):
    """Expectation via the monomial series: <n|:x^k:|n> = n!/(n-k)!."""
    n_max = len(fock_probs) - 1
    coeffs = series_coefficients(expr, n_max)
    total = 0.0
    for n, prob in enumerate(fock_probs):
        if prob == 0.0:
            continue
        acc = 0.0
        ff = 1.0
        for k in range(n + 1):
            if k > 0:
                ff *= n - k + 1
            acc += coeffs[k] * ff
        total += prob * acc
    return total


def naive_product_terms(e1, e2):
    """Term-by-term product without the package's merging and sorting."""
    return [
        (c1 * c2, p1 + p2, d1 + d2)
        for c1, p1, d1 in e1.terms
        for c2, p2, d2 in e2.terms
    ]


# --------------------------------------------------------------------------
# single-point evaluators: one component pair and one grid point at a time


def value_with_exponent(expr, x, extra=0j):
    """sum_t coeff_t y^power_t exp(extra - decay_t y) at y = rate x + offset."""
    if not expr.terms:
        return 0j
    y = expr.rate * complex(x) + expr.offset
    coeffs = np.array([t[0] for t in expr.terms], dtype=float)
    powers = np.array([t[1] for t in expr.terms], dtype=np.int64)
    decays = np.array([t[2] for t in expr.terms], dtype=float)
    vals = coeffs * np.power(y, powers) * np.exp(complex(extra) - decays * y)
    return complex(np.sum(vals))


def pair_expect(state, exprs):
    """<:prod_m h_m(n_m):> of a coherent superposition, pair by pair."""
    total = 0j
    for wi, ai in zip(state.weights, state.amplitudes):
        for wj, aj in zip(state.weights, state.amplitudes):
            factor = 1.0 + 0j
            for expr, am, bm in zip(exprs, ai, aj):
                x = am.conjugate() * bm
                overlap_exp = -0.5 * (abs(am) ** 2 + abs(bm) ** 2) + x
                factor *= value_with_exponent(expr, x, overlap_exp)
            total += wi.conjugate() * wj * factor
    assert abs(total.imag) <= 1e-10 * max(1.0, abs(total.real))
    return total.real


def _low_poly(y, levels):
    """sum_{j < levels} y^j / j!"""
    total = 1.0 + 0j
    term = 1.0 + 0j
    for j in range(1, levels):
        term *= y / j
        total += term
    return total


def _tail_series(y, levels):
    """sum_{j >= levels} y^j / j!, accurate for |y| < 1."""
    term = y ** levels / math.factorial(levels)
    total = term
    j = levels
    while j < levels + 60:
        j += 1
        term *= y / j
        total += term
        if abs(term) <= 1e-20 * max(abs(total), 1e-300):
            break
    return total


def _pair_product_value(y, overlap_exp, exponents, levels):
    """prod_j pi_j(y)^{e_j} exp(overlap_exp) for one component pair."""
    folded = sum(exponents[:levels])
    poly = 1.0 + 0j
    for j in range(1, levels):
        if exponents[j]:
            poly *= (y ** j / math.factorial(j)) ** exponents[j]
    last = exponents[levels]
    if last:
        if abs(y) < 1.0:
            poly *= _tail_series(y, levels) ** last
            folded += last
        else:
            poly *= (1.0 - cmath.exp(-y) * _low_poly(y, levels)) ** last
    return cmath.exp(overlap_exp - folded * y) * poly


def pair_povm_product(state, rate, offset, levels, exponents):
    """<: pi_0^{e_0} ... pi_K^{e_K} :> of a single-mode superposition."""
    total = 0j
    for wi, (ai,) in zip(state.weights, state.amplitudes):
        for wj, (aj,) in zip(state.weights, state.amplitudes):
            x = ai.conjugate() * aj
            overlap_exp = -0.5 * (abs(ai) ** 2 + abs(aj) ** 2) + x
            y = rate * x + offset
            total += wi.conjugate() * wj * _pair_product_value(
                y, overlap_exp, exponents, levels
            )
    assert abs(total.imag) <= 1e-10 * max(1.0, abs(total.real))
    return total.real


def expanded_povm_product(levels, exponents, rate, offset):
    """Binomially expanded expression of prod_j pi_j^{e_j}."""
    from clickwitness.states import NOExpr

    lower = [
        NOExpr.monomial(1.0 / math.factorial(j), j, 1.0, rate, offset)
        for j in range(levels)
    ]
    last = NOExpr.one(rate, offset)
    for expr in lower:
        last = last - expr
    out = NOExpr.one(rate, offset)
    for expr, e in zip(lower + [last], exponents):
        out = out * expr ** e
    return out


# --------------------------------------------------------------------------
# from-counts matrices and the bootstrap, one entry and one redraw at a time


def _loop_report(entry, labels, source):
    """Per-entry matrix build with per-matrix eigenvalue and determinants."""
    from clickwitness.numerics import SymMatrix
    from clickwitness.witnesses import WitnessReport

    matrix = SymMatrix.build(len(labels), entry)
    entries = matrix.entries
    return WitnessReport(
        matrix=matrix,
        labels=tuple(labels),
        min_eig=float(np.linalg.eigvalsh(entries)[0]),
        minors=tuple(float(np.linalg.det(entries[:k, :k]))
                     for k in range(1, len(labels) + 1)),
        source=source,
    )


def _pair_sum(a, b):
    if isinstance(a, tuple):
        return tuple((x + y).to_int() for x, y in zip(a, b))
    return (a + b).to_int()


def loop_count_matrix_from_counts(counts, iset):
    """Counting matrix with one ``counts.prob`` lookup per entry."""
    from clickwitness.numerics import binom, multinom

    cfg = counts.config
    labels = iset.elements

    def entry(i, j):
        s = _pair_sum(labels[i], labels[j])
        if counts.kind == "photo":
            return math.factorial(s) * counts.prob(s)
        if counts.kind == "click":
            return counts.prob(s) / binom(cfg.bins, s)
        return counts.prob(s) / multinom(cfg.bins, s)

    return _loop_report(entry, labels, f"counts:{cfg.model}")


def loop_moment_matrix_from_counts(counts, iset):
    """Moment matrix with one per-outcome moment sum per entry."""
    from clickwitness.detectors import (
        click_moment_from_counts,
        factorial_moment_from_counts,
        pnr_moment_from_counts,
    )

    moment = {
        "photo": factorial_moment_from_counts,
        "click": click_moment_from_counts,
        "pnr": pnr_moment_from_counts,
    }[counts.kind]
    labels = iset.elements

    def entry(i, j):
        return moment(counts, _pair_sum(labels[i], labels[j]))

    return _loop_report(entry, labels, f"moments:{counts.config.model}")


def loop_from_counts_entries(counts, probs, iset, kind):
    """``from_counts_entries`` with one step per outcome, zero weights included."""
    from clickwitness.witnesses import (
        _fill,
        _outcome_weights,
        _pair_quantities,
        _pair_sum_multi,
        _pair_sum_scalar,
    )

    pair_sum = _pair_sum_multi if counts.kind == "pnr" else _pair_sum_scalar
    quantities = _pair_quantities(iset, pair_sum)
    sums = list(dict.fromkeys(quantities.values()))
    index = {outcome: k for k, outcome in enumerate(counts.outcomes)}
    weights, divisors = zip(*(_outcome_weights(counts, kind, s, index) for s in sums))
    weights = np.array(weights)
    acc = np.zeros(probs.shape[:-1] + (len(sums),))
    for k in range(len(counts.outcomes)):
        acc += probs[..., k, None] * weights[:, k]
    values = acc / np.array(divisors)
    return _fill(len(iset.elements), quantities,
                 dict(zip(sums, np.moveaxis(values, -1, 0))))


def _loop_klyshko(counts):
    """Klyshko ratios of a click distribution, where their denominators are not 0."""
    ratios = {}
    for variant, (low, mid, high) in (("integer", (0, 1, 2)), ("half", (1, 2, 3))):
        denom = counts.prob(mid) ** 2
        if denom != 0.0:
            ratios[f"klyshko_{variant}"] = counts.prob(low) * counts.prob(high) / denom
    return ratios


def loop_empirical_witness(run, iset, resamples, kind):
    """(values, stderrs, verdict, report, resolved) of the redraw-by-redraw bootstrap.

    ``resolved`` counts, per scalar, the redraws in which it was defined.
    """
    from clickwitness.detectors import CountDistribution
    from clickwitness.sampler import derive_seed

    builder = loop_count_matrix_from_counts if kind == "counts" else loop_moment_matrix_from_counts
    empirical = run.empirical()
    klyshko = empirical.kind == "click" and empirical.config.bins >= 3

    def scalars(dist):
        report = builder(dist, iset)
        out = {"min_eig": report.min_eig}
        out.update({f"minor_{k}": m for k, m in enumerate(report.minors, start=1)})
        if klyshko:
            out.update(_loop_klyshko(dist))
        return report, out

    report, values = scalars(empirical)
    rng = np.random.Generator(np.random.PCG64(derive_seed(run.seed)))
    weights = np.array(run.counts, dtype=float) / run.shots
    boot = {key: [] for key in values}
    for _ in range(resamples):
        redraw = rng.multinomial(run.shots, weights)
        redraw_dist = CountDistribution(
            empirical.kind, empirical.outcomes,
            tuple(float(c) / run.shots for c in redraw), empirical.config,
        )
        for key, value in scalars(redraw_dist)[1].items():
            if key in boot:
                boot[key].append(value)
    stderrs = {
        key: float(np.std(np.array(series), ddof=1)) if len(series) >= 2 else math.nan
        for key, series in boot.items()
    }
    min_eig, err = values["min_eig"], stderrs["min_eig"]
    max_abs = float(np.max(np.abs(report.matrix.entries)))
    if err == 0.0:
        verdict = "nonclassical" if min_eig < -1e-10 * max_abs else "no_violation"
    elif abs(min_eig) < 3.0 * err:
        verdict = "indeterminate"
    elif min_eig < 0.0:
        verdict = "nonclassical"
    else:
        verdict = "no_violation"
    return values, stderrs, verdict, report, {key: len(s) for key, s in boot.items()}


# --------------------------------------------------------------------------
# the sampler's draw, one float uniform and one CDF search per shot


def scalar_splitmix(seed, count, start=0):
    """Pure-Python SplitMix64 reference, independent of the vectorized path."""
    mask = (1 << 64) - 1
    out = []
    for k in range(start + 1, start + count + 1):
        z = (seed + k * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def uniform01(seed, count, start=0):
    """``count`` doubles in [0, 1) from SplitMix64 outputs ``start`` on."""
    from clickwitness.sampler import splitmix64

    bits = splitmix64(seed, count, start) >> np.uint64(11)
    return bits.astype(np.float64) * 2.0 ** -53


def single_pass_counts(dist, shots, seed):
    """Histogram from one full-length draw, the unchunked definition."""
    cdf = np.cumsum(np.array(dist.probs))
    idx = np.searchsorted(cdf, uniform01(seed, shots), side="right")
    idx = np.minimum(idx, len(dist.probs) - 1)
    return tuple(int(c) for c in np.bincount(idx, minlength=len(dist.probs)))


def histogram_distribution(outcomes, counts, kind, cfg=None):
    """Empirical distribution from lab-style histogram data."""
    from clickwitness.detectors import CountDistribution

    total = sum(counts)
    if total < 1:
        raise ValueError("histogram is empty")
    probs = tuple(c / total for c in counts)
    return CountDistribution(kind, tuple(outcomes), probs, cfg)


# --------------------------------------------------------------------------
# per-item loops behind CountDistribution and the sweep CSV files


def loop_clean_probs(outcomes, probs, neg_tol=1e-14):
    """Probabilities checked one at a time, roundoff negatives clipped by max."""
    cleaned = []
    for outcome, p in zip(outcomes, probs):
        if not -neg_tol <= p < math.inf:
            raise ValueError(
                f"probability {p} of outcome {outcome} is negative or not finite")
        cleaned.append(max(float(p), 0.0))
    return tuple(cleaned)


def _fmt(value):
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_rows_csv(path, columns, rows):
    """A sweep CSV written row by row through ``csv.writer``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
