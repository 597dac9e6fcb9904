"""Independent reference implementations used only for cross-checking.

Nothing here shares code paths with the package: determinants are cofactor
expansions, eigenvalues come from sign bisection on det(A - x I), and
normally ordered expectations are evaluated through an explicit monomial
series instead of the package's per-term closed form.  The single-point
evaluators at the end take one component pair and one grid point at a time
with Python complex arithmetic; the package evaluates whole grids as arrays.
The from-counts builders and the bootstrap at the end assemble one entry and
one redraw at a time, with per-matrix eigenvalue and determinant calls; the
package evaluates every redraw of a bootstrap in one array pass.  Their
moments are the per-outcome loops of the closed-form identities; the
package sums the outcome weights that its from-counts matrices share.  The
outcome-by-outcome from-counts sum shares the package's outcome weights
but adds every outcome's term, zero weights included; the package adds
only the nonzero terms, one step for the j-th term of every pair sum.  The
sampler oracle draws every shot as a float uniform and binary-searches it in
the float CDF; the package compares integer draws with integer thresholds
through a bucket histogram.  It reuses the package's SplitMix64, which the
sampler tests check against the pure-Python ``scalar_splitmix`` here.  The
POVM expansion multiplies prod_j pi_j^{e_j} out in exact fractions; on Fock
inputs it is evaluated without roundoff, the reference for the package's
photon-number sum of nonnegative terms.  The
distribution check and the CSV writer at the end take one probability and
one row at a time; the package checks a whole distribution as an array and
formats the cells that a CSV block shares once.  The input builders at the
end make one cat from Python complex scalars and each family of pnr index
sets by its own recursion; the package builds cats as stacks of arrays and
every pnr family from one multi-index generator.  The per-row POVM
evaluator takes one exponent row at a time with its own ``pair_sum``; the
package evaluates every row of a call in one array pass.
"""

import cmath
import csv
import math
from fractions import Fraction

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
    return series_value(fock_probs, series_coefficients(expr, len(fock_probs) - 1))


def series_value(fock_probs, coeffs):
    """sum_n p_n sum_k a_k n!/(n-k)! of the series f(x) = sum_k a_k x^k."""
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


def expect_fock_product(states, exprs):
    """Multimode product states: the product of per-mode Fock-basis expectations."""
    from clickwitness.states import expect_fock

    exprs = tuple(exprs)
    if len(states) != len(exprs):
        raise ValueError("need one expression per mode")
    out = 1.0
    for state, expr in zip(states, exprs):
        out *= expect_fock(state, expr)
    return out


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


def _row_pair_product(y, overlap_exp, exponents, levels, powers, small, last_factor):
    """One exponent row of the product form over (G, C, C) pair arrays."""
    folded = sum(exponents[:levels])
    poly = np.ones_like(y)
    for j in range(1, levels):
        if exponents[j]:
            poly = poly * powers[j] ** exponents[j]
    last = exponents[levels]
    if last:
        poly = poly * last_factor ** last
        folded = folded + np.where(small, last, 0)
    return np.exp(overlap_exp - folded * y) * poly


def row_povm_values(state, cfg, rows):
    """``detectors._povm_values`` on coherent inputs, one exponent row at a time.

    Each row makes its own product-form arrays and its own ``pair_sum``
    call; the package evaluates every row of a call in one array pass.
    """
    from clickwitness.detectors import _shared_factors
    from clickwitness.states import CoherentSuperposition, Mixture, pair_sum

    levels = 1 if cfg.model == "onoff" else cfg.levels
    if isinstance(state, Mixture):
        parts = [(p, row_povm_values(part, cfg, rows)) for p, part in state.parts]
        return [sum(p * values[q] for p, values in parts) for q in range(len(rows))]
    if isinstance(state, CoherentSuperposition):
        return [float(v[0]) for v in row_povm_values(state.stack, cfg, rows)]
    y = cfg.gamma_rate * state.x[..., 0] + cfg.dark
    overlap = state.overlap[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):
        shared = _shared_factors(y, rows, levels)
    values = []
    for row in rows:
        with np.errstate(over="ignore", invalid="ignore"):
            terms = state.pair * _row_pair_product(y, overlap, row, levels, *shared)
        values.append(pair_sum(terms))
    return values


def _expanded_terms(levels, exponents):
    """{(power, decays): Fraction} of prod_j pi_j^{e_j}, multiplied out term by term.

    pi_j = :G^j/j! exp(-G): for j < K and pi_K = 1 - sum_{j<K} pi_j.
    """
    lower = [{(j, 1): Fraction(1, math.factorial(j))} for j in range(levels)]
    last = {(0, 0): Fraction(1)}
    for j in range(levels):
        last[j, 1] = -Fraction(1, math.factorial(j))
    product = {(0, 0): Fraction(1)}
    for factor, e in zip(lower + [last], exponents):
        for _ in range(e):
            acc = {}
            for (p1, d1), c1 in product.items():
                for (p2, d2), c2 in factor.items():
                    key = (p1 + p2, d1 + d2)
                    acc[key] = acc.get(key, 0) + c1 * c2
            product = {key: c for key, c in acc.items() if c != 0}
    return product


def expanded_povm_product(levels, exponents, rate, offset):
    """Binomially expanded expression of prod_j pi_j^{e_j}, exact coefficients rounded once."""
    from clickwitness.states import NOExpr

    terms = _expanded_terms(levels, exponents)
    return NOExpr(
        tuple((float(c), p, float(d)) for (p, d), c in terms.items()), rate, offset
    )


def fock_povm_reference(probs, cfg, exponents):
    """sum_n p_n <n|:prod_j pi_j^{e_j}:|n> from the expanded product, without roundoff.

    <n|:G^p exp(-d G):|n> = exp(-d nu) sum_q C(p, q) nu^(p-q) r^q (n)_q (1 - d r)^(n-q)
    with G = r n + nu.  The total is sum_d A_d exp(-d nu), each A_d an exact
    Fraction of the float inputs.  Without dark counts it is sum_d A_d, a
    Fraction.  With them it is an mpmath number correct to 50 digits: the
    alternating sum is evaluated at rising precision until two precisions
    agree on a nonzero value; it is exactly 0 only when every A_d is, as
    exp(-nu) is transcendental for rational nu > 0.
    """
    levels = 1 if cfg.levels is None else cfg.levels
    rate = Fraction(cfg.efficiency) / cfg.bins
    nu = Fraction(cfg.dark)
    by_decay = {}
    for (p, d), coeff in _expanded_terms(levels, exponents).items():
        for n, prob in enumerate(probs):
            value = sum(
                math.comb(p, q) * nu ** (p - q) * rate ** q * math.perm(n, q)
                * (1 - d * rate) ** (n - q)
                for q in range(min(p, n) + 1)
            )
            by_decay[d] = by_decay.get(d, 0) + Fraction(prob) * coeff * value
    if nu == 0:
        return sum(by_decay.values(), Fraction(0))
    if not any(by_decay.values()):
        return Fraction(0)
    import mpmath

    def total(dps):
        with mpmath.workdps(dps):
            x = mpmath.mpf(nu.numerator) / nu.denominator
            return sum(mpmath.mpf(a.numerator) / a.denominator * mpmath.exp(-d * x)
                       for d, a in by_decay.items())

    dps, value = 50, total(50)
    while True:
        dps *= 2
        finer = total(dps)
        if finer != 0 and abs(finer - value) <= mpmath.mpf(10) ** -50 * abs(finer):
            with mpmath.workdps(50):
                return +finer
        value = finer


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


def loop_fill(dim, quantities, values):
    """``witnesses._fill`` one entry at a time, both triangles of a pair in one step."""
    points = np.broadcast_shapes(*(np.shape(values[q]) for q in quantities.values()))
    entries = np.empty(points + (dim, dim))
    for (i, j), quantity in quantities.items():
        entries[..., i, j] = entries[..., j, i] = values[quantity]
    return entries


def loop_multimode_matrices(state, elements, eta, kind):
    """``multimode_matrices`` with one joint moment or count per entry."""
    from clickwitness.multimode import MultiIndex, joint_counts, joint_moment

    labels = tuple(sorted({MultiIndex.of(e) for e in elements}))

    def entry(i, j):
        pair = labels[i] + labels[j]
        if kind == "moments":
            return joint_moment(state, pair, eta)
        return pair.factorial() * joint_counts(state, pair, eta)

    return _loop_report(entry, labels, f"{kind}:multimode")


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


def loop_factorial_moment(counts, m):
    """sum_n n!/(n-m)! p_n, every outcome's term added."""
    from clickwitness.numerics import falling_factorial

    return sum(
        falling_factorial(n, m) * p for n, p in zip(counts.outcomes, counts.probs)
    )


def loop_click_moment(counts, m):
    """sum_{k >= m} [C(k, m) / C(N, m)] c_k."""
    from clickwitness.numerics import binom

    norm = binom(counts.config.bins, m)
    return sum(
        binom(k, m) / norm * p
        for k, p in zip(counts.outcomes, counts.probs)
        if k >= m
    )


def loop_pnr_moment(counts, exponents):
    """E[prod_j (N_j)_(e_j)] / (N)_(sum e), one integer weight per outcome."""
    from clickwitness.numerics import falling_factorial

    norm = falling_factorial(counts.config.bins, sum(exponents))
    out = 0.0
    for outcome, p in zip(counts.outcomes, counts.probs):
        weight = 1
        for n_j, e_j in zip(outcome, exponents):
            weight *= falling_factorial(n_j, e_j)
            if weight == 0:
                break
        if weight:
            out += weight * p
    return out / norm


LOOP_MOMENTS = {
    "photo": loop_factorial_moment,
    "click": loop_click_moment,
    "pnr": loop_pnr_moment,
}


def loop_moment_matrix_from_counts(counts, iset):
    """Moment matrix with one per-outcome moment sum per entry."""
    moment = LOOP_MOMENTS[counts.kind]
    labels = iset.elements

    def entry(i, j):
        return moment(counts, _pair_sum(labels[i], labels[j]))

    return _loop_report(entry, labels, f"moments:{counts.config.model}")


def loop_from_counts_entries(counts, probs, iset, kind):
    """``from_counts_entries`` with one step per outcome, zero weights included."""
    from clickwitness.detectors import _outcome_weights
    from clickwitness.witnesses import (
        _fill,
        _pair_quantities,
        _pair_sum_multi,
        _pair_sum_scalar,
    )

    pair_sum = _pair_sum_multi if counts.kind == "pnr" else _pair_sum_scalar
    quantities = _pair_quantities(iset.elements, pair_sum)
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


def seed_drawing(m, shot):
    """A seed whose SplitMix64 output ``shot`` has the integer draw ``m``.

    Inverts the output rounds: an odd multiplier has an inverse mod 2^64,
    and y = x ^ (x >> r) is undone by repeating x = y ^ (x >> r).
    """
    mask = (1 << 64) - 1

    def unshift(y, r):
        x = y
        for _ in range(64 // r):
            x = y ^ (x >> r)
        return x

    z = unshift(m << 11 | 0x5A5, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)
    return (z - (shot + 1) * 0x9E3779B97F4A7C15) & mask


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


# --------------------------------------------------------------------------
# witness inputs: one cat from scalars, pnr index sets by recursion


def scalar_make_cat(alpha, parity, modes=None):
    """``make_cat`` of one state, with Python complex scalars throughout."""
    from clickwitness.states import CoherentSuperposition, cat_weight

    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if isinstance(alpha, (tuple, list, np.ndarray)):
        amps = tuple(complex(a) for a in alpha)
        if modes is not None and modes != len(amps):
            raise ValueError(f"got {len(amps)} amplitudes for modes={modes}")
    else:
        amps = (complex(alpha),) * (modes or 1)
    pumped = sum(abs(a) ** 2 for a in amps)
    if pumped == 0.0:
        if parity == "odd":
            raise ValueError("odd cat state is undefined at zero amplitude")
        return CoherentSuperposition((1.0 + 0j,), ((0j,) * len(amps),))
    sign = 1.0 if parity == "even" else -1.0
    weight = cat_weight(pumped, sign)
    minus = tuple(-a for a in amps)
    return CoherentSuperposition((weight, sign * weight), (amps, minus))


def recursive_pnr_count_sets(bins, levels):
    """(label, elements) of each counting family, 2^K of them, in pattern order."""
    from clickwitness.numerics import HalfInt

    sets = []
    for pattern_bits in range(2 ** levels):
        bits = [(pattern_bits >> j) & 1 for j in range(levels)]
        last_bit = (bins - sum(bits)) % 2
        elements = []

        def extend(prefix, remaining_twice, slot):
            if slot == levels:
                if remaining_twice >= 0:
                    elements.append(tuple(HalfInt(t) for t in prefix + [remaining_twice]))
                return
            for twice in range(bits[slot], remaining_twice + 1, 2):
                extend(prefix + [twice], remaining_twice - twice, slot + 1)

        extend([], bins, 0)
        label = "-".join("half" if bit else "int" for bit in bits + [last_bit])
        sets.append((label, elements))
    return sets


def recursive_pnr_moment_sets(bins, levels):
    """(label, elements) of each moment family, 2^(K+1) of them, in pattern order."""
    from clickwitness.numerics import HalfInt

    sets = []
    for pattern_bits in range(2 ** (levels + 1)):
        bits = [(pattern_bits >> j) & 1 for j in range(levels + 1)]
        elements = []

        def extend(prefix, budget_twice, slot):
            if slot == levels + 1:
                elements.append(tuple(HalfInt(t) for t in prefix))
                return
            for twice in range(bits[slot], budget_twice + 1, 2):
                extend(prefix + [twice], budget_twice - twice, slot + 1)

        extend([], bins, 0)
        sets.append(("-".join("half" if bit else "int" for bit in bits), elements))
    return sets
