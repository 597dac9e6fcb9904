"""Index-set enumeration, witness matrices, and scalar nonclassicality criteria.

A Gram-type matrix of counts (C) or of normally ordered moments (M) is
positive semidefinite for every classical state; a negative minimal
eigenvalue certifies nonclassical light.  Rows and columns are labelled by
exponents drawn from an index set whose pairwise sums must be whole
integers, which forces every set to consist either of integers only or of
half-odd integers only.  Integer sets are sensitive to odd photon-number
parity, half-integer sets to even parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detectors import (
    ONOFF,
    PHOTOELECTRIC,
    PNR,
    CountDistribution,
    DetectorConfig,
    _outcome_weights,
    click_moment,
    click_moment_from_counts,
    # Unused here since the from-counts matrices go through outcome weights;
    # bench/tracing.py still looks both names up in this module.
    factorial_moment_from_counts,  # noqa: F401
    pnr_moment_from_counts,  # noqa: F401
    povm_product_value,
)
from .numerics import (
    HalfInt,
    SymMatrix,
    check_dimension,
    leading_minors,
    min_eigenvalue,
    min_eigenvalues,
)
from .states import NOExpr, StateSpec, expect_any

# Negativity threshold, relative to the largest matrix entry: matrix scales
# vary by orders of magnitude across amplitude sweeps.
NEG_REL_TOL = 1e-10

_IDENTITY_TOL = 1e-12

# The pnr enumerators list 2^K or 2^(K+1) sets; K stays at or below this.
MAX_LEVELS = 6

INTEGER = "integer"
HALF = "half"

NONCLASSICAL = "nonclassical"
NO_VIOLATION = "no_violation"
INDETERMINATE = "indeterminate"


# --------------------------------------------------------------------------
# index sets


def _element_key(element):
    if isinstance(element, HalfInt):
        return (element.twice,)
    return tuple(part.twice for part in element)


def _format_element(element) -> str:
    if isinstance(element, HalfInt):
        return str(element)
    return "(" + ",".join(str(part) for part in element) + ")"


@dataclass(frozen=True)
class IndexSet:
    """Sorted, distinct matrix labels with a uniform integer/half class.

    Elements are either HalfInt scalars (photoelectric and on-off models)
    or tuples of HalfInt (one slot per detector outcome type, for the
    multinomial model).  Pairwise sums must be whole integers, which is
    equivalent to every slot having a fixed class across the set.
    """

    elements: tuple
    label: str

    def __post_init__(self):
        elems = []
        for element in self.elements:
            if isinstance(element, (tuple, list)):
                elems.append(tuple(HalfInt.of(v) for v in element))
            else:
                elems.append(HalfInt.of(element))
        kinds = {isinstance(e, tuple) for e in elems}
        if len(kinds) > 1:
            raise ValueError("cannot mix scalar and multi-index elements")
        widths = {len(e) for e in elems if isinstance(e, tuple)}
        if len(widths) > 1:
            raise ValueError("multi-index elements must share a width")
        elems = sorted(set(elems), key=_element_key)
        slots = [e if isinstance(e, tuple) else (e,) for e in elems]
        for element, parts in zip(elems, slots):
            if any(part.twice < 0 for part in parts):
                raise ValueError(f"negative index in element {_format_element(element)}")
        # every pair sums to whole integers once each element does with the first
        for element, parts in zip(elems, slots):
            if any(not (x + y).is_integer for x, y in zip(slots[0], parts)):
                raise ValueError(f"pair {_format_element(elems[0])}, "
                                 f"{_format_element(element)} does not sum to whole integers")
        object.__setattr__(self, "elements", tuple(elems))

    @property
    def multi(self) -> bool:
        return bool(self.elements) and isinstance(self.elements[0], tuple)

    @property
    def class_pattern(self) -> tuple[str, ...]:
        """Integer/half class per slot, derived from the first element."""
        if not self.elements:
            return ()
        first = self.elements[0] if self.multi else (self.elements[0],)
        return tuple(INTEGER if part.is_integer else HALF for part in first)

    def describe(self) -> str:
        return "{" + ", ".join(_format_element(e) for e in self.elements) + "}"


def _half_range(cap_twice: int, start_twice: int) -> list[HalfInt]:
    return [HalfInt(t) for t in range(start_twice, cap_twice + 1, 2)]


def _check_levels(cfg: DetectorConfig) -> None:
    if cfg.levels > MAX_LEVELS:
        raise ValueError(f"index-set enumeration is capped at MAX_LEVELS = {MAX_LEVELS}, "
                         f"got levels={cfg.levels}")


def _doubled_indices(parities, budget_twice: int):
    """Doubled multi-indices t >= 0 with t_j = parities[j] mod 2 and sum(t) <= budget_twice."""
    if not parities:
        yield ()
        return
    for twice in range(parities[0], budget_twice + 1, 2):
        for rest in _doubled_indices(parities[1:], budget_twice - twice):
            yield (twice,) + rest


def enumerate_index_sets(cfg: DetectorConfig,
                         max_order: int | None = None) -> list[IndexSet]:
    """Maximal admissible index sets for a detector configuration.

    Photoelectric and on-off models yield two sets: the integers
    {0, ..., floor(N/2)} and the half-odd integers {1/2, ..., ceil(N/2)-1/2},
    where N is the bin count (or ``max_order``, default 4, for the
    photoelectric model, whose resolution is unbounded).  The multinomial
    model yields 2^K sets: each of the first K outcome slots picks a class,
    and the class of the last slot is forced by the total N/2.  A pattern
    with no admissible multi-index yields an empty, flagged set.
    """
    if cfg.model in (PHOTOELECTRIC, ONOFF):
        cap = cfg.bins if cfg.model == ONOFF else (max_order or 4)
        integers = _half_range(2 * (cap // 2), 0)
        halves = _half_range(cap if cap % 2 else cap - 1, 1)
        return [IndexSet(tuple(integers), INTEGER), IndexSet(tuple(halves), HALF)]
    if cfg.model != PNR:
        raise ValueError(f"unknown detector model {cfg.model!r}")
    _check_levels(cfg)
    bins, levels = cfg.bins, cfg.levels
    sets = []
    for pattern_bits in range(2 ** levels):
        bits = [(pattern_bits >> j) & 1 for j in range(levels)]
        pattern = bits + [(bins - sum(bits)) % 2]
        elements = tuple(
            tuple(map(HalfInt, head + (bins - sum(head),)))
            for head in _doubled_indices(bits, bins)
        )
        sets.append(IndexSet(elements, "-".join("half" if b else "int" for b in pattern)))
    return sets


def enumerate_pnr_moment_sets(cfg: DetectorConfig) -> list[IndexSet]:
    """The 2^(K+1) moment-matrix index sets with element totals <= N/2.

    Moment matrices are less restricted than counting matrices: the last
    slot's class is free, and element totals only need to stay below N/2.
    Not used by default; counting-compatible sets are valid for both.
    """
    if cfg.model != PNR:
        raise ValueError("enumerate_pnr_moment_sets needs a pnr config")
    _check_levels(cfg)
    sets = []
    for pattern_bits in range(2 ** (cfg.levels + 1)):
        bits = [(pattern_bits >> j) & 1 for j in range(cfg.levels + 1)]
        elements = tuple(tuple(map(HalfInt, t)) for t in _doubled_indices(bits, cfg.bins))
        sets.append(IndexSet(elements, "-".join("half" if b else "int" for b in bits)))
    return sets


# --------------------------------------------------------------------------
# witness reports


def nonclassical(min_eig, max_abs):
    """The verdict rule: min_eig < -NEG_REL_TOL * max|entry|, elementwise."""
    return min_eig < -NEG_REL_TOL * max_abs


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """A witness matrix together with its spectral diagnostics."""

    matrix: SymMatrix
    labels: tuple
    min_eig: float
    minors: tuple[float, ...]
    source: str
    metadata: dict = field(default_factory=dict)

    @property
    def max_abs(self) -> float:
        return self.matrix.max_abs()

    @property
    def tolerance(self) -> float:
        return NEG_REL_TOL * self.max_abs

    @property
    def nonclassical(self) -> bool:
        return bool(nonclassical(self.min_eig, self.max_abs))

    @property
    def verdict(self) -> str:
        return NONCLASSICAL if self.nonclassical else NO_VIOLATION


def _report(matrix: SymMatrix, labels, source: str, metadata: dict,
            min_eig=None) -> WitnessReport:
    """Report on ``matrix``; ``min_eig`` is its smallest eigenvalue if known."""
    if min_eig is None:
        min_eig = min_eigenvalue(matrix)
    return WitnessReport(
        matrix=matrix,
        labels=tuple(labels),
        min_eig=float(min_eig),
        minors=tuple(leading_minors(matrix)),
        source=source,
        metadata=metadata,
    )


def _whole(twice: int) -> int:
    """The integer whose double is ``twice``; an odd ``twice`` raises like HalfInt.to_int."""
    if twice % 2:
        raise ValueError(f"{twice}/2 is not a whole integer")
    return twice // 2


def _pair_sum_scalar(a: HalfInt, b: HalfInt) -> int:
    return _whole(a.twice + b.twice)


def _pair_sum_multi(a: tuple, b: tuple) -> tuple[int, ...]:
    return tuple(_whole(x.twice + y.twice) for x, y in zip(a, b))


def check_admissible(iset: IndexSet, cfg: DetectorConfig, kind: str) -> None:
    """Reject an index set that a ``kind`` matrix of this detector cannot use.

    Besides the model's structural rules this enforces the dimension cap
    ``MAX_DIM`` of the spectral step, so that an oversized set fails before
    any entry is evaluated.
    """
    if kind not in ("counts", "moments"):
        raise ValueError(f"kind must be 'counts' or 'moments', got {kind!r}")
    check_dimension(len(iset.elements), f"index set {iset.label!r}")
    if cfg.model == PNR:
        if not iset.multi or len(iset.elements[0]) != cfg.levels + 1:
            raise ValueError(
                f"index set {iset.label!r} does not match K={cfg.levels} outcomes"
            )
        for element in iset.elements:
            total = sum(part.twice for part in element)
            if kind == "counts" and total != cfg.bins:
                raise ValueError(
                    f"element {_format_element(element)} sums to {total}/2, "
                    f"needs N/2 = {cfg.bins}/2"
                )
            if kind == "moments" and total > cfg.bins:
                raise ValueError(
                    f"element {_format_element(element)} exceeds the moment "
                    f"bound N/2 = {cfg.bins}/2"
                )
        return
    if iset.multi:
        raise ValueError(f"{cfg.model} model uses scalar index sets")
    if cfg.model == ONOFF:
        for i, a in enumerate(iset.elements):
            for b in iset.elements[i:]:
                if a.twice + b.twice > 2 * cfg.bins:
                    raise ValueError(
                        f"pair {a}, {b} exceeds the click resolution N={cfg.bins}"
                    )


def entry_quantity(cfg: DetectorConfig, kind: str, a, b):
    """The expectation behind entry (a, b) of a ``kind`` witness matrix.

    Every entry depends on the label pair sum s = a + b only.  The
    multiplexed models give POVM exponents: (N - s, s) for click counts
    c_s / C(N, s), (0, s) for click moments <:pi^s:>, and the multi-index s
    itself for both multinomial kinds.  The photoelectric model gives a
    NOExpr: <:G^s exp(-G):> = s! p_s for counts, <:(eta n)^s:> for moments.
    """
    if cfg.model == PNR:
        return _pair_sum_multi(a, b)
    s = _pair_sum_scalar(a, b)
    if cfg.model == ONOFF:
        return (cfg.bins - s, s) if kind == "counts" else (0, s)
    if kind == "counts":
        return NOExpr.monomial(1.0, s, 1.0, cfg.gamma_rate, cfg.dark)
    return NOExpr.monomial(1.0, s, 0.0, cfg.efficiency, 0.0)


def _pair_quantities(labels, quantity) -> dict:
    """``quantity(a, b)`` of the labels of every entry (i, j), i <= j."""
    return {
        (i, j): quantity(labels[i], labels[j])
        for i in range(len(labels)) for j in range(i, len(labels))
    }


def _fill(dim: int, quantities: dict, values: dict) -> np.ndarray:
    """(..., dim, dim) matrices with entry (i, j) = ``values[quantities[i, j]]``.

    ``values`` holds arrays or scalars, broadcast to one leading shape and
    stacked along a last axis of distinct quantities; one gather through a
    (dim, dim) index into that axis copies them into place.  Both triangles
    take the same value, so every matrix is exactly symmetric.
    """
    position = {quantity: k for k, quantity in enumerate(dict.fromkeys(quantities.values()))}
    index = np.empty((dim, dim), dtype=np.intp)
    for (i, j), quantity in quantities.items():
        index[i, j] = index[j, i] = position[quantity]
    columns = np.broadcast_arrays(*(np.asarray(values[q], dtype=float) for q in position))
    return np.stack(columns, axis=-1)[..., index]


def _state_entries(states, cfg: DetectorConfig, kind: str, iset: IndexSet,
                   values: dict) -> np.ndarray:
    """The ``kind`` matrices of ``states``, (..., d, d).

    ``values`` maps each :func:`entry_quantity` to its values; the missing
    distinct quantities are evaluated and added to it, all POVM exponent
    tuples in one kernel call.
    """
    check_admissible(iset, cfg, kind)
    quantities = _pair_quantities(
        iset.elements, lambda a, b: entry_quantity(cfg, kind, a, b))
    missing = [q for q in dict.fromkeys(quantities.values()) if q not in values]
    if cfg.model == PHOTOELECTRIC:
        values.update((q, expect_any(states, q)) for q in missing)
    elif missing:
        values.update(zip(missing, povm_product_value(states, cfg, missing)))
    return _fill(len(iset.elements), quantities, values)


def _state_report(state: StateSpec, cfg: DetectorConfig, iset: IndexSet,
                  kind: str) -> WitnessReport:
    matrix = SymMatrix(_state_entries(state, cfg, kind, iset, {}))
    return _report(matrix, iset.elements, f"{kind}:{cfg.model}",
                   {"state": state, "config": cfg, "set": iset.label})


def count_matrix(state: StateSpec, cfg: DetectorConfig,
                 iset: IndexSet) -> WitnessReport:
    """Counting matrix C for the given model and index set.

    Entries are (k+l)! p_{k+l} for photocounts, c_{k+l} / C(N, k+l) for
    clicks, and the multinomial analog for intrinsic resolution; all are
    evaluated as direct expectations rather than through a distribution.
    """
    return _state_report(state, cfg, iset, "counts")


def moment_matrix(state: StateSpec, cfg: DetectorConfig,
                  iset: IndexSet) -> WitnessReport:
    """Moment matrix M: <:(eta n)^(k+l):>, <:pi^(k+l):>, or POVM products."""
    return _state_report(state, cfg, iset, "moments")


def min_eig_sweep(states, cfg: DetectorConfig, kind: str, iset: IndexSet,
                  values: dict) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue and verdict of the ``kind`` matrix per grid point.

    ``states`` is a :class:`~.states.CoherentStack`, which gives (G,) or,
    with L state labels, (L, G) results, or one state that holds at every
    grid point, which gives 0-d results.  ``values`` maps each
    :func:`entry_quantity` to its values and is filled on demand, so a
    quantity shared by entries, sets or kinds is evaluated once.  The
    matrices form one (..., G, d, d) stack for a single eigensolver call.
    """
    entries = _state_entries(states, cfg, kind, iset, values)
    min_eig = min_eigenvalues(entries)
    flags = nonclassical(min_eig, np.abs(entries).max(axis=(-2, -1)))
    return min_eig, np.where(flags, NONCLASSICAL, NO_VIOLATION)


def from_counts_entries(counts: CountDistribution, probs: np.ndarray,
                        iset: IndexSet, kind: str) -> np.ndarray:
    """``kind`` witness matrices of measured statistics, one per row of ``probs``.

    ``probs`` (..., outcomes) holds finite probabilities over the outcome
    space of ``counts``, for example the redraws of a bootstrap.  Each
    distinct pair sum is evaluated once for all rows, as a sum of its
    nonzero weighted terms in outcome order followed by one division; the
    j-th term of every pair sum is added in one step, so a counts matrix,
    whose entries weigh one outcome each, takes a single step.  Every weight
    is >= 0, so a skipped term is +-0.0, and adding it never changes a sum
    that starts at +0.0: every row has the same bits as the per-entry sums
    over all outcomes of a single distribution.  Returns (..., d, d).
    """
    cfg = counts.config
    check_admissible(iset, cfg, kind)
    if counts.kind not in ("photo", "click", "pnr"):
        raise ValueError(f"unsupported distribution kind {counts.kind!r}")
    if not np.isfinite(probs).all():
        raise ValueError("from-counts probabilities must be finite")
    pair_sum = _pair_sum_multi if counts.kind == "pnr" else _pair_sum_scalar
    quantities = _pair_quantities(iset.elements, pair_sum)
    sums = list(dict.fromkeys(quantities.values()))
    index = {outcome: k for k, outcome in enumerate(counts.outcomes)}
    weights, divisors = zip(*(_outcome_weights(counts, kind, s, index) for s in sums))
    weights = np.array(weights)
    # Per pair sum, the outcomes of nonzero weight first, in outcome order;
    # the zero weights that pad the shorter sums add +-0.0.
    nonzero = weights != 0.0
    columns = np.argsort(~nonzero, axis=1, kind="stable")[:, :nonzero.sum(axis=1).max()]
    terms = np.take_along_axis(weights, columns, axis=1)
    acc = np.zeros(probs.shape[:-1] + (len(sums),))
    # A matmul or a sum over an axis would reorder the additions and change
    # the last bits.
    for j in range(columns.shape[1]):
        acc += probs[..., columns[:, j]] * terms[:, j]
    values = acc / np.array(divisors)
    return _fill(len(iset.elements), quantities,
                 dict(zip(sums, np.moveaxis(values, -1, 0))))


def counts_report(counts: CountDistribution, iset: IndexSet, kind: str,
                  entries: np.ndarray | None = None, min_eig=None) -> WitnessReport:
    """Report on the ``kind`` matrix of ``counts``.

    ``entries`` is the matrix when a stack call built it, and ``min_eig``
    its smallest eigenvalue when a stack call computed it.
    """
    if entries is None:
        entries = from_counts_entries(counts, np.array(counts.probs), iset, kind)
    meta = {"config": counts.config, "set": iset.label, "empirical": True}
    return _report(SymMatrix(entries), iset.elements,
                   f"{kind}:{counts.config.model}", meta, min_eig)


def count_matrix_from_counts(counts: CountDistribution,
                             iset: IndexSet) -> WitnessReport:
    """Counting matrix assembled from measured (or sampled) statistics."""
    return counts_report(counts, iset, "counts")


def moment_matrix_from_counts(counts: CountDistribution,
                              iset: IndexSet) -> WitnessReport:
    """Moment matrix assembled from measured (or sampled) statistics."""
    return counts_report(counts, iset, "moments")


# --------------------------------------------------------------------------
# scalar criteria for click statistics


@dataclass(frozen=True)
class KlyshkoResult:
    ratio: float
    bound: float
    verdict: str


# Outcomes (low, mid, high) of each Klyshko ratio c_low c_high / c_mid^2.
KLYSHKO_OUTCOMES = {INTEGER: (0, 1, 2), HALF: (1, 2, 3)}


def klyshko_value(low: float, mid: float, high: float) -> float:
    """The ratio low * high / mid^2, or NaN where mid^2 vanishes."""
    denom = mid ** 2
    if denom == 0.0:
        return math.nan
    return low * high / denom


def klyshko_ratio(counts: CountDistribution, variant: str) -> KlyshkoResult:
    """Click-count ratio tests against their classical bounds.

    integer variant: c_0 c_2 / c_1^2 >= (1/2)(1 - 1/N) for classical light;
    half variant:    c_1 c_3 / c_2^2 >= (2/3)(1 - 1/(N-1)).
    A vanishing denominator yields no verdict rather than a violation.
    """
    if counts.kind != "click":
        raise ValueError("klyshko_ratio needs a click distribution")
    bins = counts.config.bins
    if variant == INTEGER:
        if bins < 2:
            raise ValueError("integer variant needs N >= 2")
        bound = 0.5 * (1.0 - 1.0 / bins)
    elif variant == HALF:
        if bins < 3:
            raise ValueError("half variant needs N >= 3")
        bound = (2.0 / 3.0) * (1.0 - 1.0 / (bins - 1))
    else:
        raise ValueError(f"variant must be {INTEGER!r} or {HALF!r}")
    ratio = klyshko_value(*(counts.prob(k) for k in KLYSHKO_OUTCOMES[variant]))
    if math.isnan(ratio):
        return KlyshkoResult(math.nan, bound, INDETERMINATE)
    verdict = NONCLASSICAL if bound - ratio > 1e-10 else NO_VIOLATION
    return KlyshkoResult(ratio, bound, verdict)


def g_functions(state: StateSpec, cfg: DetectorConfig, max_m: int) -> list[float]:
    """Normalized click-correlation functions g^(m) = <:pi^m:> / <:pi:>^m."""
    if cfg.model != ONOFF:
        raise ValueError("g functions need an onoff config")
    if max_m > cfg.bins:
        raise ValueError(f"moment order must satisfy 0 <= m <= N={cfg.bins}")
    orders = range(1, max(max_m, 1) + 1)
    moments = povm_product_value(state, cfg, [(0, m) for m in orders])
    mean = moments[0]
    if mean <= 0.0:
        raise ValueError("g functions need <:pi:> > 0 (state must trigger clicks)")
    return [moments[m - 1] / mean ** m for m in range(1, max_m + 1)]


def g_matrix(report: WitnessReport) -> WitnessReport:
    """Rescale a click-moment matrix to correlation-function form.

    Congruence with the positive diagonal D = diag(<:pi:>^-m) maps entries
    to g^(k+l) without changing the signature, so positive semidefiniteness
    is preserved exactly.
    """
    if not report.source.startswith("moments:" + ONOFF):
        raise ValueError("g_matrix applies to on-off click-moment matrices")
    state = report.metadata.get("state")
    cfg = report.metadata.get("config")
    if state is None or cfg is None:
        raise ValueError("report metadata lacks the state/config echo")
    mean = click_moment(state, cfg, 1)
    if mean <= 0.0:
        raise ValueError("g_matrix needs <:pi:> > 0")
    scales = np.array([mean ** (-float(k)) for k in report.labels])
    scaled = SymMatrix(report.matrix.entries * np.outer(scales, scales))
    meta = dict(report.metadata)
    meta["g_scaled"] = True
    return _report(scaled, report.labels, report.source, meta)


@dataclass(frozen=True)
class ClickStats:
    """Mean, variance, skewness of a click distribution and the mapped moments.

    ``moments`` are (<:pi:>, <:pi^2:>, <:pi^3:>) reconstructed from the
    central statistics; they must agree with the direct weighted sums.
    ``skewness`` is NaN when the variance vanishes, and a mapped moment is
    NaN when the bin count cannot support it (N < 2 or N < 3).
    """

    mean: float
    variance: float
    skewness: float
    moments: tuple[float, float, float]


def _central_stats(counts: CountDistribution) -> tuple[float, float, float]:
    ks = np.array(counts.outcomes, dtype=float)
    ps = np.array(counts.probs)
    mean = float(np.sum(ks * ps))
    var = float(np.sum((ks - mean) ** 2 * ps))
    third = float(np.sum((ks - mean) ** 3 * ps))
    return mean, var, third


def click_stats(counts: CountDistribution) -> ClickStats:
    """Central statistics of the click number and the moment mapping.

    <:pi:>   = mu / N
    <:pi^2:> = (sigma^2 + mu^2 - mu) / (N (N-1))
    <:pi^3:> = (m3 + 3 mu sigma^2 + mu^3 - 3 (sigma^2 + mu^2) + 2 mu)
               / (N (N-1) (N-2)),  with m3 the third central moment.
    """
    if counts.kind != "click":
        raise ValueError("click_stats needs a click distribution")
    bins = counts.config.bins
    mean, var, third = _central_stats(counts)
    skew = third / var ** 1.5 if var > 0.0 else math.nan
    pi1 = mean / bins
    pi2 = math.nan
    pi3 = math.nan
    if bins >= 2:
        pi2 = (var + mean ** 2 - mean) / (bins * (bins - 1))
    if bins >= 3:
        pi3 = (third + 3 * mean * var + mean ** 3 - 3 * (var + mean ** 2) + 2 * mean) / (
            bins * (bins - 1) * (bins - 2)
        )
    return ClickStats(mean, var, skew, (pi1, pi2, pi3))


def qb_parameter(counts: CountDistribution) -> float:
    """Binomial Q parameter Q_B = N sigma^2 / [mu (N - mu)] - 1.

    Negative values certify sub-binomial, hence nonclassical, click
    statistics.  The 2x2 integer-set moment determinant equals
    mu (N - mu) / (N^2 (N-1)) * Q_B; the identity is verified here.
    """
    if counts.kind != "click":
        raise ValueError("qb_parameter needs a click distribution")
    bins = counts.config.bins
    mean, var, _ = _central_stats(counts)
    if not 0.0 < mean < bins:
        raise ValueError(f"Q_B needs 0 < mu < N, got mu={mean}")
    qb = bins * var / (mean * (bins - mean)) - 1.0
    if bins >= 2:
        pi1 = click_moment_from_counts(counts, 1)
        pi2 = click_moment_from_counts(counts, 2)
        det = pi2 - pi1 ** 2
        recast = mean * (bins - mean) / (bins ** 2 * (bins - 1)) * qb
        if abs(det - recast) > _IDENTITY_TOL * max(1.0, abs(det)):
            raise AssertionError(
                f"Q_B determinant identity violated: {det} vs {recast}"
            )
    return qb


def skewness_witness(counts: CountDistribution) -> float:
    """Half-integer-set determinant <:pi:><:pi^3:> - <:pi^2:>^2.

    Computed through two routes that must agree: products of the direct
    click moments, and the central-moment form
    <:pi:><:(d pi)^3:> + <:pi:>^2 <:(d pi)^2:> - <:(d pi)^2:>^2 with
    <:(d pi)^2:> = (N sigma^2 - mu mubar) / (N^2 (N-1)).  The latter handles
    sigma = 0 without a skewness division.  Zero for binomial clicks;
    negative values witness nonclassicality.
    """
    if counts.kind != "click":
        raise ValueError("skewness_witness needs a click distribution")
    bins = counts.config.bins
    if bins < 3:
        raise ValueError("skewness witness needs N >= 3")
    pi1 = click_moment_from_counts(counts, 1)
    pi2 = click_moment_from_counts(counts, 2)
    pi3 = click_moment_from_counts(counts, 3)
    direct = pi1 * pi3 - pi2 ** 2

    mean, var, third = _central_stats(counts)
    mubar = bins - mean
    d2 = (bins * var - mean * mubar) / (bins ** 2 * (bins - 1))
    d3 = (
        bins ** 2 * third
        + 2 * mean * mubar * (mubar - mean)
        - 3 * bins * var * (mubar - mean)
    ) / (bins ** 3 * (bins - 1) * (bins - 2))
    pi1_central = mean / bins
    central = pi1_central * d3 + pi1_central ** 2 * d2 - d2 ** 2
    if abs(direct - central) > _IDENTITY_TOL * max(1.0, abs(direct)):
        raise AssertionError(
            f"skewness witness routes disagree: {direct} vs {central}"
        )
    return direct
