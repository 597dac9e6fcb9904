"""Counting distributions and normally ordered moments for three detector models.

* photoelectric: full photon-number resolution, response G = eta n + nu
* onoff: N multiplexed on-off bins, response G = (eta/N) n + nu per bin
* pnr: N multiplexed bins, each resolving 0, 1, ..., K-1, or "K or more"
  photons (K = 1 reduces exactly to the on-off model)

Dark counts nu enter per bin through the affine response.  Photoelectric
quantities are expectations of :class:`~.states.NOExpr` monomials; the
multiplexed ones are POVM products.  :func:`povm_product_value` takes
coherent superpositions through the product form, elementwise over a whole
:class:`~.states.CoherentStack` of grid points and state labels, with the
factors the products share (y, the tail series of pi_K, y^j/j!) and the
amplitude-only product computed once per call for all labels, and
Fock-basis inputs through a photon-number sum of nonnegative terms.

Measured statistics take the other route: every from-counts quantity, the
``*_moment_from_counts`` scalars and the entries of the from-counts witness
matrices alike, is a weighted sum over outcomes with the weights of
:func:`_outcome_weights`.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import binom, check_exact, falling_factorial, multinom
from .states import (
    CoherentStack,
    CoherentSuperposition,
    FockVector,
    Mixture,
    NOExpr,
    StateSpec,
    expect_any,
    pair_sum,
)

_NEG_TOL = 1e-14
_NORM_TOL = 1e-10
_MAX_OUTCOMES = 100_000
# ln of the largest float: an intermediate of an expectation whose
# log-magnitude exceeds it is no longer a float.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# The largest n whose n! is a float: photocount orders stay at or below it.
MAX_FACTORIAL = 170

PHOTOELECTRIC = "photoelectric"
ONOFF = "onoff"
PNR = "pnr"


@dataclass(frozen=True)
class DetectorConfig:
    """Detector model plus efficiency and per-bin dark-count parameter."""

    model: str
    efficiency: float = 1.0
    dark: float = 0.0
    bins: int | None = None
    levels: int | None = None

    def __post_init__(self):
        if self.model not in (PHOTOELECTRIC, ONOFF, PNR):
            raise ValueError(f"unknown detector model {self.model!r}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark < math.inf:
            raise ValueError(f"dark parameter {self.dark} is out of range: "
                             "it must be finite and >= 0")
        if self.model == PHOTOELECTRIC:
            if self.bins is not None or self.levels is not None:
                raise ValueError("photoelectric model takes no bins or levels")
        else:
            if self.bins is None or self.bins < 1:
                raise ValueError(f"{self.model} model needs bins >= 1")
            check_exact(self.bins, "bins")
            if self.model == ONOFF and self.levels is not None:
                raise ValueError("onoff model takes no levels")
            if self.model == PNR and (self.levels is None or self.levels < 1):
                raise ValueError("pnr model needs levels >= 1")

    @classmethod
    def photoelectric(cls, efficiency: float = 1.0, dark: float = 0.0):
        return cls(PHOTOELECTRIC, efficiency, dark)

    @classmethod
    def onoff(cls, bins: int, efficiency: float = 1.0, dark: float = 0.0):
        return cls(ONOFF, efficiency, dark, bins=bins)

    @classmethod
    def pnr(cls, bins: int, levels: int, efficiency: float = 1.0, dark: float = 0.0):
        return cls(PNR, efficiency, dark, bins=bins, levels=levels)

    @property
    def gamma_rate(self) -> float:
        """Multiplier of n inside the response: eta for photoelectric, eta/N else."""
        if self.model == PHOTOELECTRIC:
            return self.efficiency
        return self.efficiency / self.bins


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """Outcome -> probability map over a fixed, lexicographically ordered space.

    Probabilities are clipped at zero if they exceed -1e-14 from roundoff;
    anything more negative, NaN or infinite raises.  A total probability off
    from one by more than 1e-10 triggers a truncation warning.
    """

    kind: str
    outcomes: tuple
    probs: tuple[float, ...]
    config: DetectorConfig | None = None

    def __post_init__(self):
        if len(self.outcomes) != len(self.probs):
            raise ValueError("outcomes and probs must align")
        probs = np.asarray(self.probs, dtype=float)
        bad = ~((probs >= -_NEG_TOL) & (probs < math.inf))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"probability {self.probs[k]} of outcome "
                             f"{self.outcomes[k]} is negative or not finite")
        # -0.0 is kept, as max(-0.0, 0.0) keeps it; np.maximum would not
        cleaned = tuple(np.where(probs < 0.0, 0.0, probs).tolist())
        object.__setattr__(self, "probs", cleaned)
        total = sum(cleaned)
        if abs(total - 1.0) > _NORM_TOL:
            warnings.warn(
                f"{self.kind} distribution sums to {total!r}; "
                "outcome space is likely truncated",
                stacklevel=2,
            )

    @cached_property
    def as_dict(self) -> dict:
        return dict(zip(self.outcomes, self.probs))

    def prob(self, outcome) -> float:
        return self.as_dict.get(outcome, 0.0)

    def total(self) -> float:
        return sum(self.probs)


def _outcome_weights(counts: CountDistribution, kind: str, s, index: dict | None):
    """Outcome weights and divisor of the from-counts ``kind`` quantity of pair sum ``s``.

    The quantity is sum_k w_k p_k / divisor over the outcomes of ``counts``,
    with the Python int/float arithmetic of the per-quantity formulas.  For
    counts these are p_s / C(N, s), p_s / multinom(N, s) and s! p_s;
    ``index`` maps each outcome to its position, and an absent outcome has
    weight 0, like the 0.0 of ``counts.prob``.  For moments they are the
    identities of the ``*_moment_from_counts`` functions, which sum these
    same weights.
    """
    if kind == "counts":
        if counts.kind == "photo":
            weight, divisor = float(math.factorial(s)), 1.0
        elif counts.kind == "click":
            weight, divisor = 1.0, float(binom(counts.config.bins, s))
        else:
            weight, divisor = 1.0, float(multinom(counts.config.bins, s))
        weights = [0.0] * len(counts.outcomes)
        if s in index:
            weights[index[s]] = weight
        return weights, divisor
    if counts.kind == "photo":
        return [float(falling_factorial(n, s)) for n in counts.outcomes], 1.0
    if counts.kind == "click":
        norm = binom(counts.config.bins, s)
        return [binom(k, s) / norm if k >= s else 0.0 for k in counts.outcomes], 1.0
    weights = [
        float(math.prod(falling_factorial(n, e) for n, e in zip(outcome, s)))
        for outcome in counts.outcomes
    ]
    return weights, float(falling_factorial(counts.config.bins, sum(s)))


def _moment_from_counts(counts: CountDistribution, s) -> float:
    """Moment of pair sum ``s``: its nonzero weighted terms in outcome order, divided once."""
    weights, divisor = _outcome_weights(counts, "moments", s, None)
    return sum(w * p for w, p in zip(weights, counts.probs) if w) / divisor


# --------------------------------------------------------------------------
# stable evaluation of POVM power products
#
# Expanding (1 - exp(-G))^k binomially turns a quantity of size ~ gamma^k
# into an alternating sum of order-one terms; for superpositions of +/-
# amplitudes the component normalization further amplifies the roundoff by
# ~ 1/|alpha|^2, which destroys small-amplitude sweeps.  Outcome and moment
# evaluations therefore go through the product form directly, with the
# per-factor exponentials folded into the coherent-overlap exponent.


def _low_poly(y: np.ndarray, levels: int) -> np.ndarray:
    """sum_{j < levels} y^j / j!"""
    total = np.ones_like(y)
    term = np.ones_like(y)
    for j in range(1, levels):
        term = term * (y / j)
        total = total + term
    return total


def _tail_series(y: np.ndarray, levels: int) -> np.ndarray:
    """sum_{j >= levels} y^j / j!, accurate for |y| < 1.

    Each element stops taking terms once its last term falls below 1e-20
    of its sum, or after 60 terms.
    """
    term = y ** levels / math.factorial(levels)
    total = term
    active = np.ones(y.shape, dtype=bool)
    for j in range(levels + 1, levels + 61):
        term = term * (y / j)
        total = np.where(active, total + term, total)
        active &= np.abs(term) > 1e-20 * np.maximum(np.abs(total), 1e-300)
        if not active.any():
            break
    return total


def _shared_factors(y: np.ndarray, rows: list, levels: int):
    """The factors of the product form that do not depend on the exponents.

    Returns ``powers`` with y^j/j! for each 0 < j < K that some row raises,
    the mask ``small`` of |y| < 1, and ``last_factor``, which is pi_K(y)
    from 1 - exp(-y) poly(y) where |y| >= 1 and the tail series, whose
    exp(-y) is folded later, where |y| < 1.  ``small`` and ``last_factor``
    are None when no row raises pi_K.
    """
    powers = {
        j: y ** j / math.factorial(j)
        for j in range(1, levels) if any(row[j] for row in rows)
    }
    if not any(row[levels] for row in rows):
        return powers, None, None
    small = np.abs(y) < 1.0
    # Each branch gets 0 where the other one applies, so the unused
    # branch can neither overflow nor warn.
    tail = _tail_series(np.where(small, y, 0.0), levels)
    big = np.where(small, 0.0, y)
    head = 1.0 - np.exp(-big) * _low_poly(big, levels)
    return powers, small, np.where(small, tail, head)


def _times_power(poly: np.ndarray, base: np.ndarray, exponents: np.ndarray) -> None:
    """poly *= base ** e on rows with e != 0, bit for bit as base ** int(e) (numpy squares 2)."""
    raised = base ** exponents
    np.square(base, out=raised, where=exponents == 2)
    np.multiply(poly, raised, out=poly, where=exponents != 0)


# --------------------------------------------------------------------------
# photon-number route for Fock-basis inputs


def _number_values(probs: np.ndarray, cfg: DetectorConfig, levels: int, rows: list) -> list:
    """sum_n p_n q_e(n) for each exponent row e, with p_n along the last axis of ``probs``.

    q_e(n), the row's value on |n>, is a probability: a bin that holds c
    photons reads min(c + D, K) with D ~ Pois(nu) dark counts.  The sum(e)
    <= N designated bins are filled one after another; the t-th takes each
    photon still unplaced with probability eta / (N - (t-1) eta), rounded
    once from exact integers.  u(k), the probability that k photons are
    still unplaced and every bin so far read its level, is stepped with
    binomial tables from Pascal's rule, each row divided by its sum against
    the drift of the rounded (stay + land)^m.  Bins that read K come first,
    so their dense steps are shared by all rows; a bin of level j < K keeps
    at most j photons, so its step is banded.  Every term is nonnegative.
    """
    n, nu = probs.shape[-1] - 1, cfg.dark
    num, den = cfg.efficiency.as_integer_ratio()  # eta = num / den exactly
    pmf = [math.exp(-nu)]  # P(D = i), until the terms past K no longer add to P(D >= K)
    if not pmf[0] > 0.0:
        raise ValueError(f"dark parameter {nu} is out of range for a photon-number input")
    while len(pmf) <= levels or pmf[-1] > 1e-17 * sum(pmf[levels:]):
        pmf.append(pmf[-1] * nu / len(pmf))
    top = max(row[levels] for row in rows)
    chain, diagonals, table = [probs], {}, np.empty((n + 1, n + 1))
    for t in range(1, max(map(sum, rows)) + 1):
        rest = cfg.bins * den - (t - 1) * num
        land, stay = num / rest, (rest - num) / rest  # int / int rounds once
        table.fill(0.0)
        table[0, 0] = 1.0  # table[m, k]: k of m photons stay out of bin t
        for m in range(1, n + 1):
            table[m, 1:m + 1] = stay * table[m - 1, :m]
            table[m, :m] += land * table[m - 1, :m]
        table /= table.sum(axis=1, keepdims=True)
        cells = [(np.arange(c, n + 1), np.arange(n + 1 - c)) for c in range(min(levels, n + 1))]
        diagonals[t] = [table[cell] for cell in cells]  # c of k + c photons land
        if t <= top:
            for c, cell in enumerate(cells):
                table[cell] *= sum(pmf[levels - c:])
            chain.append(chain[-1] @ table)
    values = []
    for row in rows:
        u, t = chain[row[levels]], row[levels]
        for j in range(levels):
            for _ in range(row[j]):
                t += 1
                out = np.zeros_like(u)
                for c in range(min(j, n) + 1):
                    out[..., :n + 1 - c] += pmf[j - c] * diagonals[t][c] * u[..., c:]
                u = out
        values.append(u.sum(axis=-1))
    return values


def _as_exponent(e) -> int:
    """``e`` as an int; a ValueError names an exponent that is not an integer."""
    try:
        return operator.index(e)
    except TypeError:
        raise ValueError(f"exponent {e!r} is not an integer") from None


def _povm_values(state, cfg: DetectorConfig, levels: int, rows: list) -> list:
    """One :func:`povm_product_value` per validated exponent row, in order.

    A stack takes all R rows in one (R, G, C, C) array pass, with the bits
    of one row at a time: pi_j(y) = y^j/j! exp(-y) for j < K and pi_K(y) =
    1 - exp(-y) poly(y), every exp(-y) folded into the overlap exponent so
    that large opposing exponents cancel analytically.  Where |y| < 1, pi_K
    comes from the tail series, and its exp(-y) is folded too.  Everything
    but the pair weights depends on the amplitudes only, so that product is
    computed once and multiplied by the (..., G, C, C) pair weights of
    every state label at once; a row's values have the shape (..., G).
    """
    if isinstance(state, Mixture):
        parts = [(p, _povm_values(part, cfg, levels, rows)) for p, part in state.parts]
        return [sum(p * values[q] for p, values in parts) for q in range(len(rows))]
    if isinstance(state, FockVector):
        return [float(v) for v in _number_values(state.probabilities(), cfg, levels, rows)]
    if isinstance(state, CoherentSuperposition):
        return [
            float(value[0])
            for value in _povm_values(CoherentStack([state]), cfg, levels, rows)
        ]
    if not isinstance(state, CoherentStack):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if state.modes != 1:
        raise ValueError("detector models address a single mode")
    # an overflow is reported by pair_sum, with the row and grid points it hit
    with np.errstate(over="ignore", invalid="ignore"):
        y = cfg.gamma_rate * state.x[..., 0] + cfg.dark
        exponents = np.array(rows)[:, :, None, None, None]
        poly = np.ones((len(rows),) + y.shape, dtype=y.dtype)
        folded = exponents[:, :levels].sum(axis=1)
        powers, small, last_factor = _shared_factors(y, rows, levels)
        for j, power in powers.items():
            _times_power(poly, power, exponents[:, j])
        if last_factor is not None:
            _times_power(poly, last_factor, exponents[:, levels])
            folded = folded + np.where(small, exponents[:, levels], 0)
        product = np.exp(state.overlap[..., 0] - folded * y) * poly
        terms = state.pair[..., None, :, :, :] * product
    return list(np.moveaxis(pair_sum(terms), -2, 0))


def povm_product_value(state, cfg: DetectorConfig, exponents):
    """Expectation <: pi_0^{e_0} ... pi_K^{e_K} :> via the product form.

    The on-off model is the K = 1 case with exponents (no-click, click);
    the exponents address at most N bins.  Fock-basis states go through the
    photon-number sum of :func:`_number_values`, whose terms are all
    nonnegative.  A :class:`~.states.CoherentStack` gives an array with one
    value per grid point, (G,) or (L, G) for a stack of L state labels; a
    single superposition is the one-point stack.

    ``exponents`` is one tuple, or a sequence of tuples that gives a list
    with one value per tuple, in order.  The factors that all tuples share
    are then computed once per call.
    """
    if cfg.model == PHOTOELECTRIC:
        raise ValueError("POVM products apply to the multiplexed models")
    levels = 1 if cfg.model == ONOFF else cfg.levels
    batch = len(exponents) > 0 and np.ndim(exponents[0]) > 0
    rows = [
        tuple(_as_exponent(e) for e in row)
        for row in (exponents if batch else [exponents])
    ]
    for row in rows:
        if len(row) != levels + 1 or any(e < 0 for e in row):
            raise ValueError(f"need {levels + 1} nonnegative exponents, got {row}")
        if sum(row) > cfg.bins:
            raise ValueError(f"exponents address at most N={cfg.bins} bins, got {row}")
    values = _povm_values(state, cfg, levels, rows)
    return values if batch else values[0]


# --------------------------------------------------------------------------
# the float range of the expectation routes


def check_order(n: int, subject: str) -> None:
    """Reject a photocount order ``n`` outside 0 .. ``MAX_FACTORIAL``, where n! is a float."""
    if not 0 <= n <= MAX_FACTORIAL:
        raise ValueError(f"{subject} = {n} is outside 0..MAX_FACTORIAL = {MAX_FACTORIAL}, "
                         "the orders whose factorial is a float")


def _log_pi_last(y: np.ndarray, levels: int) -> np.ndarray:
    """ln|pi_K(y)| = -y + ln|P_K(y) - exp(y)|, P_K(y) = sum_{j<K} y^j/j!, for |y| >= 1.

    For y >= 1 it is ln(1 - exp(-y) P_K(y)), with exp(-y) P_K(y) < 1 taken
    in logs; for y <= -1 the sum is taken as it stands, with -y clipped at
    ``LOG_FLOAT_MAX``, beyond which exp(-y) overflows on its own.
    """
    j = np.arange(levels)[:, None]
    log_factorials = np.array([math.lgamma(k + 1) for k in range(levels)])[:, None]
    up, t = np.maximum(y, 1.0), np.minimum(-y, LOG_FLOAT_MAX)
    rising = np.log1p(-np.exp(np.logaddexp.reduce(j * np.log(up) - log_factorials) - up))
    head = np.sum((-t) ** j / np.exp(log_factorials), axis=0)
    return np.where(y > 0.0, rising, t + np.log(np.abs(head - np.exp(-t))))


def _log_magnitudes(cfg: DetectorConfig, quantities, x: np.ndarray) -> np.ndarray:
    """(Q,) + x.shape log-magnitude of the largest intermediate of each quantity at pair rates x.

    A POVM row e builds poly = prod_{0<j<K} (y^j/j!)^{e_j} pi_K(y)^{e_K} at
    y = gamma x + nu before the folded exp(-sum e_j y) can shrink it, so its
    log-magnitude is L = sum_{0<j<K} e_j (j ln|y| - ln j!) + e_K ln|pi_K(y)|;
    on rows with e_K > 0 the exp(-y) inside pi_K counts too, as -y.  Where
    |y| < 1 no factor exceeds 1 (pi_K comes from its tail series), and L is
    -inf.  A NOExpr term coeff y^s exp(...) forms y^s first, at s ln|y|.
    ``x`` is real; for a complex y, pi_K would be taken at its real part.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if cfg.model == PHOTOELECTRIC:
            return np.array([
                np.max([power * np.log(np.abs(q.rate * x + q.offset)) if power
                        else np.zeros(x.shape) for _, power, _ in q.terms], axis=0)
                for q in quantities
            ])
        levels = 1 if cfg.model == ONOFF else cfg.levels
        y = (cfg.gamma_rate * x + cfg.dark).reshape(-1)
        rows = np.array(quantities, dtype=float)[:, :, None]
        j = np.arange(1, levels)[:, None]
        powers = j * np.log(np.abs(y)) - np.array(
            [math.lgamma(k + 1) for k in range(1, levels)])[:, None]
        last = rows[:, levels] > 0.0
        logs = (rows[:, 1:levels] * powers).sum(axis=1) + np.where(
            last, rows[:, levels] * _log_pi_last(y, levels), 0.0)
        logs = np.maximum(logs, np.where(last, -y, -np.inf))
        logs = np.where(np.abs(y) >= 1.0, logs, -np.inf)
        return logs.reshape((len(quantities),) + x.shape)


def fits_range(cfg: DetectorConfig, order: int, top: float) -> bool:
    """True when no quantity of order at most ``order`` can leave the float range
    at pair rates |x| <= ``top``; photoelectric orders must lie in 0 .. ``MAX_FACTORIAL``.

    A bound that takes no quantity: with |y| <= Y = gamma top + nu, each of
    at most N POVM exponents adds at most (K-1) ln Y through a power y^j/j!,
    or 2 Y + ln 2 through pi_K and its exp(-y), and nothing where Y < 1; a
    photoelectric order s adds s ln Y.  False leaves the decision to
    :func:`check_range`.
    """
    if cfg.model == PHOTOELECTRIC:
        check_order(order, "photoelectric order")
        bound = order * math.log(max(cfg.efficiency * top + cfg.dark, 1.0))
    else:
        top_y = cfg.gamma_rate * top + cfg.dark
        levels = 1 if cfg.model == ONOFF else cfg.levels
        bound = -math.inf if top_y < 1.0 else order * max(
            (levels - 1) * math.log(top_y), 2.0 * top_y + math.log(2.0))
    return bound <= LOG_FLOAT_MAX


def check_range(state, cfg: DetectorConfig, quantities) -> None:
    """Reject ``quantities`` of ``state`` that leave the float range, before any is evaluated.

    ``quantities`` are what the expectation routes take: POVM exponent rows
    for the multiplexed models, NOExpr terms for the photoelectric one.
    Their intermediates (:func:`_log_magnitudes`) are taken at every pair
    rate x = conj(a_i) a_j of a coherent superposition or stack, padding
    pairs included, and at x = n_max of a Fock input on the photoelectric
    route; the photon-number route of the multiplexed models sums
    nonnegative terms and needs no limit.  The first grid point where one
    exceeds ``LOG_FLOAT_MAX`` raises a ValueError naming the detector, the
    point, the quantity and the limit.
    """
    if isinstance(state, Mixture):
        for _, part in state.parts:
            check_range(part, cfg, quantities)
        return
    if isinstance(state, FockVector):
        if cfg.model != PHOTOELECTRIC:
            return
        x = np.array([[float(state.n_max)]])
    elif isinstance(state, (CoherentStack, CoherentSuperposition)):
        stack = state if isinstance(state, CoherentStack) else CoherentStack([state])
        x = stack.x[..., 0].real.reshape(len(stack.x), -1)
    else:
        return  # the kernel names an unsupported state
    logs = _log_magnitudes(cfg, quantities, x).max(axis=-1)
    over = np.flatnonzero((logs > LOG_FLOAT_MAX).any(axis=0))
    if over.size == 0:
        return
    g = over[0]
    q = int(np.argmax(logs[:, g]))
    quantity = quantities[q]
    name = (f"order {max(power for _, power, _ in quantity.terms)}"
            if isinstance(quantity, NOExpr) else f"POVM exponents {quantity}")
    if isinstance(state, FockVector):
        point = f"the Fock component n = {state.n_max}"
    else:
        point = f"|alpha|^2 = {float((np.abs(stack.amplitudes[g]) ** 2).sum(axis=-1).max()):.6g}"
    model = cfg.model + "".join(f" {symbol}={value}" for symbol, value
                                in (("N", cfg.bins), ("K", cfg.levels)) if value is not None)
    raise ValueError(
        f"{model} at eta={cfg.efficiency:g}, nu={cfg.dark:g}: the expectation of "
        f"{name} overflows at {point}, where an intermediate "
        f"reaches exp({logs[q, g]:.2f}), beyond the largest float, "
        f"exp(LOG_FLOAT_MAX) = exp({LOG_FLOAT_MAX:.2f})")


# --------------------------------------------------------------------------
# photoelectric model


def photo_distribution(state: StateSpec, cfg: DetectorConfig,
                       n_max: int = 60) -> CountDistribution:
    """Photocount distribution p_n = <: G^n / n! exp(-G) :> for n = 0 .. n_max.

    :func:`check_order` and :func:`check_range` run before any p_n is evaluated.
    """
    if cfg.model != PHOTOELECTRIC:
        raise ValueError("photo_distribution needs a photoelectric config")
    check_order(n_max, "n_max")
    rate, offset = cfg.gamma_rate, cfg.dark
    monomials = [NOExpr.monomial(1.0 / math.factorial(n), n, 1.0, rate, offset)
                 for n in range(n_max + 1)]
    check_range(state, cfg, monomials)
    probs = [expect_any(state, monomial) for monomial in monomials]
    return CountDistribution("photo", tuple(range(n_max + 1)), tuple(probs), cfg)


def _log_tail(r: np.ndarray, m: int) -> np.ndarray:
    """A bound on ln sum_{n>m} r^n/n! for r >= 0: the first term over 1 - r/(m+2), or e^r."""
    with np.errstate(divide="ignore", invalid="ignore"):
        head = (m + 1) * np.log(r) - math.lgamma(m + 2) - np.log1p(-r / (m + 2))
    return np.where(r < m + 2, np.minimum(head, r), r)


def check_truncation(state: StateSpec, cfg: DetectorConfig, n_max: int) -> None:
    """Reject an ``n_max`` outside 0 .. ``MAX_FACTORIAL``, or one that drops more than
    1e-10 of the photocount distribution.

    :func:`photo_distribution` warns on such a cut and ``sample`` refuses
    to draw from it; this bounds the dropped probability before anything is
    evaluated.  A pair (i, j) of a coherent superposition adds at most
    |w_i w_j <a_i|a_j>| exp(-Re y) sum_{n > n_max} |y|^n/n!, with y = gamma
    conj(a_i) a_j + nu; a Fock component |n> at most P(B + D > n_max), with
    B ~ Bin(n, eta) the counted photons and D ~ Pois(nu) the dark counts.
    """
    check_order(n_max, "n_max")
    if isinstance(state, Mixture):
        for _, part in state.parts:
            check_truncation(part, cfg, n_max)
        return
    if isinstance(state, FockVector):
        # P(D > n_max - k) for B = k counted photons, and Bin(n, eta) in lgamma form
        k = np.arange(state.n_max + 1)
        dark = np.array([1.0 if j < 0 else math.exp(_log_tail(np.array(cfg.dark), j) - cfg.dark)
                         for j in (n_max - k).tolist()])
        log_factorials = np.array([math.lgamma(j + 1) for j in k])
        n, lost = k[:, None], k[:, None] - k
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = (log_factorials[n] - log_factorials[k] - log_factorials[np.abs(lost)]
                    + np.where(k > 0, k * np.log(cfg.efficiency), 0.0)
                    + np.where(lost > 0, lost * np.log1p(-cfg.efficiency), 0.0))
        binomial = np.where(lost >= 0, np.exp(logs), 0.0)
        bound = float(state.probabilities() @ (binomial @ dark))
    else:
        stack = CoherentStack([state])
        y = cfg.gamma_rate * stack.x[0, ..., 0] + cfg.dark
        with np.errstate(divide="ignore", under="ignore"):
            logs = (np.log(np.abs(stack.pair[0])) + stack.overlap[0, ..., 0].real - y.real
                    + _log_tail(np.abs(y), n_max))
            bound = float(np.exp(logs).sum())
    if bound > _NORM_TOL:
        raise ValueError(f"n_max = {n_max} may drop up to {bound:.3g} of the photocount "
                         f"distribution, more than {_NORM_TOL}; it needs a larger n_max")


def factorial_moment(state: StateSpec, cfg: DetectorConfig, m: int) -> float:
    """Normally ordered moment <: (eta n)^m :> of the attenuated photon number."""
    m = _as_exponent(m)
    if m < 0:
        raise ValueError("moment order must be >= 0")
    return expect_any(state, NOExpr.monomial(1.0, m, 0.0, cfg.efficiency, 0.0))


def factorial_moment_from_counts(counts: CountDistribution, m: int) -> float:
    """Same moment recovered from a photocount distribution as sum n!/(n-m)! p_n."""
    if counts.kind != "photo":
        raise ValueError("needs a photocount distribution")
    return _moment_from_counts(counts, _as_exponent(m))


# --------------------------------------------------------------------------
# multiplexed on-off model


def click_distribution(state: StateSpec, cfg: DetectorConfig) -> CountDistribution:
    """Click distribution c_k = C(N,k) <: exp(-G)^(N-k) (1-exp(-G))^k :>."""
    if cfg.model != ONOFF:
        raise ValueError("click_distribution needs an onoff config")
    bins = cfg.bins
    rows = [(bins - k, k) for k in range(bins + 1)]
    check_range(state, cfg, rows)
    values = povm_product_value(state, cfg, rows)
    probs = [binom(bins, k) * value for k, value in enumerate(values)]
    return CountDistribution("click", tuple(range(bins + 1)), tuple(probs), cfg)


def click_moment(state: StateSpec, cfg: DetectorConfig, m: int) -> float:
    """Click moment <: pi^m :>, pi = 1 - exp(-G), via the operator route."""
    if cfg.model != ONOFF:
        raise ValueError("click_moment needs an onoff config")
    if not 0 <= m <= cfg.bins:
        raise ValueError(f"moment order must satisfy 0 <= m <= N={cfg.bins}")
    return povm_product_value(state, cfg, (0, m))


def click_moment_from_counts(counts: CountDistribution, m: int) -> float:
    """Click moment recovered from the click statistics.

    <: pi^m :> = sum_{k >= m} [C(k, m) / C(N, m)] c_k; this is the route an
    experiment takes, and it must agree with :func:`click_moment`.
    """
    if counts.kind != "click":
        raise ValueError("needs a click distribution")
    bins = counts.config.bins
    m = _as_exponent(m)
    if not 0 <= m <= bins:
        raise ValueError(f"moment order must satisfy 0 <= m <= N={bins}")
    return _moment_from_counts(counts, m)


# --------------------------------------------------------------------------
# multiplexed detectors with intrinsic resolution


def pnr_povm(cfg: DetectorConfig) -> list[NOExpr]:
    """Per-bin outcome operators pi_j = :G^j/j! exp(-G): for j < K, pi_K = 1 - sum_j pi_j."""
    if cfg.model != PNR:
        raise ValueError("pnr_povm needs a pnr config")
    lower = [((1.0 / math.factorial(j), j, 1.0),) for j in range(cfg.levels)]
    last = ((1.0, 0, 0.0),) + tuple((-c, j, d) for ((c, j, d),) in lower)
    return [NOExpr(terms, cfg.gamma_rate, cfg.dark) for terms in lower + [last]]


def pnr_outcomes(bins: int, levels: int):
    """All (N_0, ..., N_K) with sum N, in lexicographic order."""

    def rec(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(remaining - first, slots - 1):
                yield (first, *rest)

    return list(rec(bins, levels + 1))


def pnr_distribution(state: StateSpec, cfg: DetectorConfig) -> CountDistribution:
    """Multinomial outcome distribution c_{N_0, ..., N_K} over all bin splits."""
    if cfg.model != PNR:
        raise ValueError("pnr_distribution needs a pnr config")
    bins, levels = cfg.bins, cfg.levels
    n_outcomes = math.comb(bins + levels, levels)
    if n_outcomes > _MAX_OUTCOMES:
        raise ValueError(
            f"outcome space of size {n_outcomes} exceeds the {_MAX_OUTCOMES} guard"
        )
    outcomes = pnr_outcomes(bins, levels)
    check_range(state, cfg, outcomes)
    values = povm_product_value(state, cfg, outcomes)
    probs = [
        multinom(bins, outcome) * value for outcome, value in zip(outcomes, values)
    ]
    return CountDistribution("pnr", tuple(outcomes), tuple(probs), cfg)


def pnr_moment(state: StateSpec, cfg: DetectorConfig,
               exponents: tuple[int, ...]) -> float:
    """Expectation <: pi_0^{e_0} ... pi_K^{e_K} :> of a POVM power product."""
    if cfg.model != PNR:
        raise ValueError("pnr_moment needs a pnr config")
    return povm_product_value(state, cfg, tuple(exponents))


def pnr_moment_from_counts(counts: CountDistribution,
                           exponents: tuple[int, ...]) -> float:
    """POVM moment recovered from multinomial statistics.

    Uses the factorial-moment identity of the multinomial distribution:
    E[prod_j (N_j)_(e_j)] = (N)_(sum e) <: prod_j pi_j^{e_j} :>.
    """
    if counts.kind != "pnr":
        raise ValueError("needs a pnr distribution")
    bins = counts.config.bins
    exponents = tuple(_as_exponent(e) for e in exponents)
    order = sum(exponents)
    if order > bins:
        raise ValueError(f"total order {order} exceeds N={bins}")
    return _moment_from_counts(counts, exponents)
