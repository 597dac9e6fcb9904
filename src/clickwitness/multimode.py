"""Multimode photon-number moments, coincidence counts, and ratio criteria.

Each mode carries its own integer or half-odd exponent class, giving 2^mu
distinct witness-matrix families for mu modes.  Matrix entries always use
whole-integer exponent sums; half-integer components only ever appear
through the pairing rule.  A uniform per-mode efficiency eta is applied as
n_j -> eta n_j in the moments; the ratio criteria are invariant under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import HalfInt, SymMatrix, check_dimension
from .states import CoherentStack, NOExpr, StateSpec, expect
from .witnesses import (
    INDETERMINATE,
    NONCLASSICAL,
    NO_VIOLATION,
    IndexSet,
    WitnessReport,
    _fill,
    _pair_quantities,
    _report,
)

MAX_MODES = 8

DIVERGENT = "divergent"


@dataclass(frozen=True, order=True)
class MultiIndex:
    """Per-mode half-integer exponents (k_1, ..., k_mu)."""

    parts: tuple[HalfInt, ...]

    def __post_init__(self):
        parts = tuple(HalfInt.of(p) for p in self.parts)
        if not parts:
            raise ValueError("multi-index needs at least one mode")
        if any(p.twice < 0 for p in parts):
            raise ValueError("multi-index exponents must be nonnegative")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def of(cls, values) -> "MultiIndex":
        return cls(tuple(HalfInt.of(v) for v in values))

    @property
    def modes(self) -> int:
        return len(self.parts)

    def total(self) -> HalfInt:
        return HalfInt(sum(p.twice for p in self.parts))

    @property
    def is_whole(self) -> bool:
        return all(p.is_integer for p in self.parts)

    def to_ints(self) -> tuple[int, ...]:
        return tuple(p.to_int() for p in self.parts)

    def factorial(self) -> int:
        return math.prod(math.factorial(m) for m in self.to_ints())

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if not isinstance(other, MultiIndex):
            return NotImplemented
        if other.modes != self.modes:
            raise ValueError(f"mode mismatch: {self.modes} vs {other.modes}")
        return MultiIndex(tuple(a + b for a, b in zip(self.parts, other.parts)))

    def __mul__(self, factor: int) -> "MultiIndex":
        if not isinstance(factor, int):
            return NotImplemented
        return MultiIndex(tuple(p * factor for p in self.parts))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _require_modes(state: StateSpec, index: MultiIndex) -> None:
    if state.modes != index.modes:
        raise ValueError(
            f"state has {state.modes} modes but the index has {index.modes}"
        )


def joint_moment(state: StateSpec, index: MultiIndex, eta: float = 1.0) -> float:
    """Joint normally ordered moment <: prod_j (eta n_j)^(m_j) :>."""
    _require_modes(state, index)
    if not index.is_whole:
        raise ValueError(f"moment exponents must be whole integers, got {index}")
    exprs = [NOExpr.monomial(1.0, m, 0.0, eta, 0.0) for m in index.to_ints()]
    return expect(state, exprs)


def joint_counts(state: StateSpec, index: MultiIndex, eta: float = 1.0) -> float:
    """Coincidence probability p_m of detecting m_j photons in mode j."""
    _require_modes(state, index)
    if not index.is_whole:
        raise ValueError(f"coincidence outcomes must be whole integers, got {index}")
    exprs = [
        NOExpr.monomial(1.0 / math.factorial(m), m, 1.0, eta, 0.0)
        for m in index.to_ints()
    ]
    return expect(state, exprs)


def mean_total_photons(state: StateSpec, eta: float = 1.0) -> float:
    """Total detected photon number sum_j <eta n_j>; an array for a stack."""
    total = 0.0
    for mode in range(state.modes):
        parts = tuple(HalfInt(2 if j == mode else 0) for j in range(state.modes))
        total += joint_moment(state, MultiIndex(parts), eta)
    return total


def check_mode_count(modes: int) -> None:
    """Reject a mode count above ``MAX_MODES``."""
    if modes > MAX_MODES:
        raise ValueError(f"mode_counts are capped at MAX_MODES = {MAX_MODES}, got {modes}")


def mode_class_patterns(modes: int):
    """All 2^mu integer/half class assignments, one per mode."""
    check_mode_count(modes)
    for bits in range(2 ** modes):
        yield tuple("half" if (bits >> j) & 1 else "integer" for j in range(modes))


def multimode_matrices(state: StateSpec, elements, eta: float = 1.0,
                       kind: str = "moments") -> WitnessReport:
    """Multimode counting (C) or moment (M) witness matrix.

    Entries are (k+l)! p_(k+l) for ``kind="counts"`` and <: n^(k+l) :> for
    ``kind="moments"``; the index set must carry one fixed class per mode,
    which :class:`~.witnesses.IndexSet` checks.  Each distinct pair sum k+l
    is evaluated once.  ``state`` is one state; a
    :class:`~.states.CoherentStack` of grid points is refused.
    """
    if isinstance(state, CoherentStack):
        raise ValueError("multimode_matrices takes one state, not a CoherentStack")
    if kind not in ("counts", "moments"):
        raise ValueError("kind must be 'counts' or 'moments'")
    iset = IndexSet(tuple(tuple(e.parts if isinstance(e, MultiIndex) else e)
                          for e in elements), "multimode")
    check_dimension(len(iset.elements), f"index set {iset.label!r}")
    elements = tuple(MultiIndex(e) for e in iset.elements)
    if state.modes != elements[0].modes:
        raise ValueError(
            f"state has {state.modes} modes, set has {elements[0].modes}"
        )
    quantities = _pair_quantities(elements, MultiIndex.__add__)
    values = {
        pair: joint_moment(state, pair, eta) if kind == "moments"
        else pair.factorial() * joint_counts(state, pair, eta)
        for pair in dict.fromkeys(quantities.values())
    }
    matrix = SymMatrix(_fill(len(elements), quantities, values))
    meta = {"state": state, "eta": eta, "elements": elements}
    return _report(matrix, elements, f"{kind}:multimode", meta)


@dataclass(frozen=True)
class RatioResult:
    ratio: float
    case: str | None
    verdict: str


def _pair_case(n: MultiIndex, m: MultiIndex) -> tuple[MultiIndex, str]:
    """The whole pair n + m and the case: (i)/(ii) integer totals with
    even/odd sum, (iii)/(iv) half-odd totals with even/odd sum."""
    pair = n + m
    if not pair.is_whole:
        raise ValueError(f"{n} and {m} are not pairwise admissible")
    n_tot, m_tot = n.total(), m.total()
    parity = (n_tot + m_tot).to_int() % 2
    if n_tot.is_integer:
        return pair, "i" if parity == 0 else "ii"
    return pair, "iii" if parity == 0 else "iv"


def _ratio_result(numer, denom, case: str, divergent: bool) -> RatioResult:
    """numer / denom and its verdict, elementwise; 0-d inputs give scalars.

    A vanishing denominator gives a NaN ratio and no verdict, except that
    with ``divergent`` a nonzero numerator over it gives +inf, "divergent".
    """
    zero = np.equal(denom, 0.0)
    ratio = np.where(zero, math.nan, numer / np.where(zero, 1.0, denom))
    verdict = np.where(
        zero, INDETERMINATE,
        np.where(ratio > 1.0 + 1e-10, NONCLASSICAL, NO_VIOLATION),
    )
    if divergent:
        infinite = zero & np.not_equal(numer, 0.0)
        ratio = np.where(infinite, math.inf, ratio)
        verdict = np.where(infinite, DIVERGENT, verdict)
    if ratio.ndim == 0:
        return RatioResult(float(ratio), case, str(verdict))
    return RatioResult(ratio, case, verdict)


def ratio_criterion(state: StateSpec, n: MultiIndex, m: MultiIndex,
                    eta: float = 1.0) -> RatioResult:
    """Moment ratio <:n^(m+n):>^2 / (<:n^(2m):> <:n^(2n):>).

    Classical light keeps the ratio at or below one.  For even and odd
    superpositions of +/- coherent amplitudes the four class/parity cases
    give 1, tanh^(+/-2), coth^(+/-2), and 1 respectively.  A vanishing
    denominator gives a NaN ratio and no verdict.  For a
    :class:`~.states.CoherentStack` the ratio and verdict are arrays with
    one entry per grid point, (G,) or (L, G) for L state labels.
    """
    pair, case = _pair_case(n, m)
    numer = joint_moment(state, pair, eta) ** 2
    denom = joint_moment(state, n * 2, eta) * joint_moment(state, m * 2, eta)
    return _ratio_result(numer, denom, case, divergent=False)


def count_ratio_criterion(state: StateSpec, n: MultiIndex, m: MultiIndex,
                          eta: float = 1.0) -> RatioResult:
    """Coincidence-count ratio [(m+n)! p_(n+m)]^2 / [(2m)! p_(2m) (2n)! p_(2n)].

    Values above one witness nonclassicality.  At unit efficiency the
    denominator can vanish identically for parity eigenstates; a vanishing
    denominator with a finite numerator is reported as divergent (formally
    an infinite violation), and 0/0 as indeterminate.  A
    :class:`~.states.CoherentStack` gives arrays, as in :func:`ratio_criterion`.
    """
    pair, case = _pair_case(n, m)
    numer = (pair.factorial() * joint_counts(state, pair, eta)) ** 2
    dn = (n * 2).factorial() * joint_counts(state, n * 2, eta)
    dm = (m * 2).factorial() * joint_counts(state, m * 2, eta)
    return _ratio_result(numer, dn * dm, case, divergent=True)
