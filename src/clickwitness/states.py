"""Quantum states and normally ordered expectation values.

Two evaluation backends are provided and kept deliberately independent:

* the analytic backend handles coherent superpositions.  For a normally
  ordered function ``h`` of the photon-number operator, cross terms between
  coherent components obey ``<a|:h(n):|b> = <a|b> h(conj(a) b)``, so every
  expectation reduces to a finite sum over component pairs.
* :func:`expect_fock` handles Fock-basis states through the closed form
  ``<n|:n^m exp(-s n):|n> = n!/(n-m)! (1-s)^(n-m)`` and serves as the
  brute-force oracle for the analytic backend.

:func:`expect` is the one entry point for every state: it evaluates
coherent superpositions and stacks on the analytic backend, hands Fock
vectors to :func:`expect_fock`, and sums mixtures part by part.  Neither
backend calls the other.

Both evaluate a :class:`NOExpr`: a sum of terms
``coeff * :G^power exp(-decay G):`` with the affine response
``G = rate * n + offset`` (``offset`` models dark counts).  Normal ordering
makes these behave like scalar functions of the photon number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

_NORM_TOL = 1e-12
_IMAG_TOL = 1e-10
_TAIL_TOL = 1e-14
_FOCK_START = 60
_FOCK_CAP = 960


# --------------------------------------------------------------------------
# normally ordered expressions


@dataclass(frozen=True)
class NOExpr:
    """Normally ordered expression sum_t coeff_t :G^power_t exp(-decay_t G):.

    ``G = rate * n + offset`` is shared by all terms, which are kept sorted
    by (power, decay, coeff).  There is no expression arithmetic: the
    package builds monomials and the pnr outcome operators from their terms.
    """

    terms: tuple[tuple[float, int, float], ...]
    rate: float
    offset: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if not (math.isfinite(self.offset) and self.offset >= 0.0):
            raise ValueError(f"offset must be finite and >= 0, got {self.offset}")
        canon = []
        for coeff, power, decay in self.terms:
            coeff = float(coeff)
            power = int(power)
            decay = float(decay)
            if not math.isfinite(coeff):
                raise ValueError("term coefficients must be finite")
            if power < 0:
                raise ValueError("term powers must be nonnegative integers")
            canon.append((coeff, power, decay))
        canon.sort(key=lambda t: (t[1], t[2], t[0]))
        object.__setattr__(self, "terms", tuple(canon))

    @classmethod
    def monomial(cls, coeff: float, power: int, decay: float,
                 rate: float, offset: float = 0.0) -> "NOExpr":
        return cls(((coeff, power, decay),), rate, offset)

    def values(self, x, extra=0j) -> np.ndarray:
        """sum_t coeff_t y^power_t exp(extra - decay_t y) at y = rate x + offset.

        Elementwise over the broadcast shape of ``x`` and ``extra``.
        ``extra`` carries the coherent-overlap exponent so that large
        positive and negative exponents cancel before exponentiation; this
        keeps cat-state cross terms finite over wide amplitude sweeps.
        """
        y = self.rate * np.asarray(x, dtype=complex) + self.offset
        total = np.zeros(np.broadcast(y, extra).shape, dtype=complex)
        for coeff, power, decay in self.terms:
            total = total + coeff * np.power(y, power) * np.exp(extra - decay * y)
        return total


# --------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class CoherentSuperposition:
    """Pure state sum_i w_i |alpha_i>, with one amplitude tuple per component.

    ``amplitudes[i][m]`` is the coherent amplitude of component i in mode m.
    Normalization sum_ij w_i* w_j <alpha_i|alpha_j> = 1 is enforced to 1e-12.
    ``stack`` is the state as a one-point :class:`CoherentStack`, built for
    that check and kept for every kernel call on the state; it takes no
    part in comparison, hashing or repr.
    """

    weights: tuple[complex, ...]
    amplitudes: tuple[tuple[complex, ...], ...]
    stack: "CoherentStack" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(complex(w) for w in self.weights)
        amps = tuple(tuple(complex(a) for a in comp) for comp in self.amplitudes)
        if len(weights) != len(amps) or not weights:
            raise ValueError("need one amplitude tuple per weight")
        modes = len(amps[0])
        if modes < 1 or any(len(comp) != modes for comp in amps):
            raise ValueError("all components must share the same mode count")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "amplitudes", amps)
        stack = CoherentStack(np.array([weights]), np.array([amps]))
        object.__setattr__(self, "stack", stack)
        norm = complex(stack.norms()[0])
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"superposition is not normalized: <psi|psi> = {norm}")

    @property
    def modes(self) -> int:
        return len(self.amplitudes[0])


@dataclass(frozen=True)
class FockVector:
    """Single-mode pure state sum_n c_n |n>, normalized to 1e-12."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("need at least the vacuum coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        norm = sum(abs(c) ** 2 for c in coeffs)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"Fock vector is not normalized: |c|^2 sums to {norm}")

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    @property
    def modes(self) -> int:
        return 1

    def probabilities(self) -> np.ndarray:
        return np.array([abs(c) ** 2 for c in self.coeffs])


@dataclass(frozen=True)
class Mixture:
    """Classical mixture of states; probabilities sum to one within 1e-12."""

    parts: tuple[tuple[float, "StateSpec"], ...]

    def __post_init__(self):
        parts = tuple((float(p), state) for p, state in self.parts)
        if not parts:
            raise ValueError("mixture needs at least one part")
        if any(p < 0.0 for p, _ in parts):
            raise ValueError("mixture probabilities must be nonnegative")
        total = sum(p for p, _ in parts)
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"mixture probabilities sum to {total}, not 1")
        modes = parts[0][1].modes
        if any(state.modes != modes for _, state in parts):
            raise ValueError("all mixture parts must share the same mode count")
        object.__setattr__(self, "parts", parts)

    @property
    def modes(self) -> int:
        return self.parts[0][1].modes


StateSpec = Union[CoherentSuperposition, FockVector, Mixture]


def coherent_state(alpha, modes: int | None = None) -> CoherentSuperposition:
    """Single coherent component |alpha>, possibly multimode."""
    amps = _amplitude_tuple(alpha, modes)
    return CoherentSuperposition((1.0 + 0j,), (amps,))


def _amplitude_tuple(alpha, modes: int | None) -> tuple[complex, ...]:
    if isinstance(alpha, (tuple, list, np.ndarray)):
        amps = tuple(complex(a) for a in alpha)
        if modes is not None and modes != len(amps):
            raise ValueError(f"got {len(amps)} amplitudes for modes={modes}")
        return amps
    return (complex(alpha),) * (modes or 1)


def make_cat(alpha, parity: str, modes: int | None = None) -> CoherentSuperposition:
    """Normalized superposition of |alpha> and |-alpha> with the given parity.

    ``parity`` is "even" (+) or "odd" (-); the odd state is undefined at zero
    amplitude.  A scalar ``alpha`` with ``modes > 1`` is replicated per mode.
    This is the one-point, one-label call of :func:`cat_stack`.
    """
    amplitudes = np.array([_amplitude_tuple(alpha, modes)], dtype=complex)
    return cat_stack(amplitudes, (parity,)).superposition((0, 0))


def cat_stack(amplitudes: np.ndarray, parities) -> "CoherentStack":
    """The cats w (|alpha> + sign |-alpha>) of every parity in ``parities``, as one stack.

    Row g of the (G, modes) ``amplitudes`` is alpha at grid point g, and w
    is :func:`cat_weight` of sum_m |alpha_m|^2 taken on Python floats.  The
    parity sign lives only in the weights, so label l of the (L, G, C)
    weights holds ``parities[l]`` and all labels share the amplitudes.  A
    zero row is the vacuum, padded with a zero-weight component, and a stack
    whose every row is zero is one component wide; an odd cat there raises
    ValueError.  Normalization is left to the caller.
    """
    pumped = [sum(abs(a) ** 2 for a in row) for row in amplitudes.tolist()]
    vacuum = np.array([p == 0.0 for p in pumped])
    width = 1 if vacuum.all() else 2
    components = np.stack([amplitudes, -amplitudes], axis=1)[:, :width]
    components[vacuum] = 0.0
    weights = []
    for parity in parities:
        if parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        if parity == "odd" and vacuum.any():
            raise ValueError("odd cat state is undefined at zero amplitude")
        sign = 1.0 if parity == "even" else -1.0
        first = np.array([1.0 if p == 0.0 else cat_weight(p, sign) for p in pumped])
        weights.append(np.stack([first, np.where(vacuum, 0.0, sign * first)], axis=1))
    return CoherentStack(np.array(weights, dtype=complex)[..., :width], components)


def cat_weight(pumped: float, sign: float) -> float:
    """Weight w of |alpha> in w (|alpha> + sign |-alpha>), sum_m |alpha_m|^2 = pumped."""
    if sign > 0:
        norm = 1.0 + math.exp(-2.0 * pumped)
    else:
        # 1 - exp(-2 pumped) without the cancellation at small amplitude
        norm = -math.expm1(-2.0 * pumped)
    return 1.0 / math.sqrt(2.0 * norm)


# --------------------------------------------------------------------------
# analytic backend


def _per_mode_exprs(expr, modes: int) -> tuple[NOExpr, ...]:
    if isinstance(expr, NOExpr):
        if modes != 1:
            raise ValueError(
                "a multimode state needs one expression per mode; pass a sequence"
            )
        return (expr,)
    exprs = tuple(expr)
    if len(exprs) != modes:
        raise ValueError(f"got {len(exprs)} expressions for {modes} modes")
    if not all(isinstance(e, NOExpr) for e in exprs):
        raise TypeError("per-mode expressions must be NOExpr instances")
    return exprs


class CoherentStack:
    """Coherent superpositions at G grid points, held as arrays.

    ``amplitudes`` has shape (G, C, modes) and ``weights`` shape (..., G, C):
    (G, C) for a plain stack, or (L, G, C) for L state labels that share
    the amplitudes, such as the cats of both parities.  A state with fewer
    than C components is padded with zero weights, which add exact zeros to
    every expectation.  The arrays are taken as given and nothing is
    checked here; :meth:`check_normalized` checks every grid point at once.
    The pair arrays that every expectation needs are built once here:
    ``pair`` = conj(w_i) w_j of shape (..., G, C, C), and per mode ``x`` =
    conj(a_i) a_j and the overlap exponent ``overlap`` = log <a_i|a_j>,
    both of shape (G, C, C, modes).  For its lifetime a stack memoizes, as
    read-only arrays, each per-mode factor of :func:`expect`, keyed by
    (mode, expression).
    """

    def __init__(self, weights: np.ndarray, amplitudes: np.ndarray):
        self.weights = w = weights
        self.amplitudes = a = amplitudes
        self.pair = w.conj()[..., :, None] * w[..., None, :]
        self.x = a.conj()[:, :, None, :] * a[:, None, :, :]
        norm = np.abs(a) ** 2
        self.overlap = -0.5 * (norm[:, :, None, :] + norm[:, None, :, :]) + self.x
        self._factors = {}

    def factor(self, mode: int, expr: NOExpr) -> np.ndarray:
        """``expr.values`` at the (G, C, C) pairs of ``mode``; memoized, read-only."""
        value = self._factors.get((mode, expr))
        if value is None:
            value = self._factors[mode, expr] = expr.values(self.x[..., mode],
                                                            self.overlap[..., mode])
            value.flags.writeable = False
        return value

    def norms(self) -> np.ndarray:
        """<psi|psi> = sum_ij conj(w_i) w_j <a_i|a_j> at every grid point."""
        # sum_ij conj(w_i) w_j = |sum_i w_i|^2 is taken apart from the rest,
        # conj(w_i) w_j (<a_i|a_j> - 1), so that components of opposite sign
        # at small amplitude (an odd cat) do not cancel to 0.
        return np.abs(self.weights.sum(axis=-1)) ** 2 + (
            self.pair * np.expm1(self.overlap.sum(axis=-1))).sum(axis=(-2, -1))

    def check_normalized(self, points: Sequence) -> None:
        """Raise ValueError naming the first of ``points`` whose state is not normalized.

        <psi|psi> must be 1 to 1e-12 at every grid point of every label, as
        for a single :class:`CoherentSuperposition`; labels are taken in order.
        """
        norms = self.norms()
        bad = np.argwhere(np.abs(norms - 1.0) > _NORM_TOL)
        if bad.size:
            first = tuple(bad[0])
            raise ValueError(f"superposition at {points[first[-1]]!r} is not normalized: "
                             f"<psi|psi> = {norms[first]}")

    @property
    def modes(self) -> int:
        return self.amplitudes.shape[2]

    def superposition(self, index: tuple) -> CoherentSuperposition:
        """The state at ``index``, (label, grid point) of a labelled stack or
        (grid point,) of a plain one, zero-weight padding included."""
        return CoherentSuperposition(tuple(self.weights[index].tolist()),
                                     tuple(map(tuple, self.amplitudes[index[-1]].tolist())))


def pair_sum(terms: np.ndarray) -> np.ndarray:
    """Real part of sum_ij terms[..., i, j]: (..., G) values of (..., G, C, C).

    Pairs are added one at a time in row-major order.  A sum that
    overflowed raises OverflowError; an imaginary part above 1e-10 of
    max(1, |real part|) means a non-Hermitian input and raises too.  The
    error names the first failing row of G values, in row order.
    """
    flat = terms.reshape(*terms.shape[:-2], -1)
    total = sum(flat[..., k] for k in range(flat.shape[-1]))
    finite = np.isfinite(total)
    bad = np.abs(total.imag) > _IMAG_TOL * np.maximum(1.0, np.abs(total.real))
    if not finite.all() or bad.any():
        for row, ok, off in zip(*(a.reshape(-1, a.shape[-1]) for a in (total, finite, bad))):
            if not ok.all():
                raise OverflowError(f"expectation is not finite: {row}")
            if off.any():
                raise ArithmeticError("expectation has a non-Hermitian imaginary residual: "
                                      f"{row[off][0]}")
    return total.real


def expect(state, expr):
    """Expectation of a normally ordered expression, for every kind of state.

    A :class:`CoherentStack` is evaluated on the analytic backend and gives
    a fresh array of the shape of its leading weight axes, (G,) or (L, G):
    the per-mode factors, memoized by the stack and multiplied in mode
    order, depend on the amplitudes only and are shared by every label,
    whose pair weights are broadcast against them.  A single superposition
    is evaluated as its one-point ``stack``.  A :class:`FockVector` goes to
    :func:`expect_fock`, and a :class:`Mixture` is the weighted sum of its
    parts.  For multimode states, ``expr`` is a sequence with one
    expression per mode and the product over modes is taken.
    """
    if isinstance(state, CoherentStack):
        exprs = _per_mode_exprs(expr, state.modes)
        factor = state.factor(0, exprs[0])
        for mode in range(1, len(exprs)):
            factor = factor * state.factor(mode, exprs[mode])
        return pair_sum(state.pair * factor)
    if isinstance(state, Mixture):
        return sum(p * expect(part, expr) for p, part in state.parts)
    if isinstance(state, FockVector):
        return expect_fock(state, _per_mode_exprs(expr, state.modes)[0])
    if not isinstance(state, CoherentSuperposition):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    return float(expect(state.stack, expr)[0])


# --------------------------------------------------------------------------
# Fock-basis oracle


def expect_fock(state, expr: NOExpr) -> float:
    """Expectation on the Fock-basis backend (single mode).

    Uses the closed form ``<n|:n^q exp(-s n):|n> = n!/(n-q)! (1-s)^(n-q)``;
    the affine response ``G = rate n + offset`` is expanded binomially in
    ``offset``, so dark counts are handled exactly.
    """
    if isinstance(state, Mixture):
        return sum(p * expect_fock(part, expr) for p, part in state.parts)
    if isinstance(state, CoherentSuperposition):
        raise TypeError("expect_fock handles Fock-basis states; use expect")
    if not isinstance(state, FockVector):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if not isinstance(expr, NOExpr):
        raise TypeError("expect_fock evaluates a single-mode NOExpr")

    probs = state.probabilities()
    ns = np.arange(len(probs), dtype=float)
    rate, offset = expr.rate, expr.offset
    total = 0.0
    for coeff, power, decay in expr.terms:
        shrink = 1.0 - decay * rate
        dark = math.exp(-decay * offset)
        for q in range(power + 1):
            # without an offset only q = power is left, as 0.0 ** 0 == 1.0
            prefactor = math.comb(power, q) * offset ** (power - q) * rate ** q
            if prefactor == 0.0:
                continue
            ff = np.ones_like(ns)
            for i in range(q):
                ff = ff * (ns - i)
            ff = np.maximum(ff, 0.0)
            shrink_pow = np.power(shrink, np.maximum(ns - q, 0.0))
            total += coeff * dark * prefactor * float(np.sum(probs * ff * shrink_pow))
    return total


# --------------------------------------------------------------------------
# conversions


def to_fock(state: StateSpec, n_max: int | None = None):
    """Fock-basis representation of a single-mode state.

    Coherent superpositions expand exactly as
    ``c_n = sum_i w_i exp(-|a_i|^2/2) a_i^n / sqrt(n!)``, truncated where a
    bound on the dropped probability (:func:`_tail_bound`) is below 1e-14:
    at ``n_max``, or else at the first of n = 60, 120, ..., 960 that passes.
    """
    if isinstance(state, FockVector):
        return state
    if isinstance(state, Mixture):
        return Mixture(tuple((p, to_fock(part, n_max)) for p, part in state.parts))
    if not isinstance(state, CoherentSuperposition):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if state.modes != 1:
        raise ValueError("to_fock supports single-mode states only")

    limit = _FOCK_START if n_max is None else n_max
    while (tail := _tail_bound(state, limit)) > _TAIL_TOL:
        if n_max is not None or limit >= _FOCK_CAP:
            raise ValueError(f"truncating at n={limit} drops tail probability up to "
                             f"{tail:.3e} > {_TAIL_TOL}")
        limit *= 2
    coeffs = [0j] * (limit + 1)
    for w, (a,) in zip(state.weights, state.amplitudes):
        if a == 0j:
            coeffs[0] += w
            continue
        log_a = cmath.log(a)
        base = -0.5 * abs(a) ** 2
        for n in range(limit + 1):
            coeffs[n] += w * cmath.exp(base + n * log_a - 0.5 * math.lgamma(n + 1))
    return FockVector(tuple(coeffs))


def _tail_bound(state: CoherentSuperposition, limit: int) -> float:
    """Bound on sum_{n > limit} |c_n|^2 of a single-mode superposition, in log space.

    |c_n| <= b_n = sum_i |w_i| exp(-|a_i|^2/2) |a_i|^n / sqrt(n!).  From
    n >= 2 max|a_i|^2 on, b_{n+1}^2 <= b_n^2 / 2, so the terms past that
    point add at most the last one.
    """
    parts = [(abs(w), abs(a)) for w, (a,) in zip(state.weights, state.amplitudes) if w and a]
    if not parts:
        return 0.0
    ns = np.arange(limit + 1, max(limit + 1, math.ceil(2.0 * max(a for _, a in parts) ** 2)) + 1)
    logs = 2.0 * np.logaddexp.reduce(
        [math.log(w) - 0.5 * a * a + ns * math.log(a) for w, a in parts], axis=0
    ) - np.array([math.lgamma(n + 1) for n in ns])
    return math.exp(np.logaddexp.reduce(np.append(logs, logs[-1])))
