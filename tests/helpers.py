"""Random state and expression factories shared across the test modules."""

import cmath

import numpy as np

from clickwitness.states import (
    CoherentSuperposition,
    FockVector,
    Mixture,
    NOExpr,
    coherent_state,
    make_cat,
)


def coherent_overlap(a, b):
    """Product over modes of <a_m|b_m> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b)."""
    exponent = sum(
        -0.5 * (abs(am) ** 2 + abs(bm) ** 2) + am.conjugate() * bm
        for am, bm in zip(a, b)
    )
    return cmath.exp(exponent)


def random_coherent(rng, max_abs2=6.0):
    intensity = rng.uniform(0.05, max_abs2)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return coherent_state(np.sqrt(intensity) * np.exp(1j * phase))


def random_coherent_mixture(rng, max_parts=4, max_abs2=5.0):
    n_parts = int(rng.integers(2, max_parts + 1))
    probs = rng.dirichlet(np.ones(n_parts))
    return Mixture(tuple(
        (float(p), random_coherent(rng, max_abs2)) for p in probs
    ))


def random_cat(rng, max_abs2=6.0, parity=None):
    intensity = rng.uniform(0.05, max_abs2)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    if parity is None:
        parity = "even" if rng.integers(2) else "odd"
    return make_cat(np.sqrt(intensity) * np.exp(1j * phase), parity)


def random_superposition(rng, max_abs2=4.0):
    """Normalized two-component superposition of distinct coherent states."""
    amps = [
        complex(rng.normal(0, np.sqrt(max_abs2 / 2)), rng.normal(0, np.sqrt(max_abs2 / 2)))
        for _ in range(2)
    ]
    raw = [complex(rng.normal(), rng.normal()) for _ in range(2)]
    norm2 = sum(
        (wi.conjugate() * wj * coherent_overlap((ai,), (aj,))).real
        for wi, ai in zip(raw, amps)
        for wj, aj in zip(raw, amps)
    )
    weights = tuple(w / np.sqrt(norm2) for w in raw)
    return CoherentSuperposition(weights, tuple((a,) for a in amps))


def random_fock_vector(rng, top=12):
    dim = int(rng.integers(2, top + 1))
    coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    coeffs = coeffs / np.linalg.norm(coeffs)
    return FockVector(tuple(coeffs))


def random_fock_mixture(rng, max_parts=3, top=10):
    n_parts = int(rng.integers(2, max_parts + 1))
    probs = rng.dirichlet(np.ones(n_parts))
    return Mixture(tuple(
        (float(p), random_fock_vector(rng, top)) for p in probs
    ))


def random_noexpr(rng, max_terms=4, max_power=4, allow_offset=True):
    """Random expression with decay * rate <= 1.8, keeping both backends stable."""
    rate = rng.uniform(0.2, 1.0)
    offset = float(rng.uniform(0.0, 0.3)) if (allow_offset and rng.integers(2)) else 0.0
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = tuple(
        (
            float(rng.uniform(-2.0, 2.0)),
            int(rng.integers(0, max_power + 1)),
            float(rng.uniform(0.0, 1.8 / rate)),
        )
        for _ in range(n_terms)
    )
    return NOExpr(terms, rate, offset)
