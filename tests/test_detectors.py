import dataclasses
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clickwitness.detectors import (
    _times_power,
    CountDistribution,
    DetectorConfig,
    click_distribution,
    click_moment,
    click_moment_from_counts,
    factorial_moment,
    factorial_moment_from_counts,
    photo_distribution,
    pnr_distribution,
    pnr_moment,
    pnr_moment_from_counts,
    pnr_outcomes,
    pnr_povm,
    povm_product_value,
)
from clickwitness.scenarios import StateInput
from clickwitness.states import (
    CoherentStack,
    FockVector,
    Mixture,
    cat_stack,
    coherent_state,
    expect,
    expect_any,
    make_cat,
    to_fock,
)
from helpers import (
    random_cat,
    random_coherent,
    random_coherent_mixture,
    random_noexpr,
    random_superposition,
)
from oracles import (
    LOOP_MOMENTS,
    expanded_povm_product,
    fock_povm_reference,
    loop_clean_probs,
    pair_povm_product,
    row_povm_values,
)


class TestDetectorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig("onoff", bins=0)
        with pytest.raises(ValueError):
            DetectorConfig("pnr", bins=4)
        with pytest.raises(ValueError):
            DetectorConfig("photoelectric", efficiency=0.0)
        with pytest.raises(ValueError):
            DetectorConfig("photoelectric", dark=-0.1)
        with pytest.raises(ValueError):
            DetectorConfig("photoelectric", bins=4)

    @pytest.mark.parametrize("dark", [math.nan, math.inf])
    def test_non_finite_dark_counts_are_rejected(self, dark):
        with pytest.raises(ValueError, match="it must be finite and >= 0"):
            DetectorConfig.onoff(4, 0.5, dark)

    def test_gamma_rate(self):
        assert DetectorConfig.photoelectric(0.8).gamma_rate == 0.8
        assert DetectorConfig.onoff(4, 0.8).gamma_rate == 0.2


class TestCountDistribution:
    def test_clips_roundoff_negatives(self):
        d = CountDistribution("click", (0, 1), (1.0, -5e-15),
                              DetectorConfig.onoff(1))
        assert d.probs[1] == 0.0

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            CountDistribution("click", (0, 1), (1.1, -0.1),
                              DetectorConfig.onoff(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            CountDistribution("click", (0, 1), (bad, 1.0), DetectorConfig.onoff(1))

    def test_warns_on_truncation(self):
        with pytest.warns(UserWarning):
            CountDistribution("photo", (0, 1), (0.5, 0.4),
                              DetectorConfig.photoelectric())

    @pytest.mark.parametrize("probs", [
        (0.5, -0.0, 0.25, -1e-15, 0.25, -1e-14, 5e-324),
        (np.float64(0.75), np.float64(-0.0), np.float64(-3e-15), 0.25),
        (1, 0, -0.0),
    ])
    def test_clipping_matches_the_loop(self, probs):
        outcomes = tuple(range(len(probs)))
        got = CountDistribution("click", outcomes, probs).probs
        want = loop_clean_probs(outcomes, probs)
        assert all(type(p) is float for p in got)
        # bit for bit: -0.0 stays -0.0, as in the loop's max(-0.0, 0.0)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.1e-14,
                                     np.float64(-0.5), np.float64(math.nan)])
    def test_rejection_matches_the_loop(self, bad):
        outcomes = ((0, 1), (1, 0), (2, 0), (0, 2))
        probs = (0.5, -0.0, bad, math.nan)
        with pytest.raises(ValueError) as want:
            loop_clean_probs(outcomes, probs)
        with pytest.raises(ValueError) as got:
            CountDistribution("pnr", outcomes, probs)
        assert str(got.value) == str(want.value)
        assert "outcome (2, 0)" in str(got.value)


class TestPhotoDistribution:
    def test_coherent_gives_poisson(self):
        eta, beta2 = 0.6, 2.5
        cfg = DetectorConfig.photoelectric(eta)
        dist = photo_distribution(coherent_state(math.sqrt(beta2)), cfg, n_max=40)
        mean = eta * beta2
        for n in range(10):
            poisson = math.exp(-mean) * mean ** n / math.factorial(n)
            assert dist.prob(n) == pytest.approx(poisson, rel=1e-12)

    def test_single_photon_half_efficiency(self):
        cfg = DetectorConfig.photoelectric(0.5)
        dist = photo_distribution(FockVector((0.0, 1.0)), cfg, n_max=5)
        assert dist.prob(0) == pytest.approx(0.5)
        assert dist.prob(1) == pytest.approx(0.5)
        assert dist.prob(2) == 0.0

    def test_vacuum(self):
        cfg = DetectorConfig.photoelectric(1.0)
        dist = photo_distribution(coherent_state(0.0), cfg, n_max=3)
        assert dist.prob(0) == pytest.approx(1.0)

    def test_truncation_warns(self):
        cfg = DetectorConfig.photoelectric(1.0)
        with pytest.warns(UserWarning):
            photo_distribution(coherent_state(math.sqrt(8.0)), cfg, n_max=3)

    def test_dark_counts_shift_vacuum(self):
        cfg = DetectorConfig.photoelectric(1.0, dark=0.3)
        dist = photo_distribution(coherent_state(0.0), cfg, n_max=20)
        assert dist.prob(0) == pytest.approx(math.exp(-0.3), rel=1e-12)
        assert dist.prob(1) == pytest.approx(0.3 * math.exp(-0.3), rel=1e-12)


class TestFactorialMoment:
    def test_coherent(self):
        state = coherent_state(math.sqrt(1.7))
        cfg = DetectorConfig.photoelectric(0.4)
        for m in range(4):
            assert factorial_moment(state, cfg, m) == pytest.approx(
                (0.4 * 1.7) ** m, rel=1e-12
            )

    def test_even_cat_first_moment(self):
        s = 1.3
        cfg = DetectorConfig.photoelectric(0.5)
        got = factorial_moment(make_cat(math.sqrt(s), "even"), cfg, 1)
        assert got == pytest.approx(0.5 * s * math.tanh(s), rel=1e-13)

    def test_normalization_order_zero(self):
        cfg = DetectorConfig.photoelectric(0.7)
        for state in (coherent_state(1.0), make_cat(1.0, "odd")):
            assert factorial_moment(state, cfg, 0) == pytest.approx(1.0, rel=1e-13)

    def test_counts_route_agrees(self):
        cfg = DetectorConfig.photoelectric(0.6)
        state = make_cat(1.2, "odd")
        dist = photo_distribution(state, cfg, n_max=60)
        for m in range(4):
            assert factorial_moment_from_counts(dist, m) == pytest.approx(
                factorial_moment(state, cfg, m), rel=1e-10, abs=1e-12
            )


class TestClickDistribution:
    def test_coherent_gives_binomial(self):
        bins, eta, beta2, dark = 4, 0.7, 1.8, 0.05
        cfg = DetectorConfig.onoff(bins, eta, dark)
        dist = click_distribution(coherent_state(math.sqrt(beta2)), cfg)
        p = 1.0 - math.exp(-(eta * beta2 / bins + dark))
        for k in range(bins + 1):
            expected = math.comb(bins, k) * p ** k * (1 - p) ** (bins - k)
            assert dist.prob(k) == pytest.approx(expected, rel=1e-12)

    def test_single_photon_two_bins(self):
        cfg = DetectorConfig.onoff(2, 1.0)
        dist = click_distribution(FockVector((0.0, 1.0)), cfg)
        assert dist.probs == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    def test_vacuum_never_clicks(self):
        cfg = DetectorConfig.onoff(3, 1.0)
        dist = click_distribution(coherent_state(0.0), cfg)
        assert dist.prob(0) == pytest.approx(1.0)

    def test_normalized_and_nonnegative_on_random_states(self):
        rng = np.random.default_rng(8)
        cfg = DetectorConfig.onoff(5, 0.5, 0.01)
        for _ in range(5):
            dist = click_distribution(random_cat(rng), cfg)
            assert dist.total() == pytest.approx(1.0, abs=1e-10)
            assert all(p >= 0.0 for p in dist.probs)


class TestClickMoments:
    def test_coherent_powers(self):
        bins, eta, beta2 = 6, 0.9, 1.1
        cfg = DetectorConfig.onoff(bins, eta)
        state = coherent_state(math.sqrt(beta2))
        p = 1.0 - math.exp(-eta * beta2 / bins)
        for m in range(bins + 1):
            assert click_moment(state, cfg, m) == pytest.approx(p ** m, rel=1e-12)

    def test_single_photon_values(self):
        cfg = DetectorConfig.onoff(2, 1.0)
        one = FockVector((0.0, 1.0))
        assert click_moment(one, cfg, 0) == pytest.approx(1.0)
        assert click_moment(one, cfg, 1) == pytest.approx(0.5)
        assert click_moment(one, cfg, 2) == pytest.approx(0.0, abs=1e-15)

    def test_operator_and_counts_routes_agree(self):
        rng = np.random.default_rng(17)
        cfg = DetectorConfig.onoff(5, 0.6, 0.02)
        states = [random_cat(rng), random_coherent(rng), random_coherent_mixture(rng)]
        for state in states:
            dist = click_distribution(state, cfg)
            for m in range(cfg.bins + 1):
                assert click_moment_from_counts(dist, m) == pytest.approx(
                    click_moment(state, cfg, m), rel=1e-12, abs=1e-12
                )

    def test_moment_order_guard(self):
        cfg = DetectorConfig.onoff(3, 1.0)
        dist = click_distribution(coherent_state(1.0), cfg)
        with pytest.raises(ValueError):
            click_moment_from_counts(dist, 4)


class TestPnrPovm:
    def test_k1_reduces_to_onoff(self):
        cfg = DetectorConfig.pnr(4, 1, 0.8)
        povm = pnr_povm(cfg)
        state = make_cat(1.1, "odd")
        no_click = expect_any(state, povm[0])
        click = expect_any(state, povm[1])
        onoff = DetectorConfig.onoff(4, 0.8)
        assert click == pytest.approx(click_moment(state, onoff, 1), rel=1e-13)
        assert no_click + click == pytest.approx(1.0, rel=1e-13)

    def test_k2_last_element_completes(self):
        cfg = DetectorConfig.pnr(4, 2, 0.5)
        povm = pnr_povm(cfg)
        state = make_cat(0.9, "even")
        direct = expect_any(state, povm[2])
        complement = 1.0 - expect_any(state, povm[0]) - expect_any(state, povm[1])
        assert direct == pytest.approx(complement, rel=1e-12, abs=1e-14)

    def test_completeness_on_random_states(self):
        rng = np.random.default_rng(23)
        cfg = DetectorConfig.pnr(4, 3, 0.7, 0.01)
        povm = pnr_povm(cfg)
        for _ in range(5):
            state = random_coherent_mixture(rng)
            total = sum(expect_any(state, op) for op in povm)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestPnrDistribution:
    def test_outcome_enumeration_is_lexicographic(self):
        outcomes = pnr_outcomes(2, 1)
        assert outcomes == [(0, 2), (1, 1), (2, 0)]

    def test_k1_marginals_match_click_distribution(self):
        cfg = DetectorConfig.pnr(4, 1, 0.6)
        onoff = DetectorConfig.onoff(4, 0.6)
        state = make_cat(1.0, "even")
        joint = pnr_distribution(state, cfg)
        clicks = click_distribution(state, onoff)
        for (n0, n1), p in joint.as_dict.items():
            assert p == pytest.approx(clicks.prob(n1), rel=1e-12, abs=1e-14)

    def test_single_photon_deterministic_split(self):
        cfg = DetectorConfig.pnr(2, 2, 1.0)
        dist = pnr_distribution(FockVector((0.0, 1.0)), cfg)
        assert dist.prob((1, 1, 0)) == pytest.approx(1.0)
        assert sum(p for o, p in dist.as_dict.items() if o != (1, 1, 0)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_vacuum(self):
        cfg = DetectorConfig.pnr(3, 2, 1.0)
        dist = pnr_distribution(coherent_state(0.0), cfg)
        assert dist.prob((3, 0, 0)) == pytest.approx(1.0)

    def test_normalization_random_states(self):
        rng = np.random.default_rng(31)
        cfg = DetectorConfig.pnr(4, 2, 0.5, 0.02)
        for _ in range(3):
            dist = pnr_distribution(random_cat(rng), cfg)
            assert dist.total() == pytest.approx(1.0, abs=1e-10)


class TestPnrMoments:
    def test_zero_exponents(self):
        cfg = DetectorConfig.pnr(4, 2, 0.5)
        assert pnr_moment(make_cat(1.0, "odd"), cfg, (0, 0, 0)) == pytest.approx(1.0)

    def test_coherent_single_photon_rate(self):
        bins, eta, beta2 = 4, 0.5, 1.6
        cfg = DetectorConfig.pnr(bins, 2, eta)
        gamma = eta * beta2 / bins
        got = pnr_moment(coherent_state(math.sqrt(beta2)), cfg, (0, 1, 0))
        assert got == pytest.approx(gamma * math.exp(-gamma), rel=1e-12)

    def test_cat_matches_fock_oracle(self):
        from clickwitness.states import expect_fock

        cfg = DetectorConfig.pnr(4, 2, 0.5)
        cat = make_cat(1.2, "even")
        fock = to_fock(cat)
        for exponents in ((1, 1, 0), (2, 0, 1), (0, 2, 2)):
            expr = expanded_povm_product(cfg.levels, exponents, cfg.gamma_rate, cfg.dark)
            assert pnr_moment(cat, cfg, exponents) == pytest.approx(
                expect_fock(fock, expr), abs=1e-10
            )

    def test_counts_route_agrees(self):
        rng = np.random.default_rng(37)
        cfg = DetectorConfig.pnr(4, 2, 0.5)
        for state in (random_cat(rng), random_coherent(rng)):
            dist = pnr_distribution(state, cfg)
            for exponents in ((1, 0, 0), (1, 1, 0), (2, 0, 0), (0, 1, 1), (2, 1, 1)):
                assert pnr_moment_from_counts(dist, exponents) == pytest.approx(
                    pnr_moment(state, cfg, exponents), rel=1e-11, abs=1e-13
                )


# (config, distribution kind, outcome space, moment orders)
MOMENT_CASES = {
    "photo": (DetectorConfig.photoelectric(0.5), "photo", tuple(range(13)), range(9)),
    **{
        f"onoff{bins}": (DetectorConfig.onoff(bins, 0.5), "click",
                         tuple(range(bins + 1)), range(bins + 1))
        for bins in (3, 5, 8)
    },
    "pnr5_2": (DetectorConfig.pnr(5, 2, 0.5), "pnr", tuple(pnr_outcomes(5, 2)),
               [e for e in itertools.product(range(6), repeat=3) if sum(e) <= 5]),
}

MOMENT_FROM_COUNTS = {
    "photo": factorial_moment_from_counts,
    "click": click_moment_from_counts,
    "pnr": pnr_moment_from_counts,
}

# Zeros of both signs, tiny values and tiny negatives, which clipping turns to 0.
MOMENT_PROBS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-16, 1.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def moment_cases(draw):
    """(counts, order) with some outcomes absent from the distribution."""
    cfg, kind, outcomes, orders = MOMENT_CASES[draw(st.sampled_from(sorted(MOMENT_CASES)))]
    present = draw(st.sets(st.sampled_from(outcomes)))
    kept = tuple(o for o in outcomes if o in present)
    probs = draw(st.lists(MOMENT_PROBS, min_size=len(kept), max_size=len(kept)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        counts = CountDistribution(kind, kept, tuple(probs), cfg)
    return counts, draw(st.sampled_from(list(orders)))


class TestMomentScalarsFromCounts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(moment_cases())
    def test_match_the_outcome_loops(self, case):
        counts, order = case
        got = MOMENT_FROM_COUNTS[counts.kind](counts, order)
        want = LOOP_MOMENTS[counts.kind](counts, order)
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_k1_pnr_equals_onoff_distribution():
    rng = np.random.default_rng(41)
    for bins in (2, 4):
        pnr_cfg = DetectorConfig.pnr(bins, 1, 0.55, 0.01)
        onoff_cfg = DetectorConfig.onoff(bins, 0.55, 0.01)
        for _ in range(3):
            state = random_cat(rng)
            joint = pnr_distribution(state, pnr_cfg)
            clicks = click_distribution(state, onoff_cfg)
            for (n0, n1), p in joint.as_dict.items():
                assert p == pytest.approx(clicks.prob(n1), abs=1e-12)


def test_product_form_matches_expanded_expressions():
    # the stable product-form evaluator must agree with the expectation of
    # the binomially expanded expression wherever the latter is well
    # conditioned (moderate amplitudes)
    from clickwitness.detectors import povm_product_value
    from clickwitness.states import expect

    rng = np.random.default_rng(61)
    onoff = DetectorConfig.onoff(5, 0.6, 0.02)
    pnr = DetectorConfig.pnr(4, 2, 0.6, 0.02)
    for _ in range(5):
        state = random_cat(rng, max_abs2=4.0)
        for k in range(onoff.bins + 1):
            expanded = expect(state, expanded_povm_product(
                1, (onoff.bins - k, k), onoff.gamma_rate, onoff.dark))
            stable = povm_product_value(state, onoff, (onoff.bins - k, k))
            assert stable == pytest.approx(expanded, rel=1e-9, abs=1e-12)
        for m in range(onoff.bins + 1):
            expanded = expect(state, expanded_povm_product(
                1, (0, m), onoff.gamma_rate, onoff.dark))
            assert povm_product_value(state, onoff, (0, m)) == pytest.approx(
                expanded, rel=1e-9, abs=1e-12
            )
        for exponents in ((1, 1, 2), (2, 0, 0), (0, 1, 1)):
            expanded = expect(state, expanded_povm_product(
                pnr.levels, exponents, pnr.gamma_rate, pnr.dark))
            assert povm_product_value(state, pnr, exponents) == pytest.approx(
                expanded, rel=1e-9, abs=1e-12
            )


def test_stacked_povm_products_match_each_state():
    # large |alpha|^2 next to small ones puts both branches of pi_K in one call
    rng = np.random.default_rng(67)
    states = [make_cat(0.0, "even"), coherent_state(5.0), random_cat(rng),
              make_cat(0.05, "odd")]
    stack = CoherentStack(states)
    for cfg, exponents in (
        (DetectorConfig.onoff(5, 0.6, 0.02), (3, 2)),
        (DetectorConfig.pnr(4, 2, 0.6, 0.02), (1, 1, 2)),
    ):
        got = povm_product_value(stack, cfg, exponents)
        assert got.shape == (len(states),)
        for value, state in zip(got, states):
            assert value == pytest.approx(
                povm_product_value(state, cfg, exponents), rel=1e-14, abs=1e-15
            )


def test_overflowing_product_raises():
    # exp(-y) with y = -|alpha|^2 overflows for the cross terms at |alpha|^2 = 800
    with pytest.raises(OverflowError):
        povm_product_value(make_cat(math.sqrt(800.0), "odd"),
                           DetectorConfig.onoff(1, 1.0), (0, 1))


def test_distributions_depend_on_eta_beta2_product_only():
    # scaling invariance: (eta, |b|^2) enters only through eta |b|^2
    state_a = coherent_state(math.sqrt(2.0))
    state_b = coherent_state(1.0)
    for make_cfg, build in (
        (lambda eta: DetectorConfig.photoelectric(eta),
         lambda s, c: photo_distribution(s, c, n_max=30)),
        (lambda eta: DetectorConfig.onoff(4, eta), click_distribution),
        (lambda eta: DetectorConfig.pnr(4, 2, eta), pnr_distribution),
    ):
        da = build(state_a, make_cfg(0.5))
        db = build(state_b, make_cfg(1.0))
        assert da.probs == pytest.approx(db.probs, rel=1e-12, abs=1e-14)


def _exponent_rows(cfg):
    """Every tuple of K + 1 nonnegative exponents that sums to at most N."""
    levels = 1 if cfg.levels is None else cfg.levels
    return [
        row for row in itertools.product(range(cfg.bins + 1), repeat=levels + 1)
        if sum(row) <= cfg.bins
    ]


@pytest.mark.parametrize("cfg", [
    DetectorConfig.onoff(5, 0.9),
    DetectorConfig.onoff(3, 0.9, 0.05),
    DetectorConfig.pnr(4, 2, 0.9),
    DetectorConfig.pnr(3, 3, 0.9, 0.05),
], ids=["onoff", "onoff-dark", "pnr-k2", "pnr-k3-dark"])
def test_batched_povm_products_equal_single_calls(cfg):
    # the grid puts |y| on both sides of 1, so both branches of pi_K occur
    rng = np.random.default_rng(71)
    cats = [make_cat(math.sqrt(s), parity)
            for s in (0.02, 0.7, 4.0, 30.0) for parity in ("even", "odd")]
    stack = CoherentStack(cats + [random_cat(rng, max_abs2=30.0) for _ in range(4)])
    y = np.abs(cfg.gamma_rate * stack.x[..., 0] + cfg.dark)
    assert (y < 1.0).any() and (y > 1.0).any()
    rows = _exponent_rows(cfg)
    batched = povm_product_value(stack, cfg, rows)
    assert len(batched) == len(rows)
    for row, value in zip(rows, batched):
        assert np.array_equal(value, povm_product_value(stack, cfg, row))


@pytest.mark.parametrize("state", [
    make_cat(1.3, "odd"),
    random_coherent_mixture(np.random.default_rng(73)),
    FockVector((0.6, 0.0, 0.8)),
], ids=["superposition", "mixture", "fock"])
def test_batched_povm_products_equal_single_calls_per_state_type(state):
    for cfg in (DetectorConfig.onoff(4, 0.7, 0.02), DetectorConfig.pnr(4, 2, 0.7, 0.02)):
        rows = _exponent_rows(cfg)
        batched = povm_product_value(state, cfg, rows)
        assert batched == [povm_product_value(state, cfg, row) for row in rows]


@st.composite
def row_kernel_cases(draw):
    """(state, config, rows) on the product-form route, rows in any order.

    The state is a stack, a one-point superposition or a mixture of them;
    amplitudes up to |alpha|^2 = 40 put |y| on both sides of 1.
    """
    levels = draw(st.sampled_from([1, 2, 3]))
    bins = draw(st.integers(1, 12 if levels == 1 else 6))
    eta = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    dark = draw(st.sampled_from([0.0, 0.02, 1.5]))
    cfg = (DetectorConfig.onoff(bins, eta, dark) if levels == 1
           else DetectorConfig.pnr(bins, levels, eta, dark))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    makers = [lambda: random_cat(rng, max_abs2=40.0),
              lambda: random_coherent(rng, max_abs2=40.0),
              lambda: random_superposition(rng, max_abs2=20.0),
              lambda: make_cat(0.1, "odd")]
    states = [makers[i]() for i in draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))]
    form = draw(st.sampled_from(["stack", "single", "mixture"]))
    if form == "stack":
        state = CoherentStack(states)
    elif form == "single":
        state = states[0]
    else:
        weights = rng.dirichlet(np.ones(len(states) + 1))
        state = Mixture(tuple(zip(weights.tolist(), states + [coherent_state(0.3)])))
    rows = draw(st.lists(st.sampled_from(_exponent_rows(cfg)), min_size=1, max_size=12))
    return state, cfg, rows


def _bits(values):
    return [(type(v), np.asarray(v).tobytes()) for v in values]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(row_kernel_cases())
def test_one_array_pass_equals_the_row_loop_bit_for_bit(case):
    state, cfg, rows = case
    want = row_povm_values(state, cfg, rows)
    assert _bits(povm_product_value(state, cfg, rows)) == _bits(want)
    assert _bits([povm_product_value(state, cfg, rows[0])]) == _bits(want[:1])


def _per_label(stack, request):
    """The bits of ``request`` on ``stack``, one bytes string per state label.

    A request is a kernel call (config, rows) or per-mode expressions; a
    plain (G, C) stack is one label.
    """
    if isinstance(request[0], DetectorConfig):
        values = np.array(povm_product_value(stack, *request))
    else:
        values = expect(stack, request)[None]
    if stack.weights.ndim == 2:
        values = values[:, None]
    return [np.ascontiguousarray(values[:, k]).tobytes() for k in range(values.shape[1])]


@st.composite
def labelled_cases(draw):
    """A stack of 1-3 state labels, one stack per label built alone, requests and calls.

    The labels are cats of drawn parities from one ``cat_stack`` call, each
    also built alone by ``cat_stack``, or complex weightings of one set of
    random complex two-component amplitudes, each also a plain stack, in 1-3
    modes.  Requests are kernel calls (one mode only) and per-mode
    expressions; the second of each kind differs from the first in one
    part, so that a stale factor memo would show.  Calls name a request, in
    any order.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    modes, points = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    shape = (points, modes)
    amplitudes = np.sqrt(rng.uniform(0.01, 12.0, shape)) * np.exp(
        2j * np.pi * rng.uniform(size=shape))
    if draw(st.booleans()):
        parities = draw(st.lists(st.sampled_from(["even", "odd"]), min_size=1, max_size=3))
        stack = cat_stack(amplitudes, parities)
        alone = [cat_stack(amplitudes, (parity,)) for parity in parities]
    else:
        components = np.stack([amplitudes, amplitudes * np.exp(
            2j * np.pi * rng.uniform(size=shape))], axis=1)
        labels = draw(st.integers(1, 3))
        weights = (rng.normal(size=(labels, points, 2))
                   + 1j * rng.normal(size=(labels, points, 2)))
        stack = CoherentStack.from_arrays(weights, components)
        alone = [CoherentStack.from_arrays(w, components) for w in weights]
    exprs = [random_noexpr(rng) for _ in range(modes)]
    other = list(exprs)
    other[draw(st.integers(0, modes - 1))] = random_noexpr(rng)
    requests = [tuple(exprs), tuple(other)]
    if modes == 1:
        levels = draw(st.sampled_from([1, 2, 3]))
        bins = draw(st.integers(1, 8 if levels == 1 else 4))
        eta, dark = draw(st.floats(0.05, 1.0)), draw(st.sampled_from([0.0, 0.02, 0.4]))
        cfg = (DetectorConfig.onoff(bins, eta, dark) if levels == 1
               else DetectorConfig.pnr(bins, levels, eta, dark))
        rows = draw(st.lists(st.sampled_from(_exponent_rows(cfg)), min_size=1, max_size=8))
        change = draw(st.sampled_from(["dark", "efficiency"]))
        moved = dataclasses.replace(cfg, **{change: getattr(cfg, change) * 0.5 + 0.01})
        requests += [(cfg, rows), (moved, rows[::-1])]
    calls = draw(st.lists(st.integers(0, len(requests) - 1), min_size=2, max_size=8))
    return stack, alone, requests, calls


@settings(max_examples=80, deadline=None, derandomize=True)
@given(labelled_cases())
def test_labelled_stacks_give_the_bits_of_stacks_built_alone(case):
    stack, alone, requests, calls = case
    assert [np.ascontiguousarray(pair).tobytes() for pair in stack.pair] == [
        np.ascontiguousarray(one.pair.reshape(stack.pair.shape[1:])).tobytes() for one in alone]
    for k in calls:
        assert _per_label(stack, requests[k]) == [
            bits for one in alone for bits in _per_label(one, requests[k])]


@pytest.mark.parametrize("build", [
    lambda: make_cat(1.2, "odd"),
    lambda: CoherentStack([make_cat(0.4, "even"), make_cat(1.9, "odd")]),
    lambda: StateInput("cat", parity="odd").stack((0.1, 2.0, 5.0))[1],
    lambda: StateInput("coherent").stack((0.1, 2.0))[1],
    lambda: StateInput("cat", parity="both").stack((0.1, 2.0, 5.0))[1],
], ids=["make_cat", "stack", "one-parity-input", "coherent-input", "both-parity-input"])
def test_a_stack_without_siblings_keeps_no_product(build):
    # a kernel call keeps nothing on its stack, which holds the weights of
    # every label: the only memo left is expect's per-mode factors
    state = build()
    stack = state if isinstance(state, CoherentStack) else CoherentStack([state])
    before = dict(vars(stack))
    for cfg in (DetectorConfig.onoff(5, 0.5), DetectorConfig.pnr(4, 2, 0.5, 0.02)):
        values = povm_product_value(stack, cfg, _exponent_rows(cfg))
        assert all(value.shape == stack.weights.shape[:-1] for value in values)
    assert vars(stack).keys() == before.keys() and stack._factors == {}
    assert all(vars(stack)[key] is value for key, value in before.items())


def test_row_powers_keep_the_bits_of_one_row_at_a_time():
    # numpy squares for a Python int exponent 2 and takes the complex power
    # otherwise; a row whose exponent is 0 keeps its value, -0.0, inf and
    # nan included
    rng = np.random.default_rng(79)
    shape = (4, 2, 2)
    base = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * np.exp(
        rng.uniform(-40.0, 40.0, shape))
    poly = rng.normal(size=(32,) + shape) + 1j * rng.normal(size=(32,) + shape)
    specials = [complex(-0.0, -0.0), complex(math.inf, 1.0), complex(math.nan, 0.0)]
    base.flat[:3] = specials
    poly.reshape(32, -1)[:, :3] = specials
    exponents = np.arange(32)[:, None, None, None]
    got = poly.copy()
    with np.errstate(all="ignore"):
        _times_power(got, base, exponents)
        want = [poly[0]] + [poly[e] * base ** e for e in range(1, 32)]
    assert got.tobytes() == np.array(want).tobytes()


def test_the_first_failing_row_is_reported():
    # at |alpha|^2 = 1500 the rows (0, 2), (0, 3) and (1, 2) overflow, each
    # next to a different finite value at |alpha|^2 = 1
    stack = CoherentStack([make_cat(1.0, "odd"), make_cat(math.sqrt(1500.0), "odd")])
    cfg = DetectorConfig.onoff(3, 1.0)
    messages = {}
    for row in ((0, 3), (0, 2), (1, 2)):
        with pytest.raises(OverflowError) as info:
            row_povm_values(stack, cfg, [row])
        messages[row] = str(info.value)
    assert len(set(messages.values())) == 3
    for rows in ([(1, 0), (0, 3), (0, 2), (1, 2)], [(1, 1), (1, 2), (0, 2), (0, 3)]):
        first = next(row for row in rows if row in messages)
        with pytest.raises(OverflowError, match=re.escape(messages[first]) + "$"):
            povm_product_value(stack, cfg, rows)


class TestIntegerExponents:
    # an exponent that operator.index rejects raises on every route instead
    # of being truncated to an integer
    ONOFF4 = DetectorConfig.onoff(4, 0.6)
    PNR42 = DetectorConfig.pnr(4, 2, 0.6)
    CAT = make_cat(1.0, "odd")

    @pytest.mark.parametrize("m", [1.9, 2.0, np.float64(1.0)])
    def test_click_moment_routes(self, m):
        message = re.escape(f"exponent {m!r} is not an integer")
        with pytest.raises(ValueError, match=message):
            click_moment(self.CAT, self.ONOFF4, m)
        counts = click_distribution(self.CAT, self.ONOFF4)
        with pytest.raises(ValueError, match=message):
            click_moment_from_counts(counts, m)

    def test_pnr_moment_routes(self):
        with pytest.raises(ValueError, match="exponent 0.5 is not an integer"):
            pnr_moment(self.CAT, self.PNR42, (0.5, 1.5, 0))
        counts = pnr_distribution(self.CAT, self.PNR42)
        with pytest.raises(ValueError, match="exponent 0.5 is not an integer"):
            pnr_moment_from_counts(counts, (0.5, 1.5, 0))

    def test_factorial_moment_routes(self):
        cfg = DetectorConfig.photoelectric(0.6)
        with pytest.raises(ValueError, match="exponent 1.9 is not an integer"):
            factorial_moment(self.CAT, cfg, 1.9)
        counts = photo_distribution(self.CAT, cfg, n_max=30)
        with pytest.raises(ValueError, match="exponent 1.9 is not an integer"):
            factorial_moment_from_counts(counts, 1.9)

    def test_kernel_rejects_any_fractional_row(self):
        with pytest.raises(ValueError, match="exponent 1.5 is not an integer"):
            povm_product_value(self.CAT, self.ONOFF4, [(1, 1), (1.5, 0)])

    def test_integer_types_are_accepted(self):
        assert click_moment(self.CAT, self.ONOFF4, np.int64(2)) == click_moment(
            self.CAT, self.ONOFF4, 2)
        counts = click_distribution(self.CAT, self.ONOFF4)
        assert click_moment_from_counts(counts, np.int64(2)) == click_moment_from_counts(
            counts, 2)


# --------------------------------------------------------------------------
# the photon-number route of Fock-basis inputs

DARK_COUNTS = [0.0, 1e-12, 0.05]


@st.composite
def fock_vectors(draw, top=8):
    """A normalized Fock vector; many of its coefficients are exact zeros."""
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=1,
                        max_size=top))
    norm = math.sqrt(sum(c * c for c in raw))
    assume(norm > 1e-3)
    return FockVector(tuple(c / norm for c in raw))


@st.composite
def number_cases(draw):
    """(state, config, rows): a Fock vector or mixture and rows with sum <= N."""
    bins, levels = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    eta = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
    dark = draw(st.sampled_from(DARK_COUNTS))
    if levels == 1 and draw(st.booleans()):
        cfg = DetectorConfig.onoff(bins, eta, dark)
    else:
        cfg = DetectorConfig.pnr(bins, levels, eta, dark)
    if draw(st.booleans()):
        state = draw(fock_vectors())
    else:
        parts = draw(st.lists(fock_vectors(top=6), min_size=2, max_size=3))
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(parts),
                                max_size=len(parts)))
        total = sum(weights)
        state = Mixture(tuple((w / total, part) for w, part in zip(weights, parts)))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        left, row = bins, []
        for _ in range(levels + 1):
            row.append(draw(st.integers(0, left)))
            left -= row[-1]
        rows.append(tuple(draw(st.permutations(row))))
    return state, cfg, rows


def _number_reference(state, cfg, row):
    """The exact (Fraction) or 50-digit (mpmath) reference of a Fock input."""
    if isinstance(state, Mixture):
        return sum(Fraction(p) * _number_reference(part, cfg, row) if cfg.dark == 0.0
                   else p * _number_reference(part, cfg, row) for p, part in state.parts)
    return fock_povm_reference(state.probabilities().tolist(), cfg, row)


class TestNumberRoute:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(number_cases())
    def test_matches_the_exact_references(self, case):
        # Fractions for nu = 0, 50 mpmath digits for nu > 0; exact zeros stay zero
        state, cfg, rows = case
        for row, got in zip(rows, povm_product_value(state, cfg, rows)):
            want = _number_reference(state, cfg, row)
            if want == 0:
                assert got == 0.0, (row, got)
            else:
                assert abs(got - float(want)) <= 1e-14 * abs(float(want)), (row, got, want)

    @pytest.mark.parametrize("cfg", [
        DetectorConfig.onoff(5, 0.6, 0.02),
        DetectorConfig.pnr(4, 2, 0.6, 0.02),
        DetectorConfig.pnr(5, 3, 0.6, 0.02),
    ], ids=["onoff5", "pnr4_2", "pnr5_3"])
    @pytest.mark.parametrize("alpha2", [0.1, 1.0, 9.0, 60.0])
    def test_fock_expansion_of_a_cat_matches_the_pair_sums(self, cfg, alpha2):
        rows = _exponent_rows(cfg)
        for parity in ("even", "odd"):
            cat = make_cat(math.sqrt(alpha2), parity)
            want = povm_product_value(cat, cfg, rows)
            got = povm_product_value(to_fock(cat), cfg, rows)
            scale = max(abs(v) for v in want)
            worst = max(abs(g - w) for g, w in zip(got, want))
            assert worst <= 1e-12 * scale, (parity, worst, scale)

    def test_highest_fock_state_is_finite(self):
        coeffs = [0.0] * 961
        coeffs[960] = 1.0
        state = FockVector(tuple(coeffs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cfg in (DetectorConfig.onoff(8, 0.7, 0.01), DetectorConfig.pnr(8, 2, 0.7, 0.01)):
                values = povm_product_value(state, cfg, _exponent_rows(cfg))
                # probabilities, up to the rounding of their last sum
                assert all(math.isfinite(v) and 0.0 <= v <= 1.0 + 1e-15 for v in values)
            # one bin dark: every photon misses it and it has no dark count
            value = povm_product_value(state, DetectorConfig.onoff(8, 0.7, 0.01), (1, 0))
        assert value == pytest.approx((1.0 - 0.7 / 8) ** 960 * math.exp(-0.01), rel=1e-12)

    def test_more_designated_bins_than_the_detector_has_are_rejected(self):
        with pytest.raises(ValueError, match="at most N=4 bins"):
            povm_product_value(FockVector((0.6, 0.0, 0.8)), DetectorConfig.onoff(4, 0.5),
                               (3, 2))

    @pytest.mark.parametrize("state", [
        make_cat(1.0, "odd"),
        coherent_state(0.5),
        CoherentStack([make_cat(1.0, "odd"), coherent_state(0.5)]),
    ], ids=["cat", "coherent", "stack"])
    def test_coherent_inputs_reject_rows_beyond_n_too(self, state):
        with pytest.raises(ValueError, match="at most N=4 bins"):
            povm_product_value(state, DetectorConfig.onoff(4, 0.5), [(0, 4), (3, 2)])
        with pytest.raises(ValueError, match="at most N=2 bins"):
            pnr_moment(state, DetectorConfig.pnr(2, 2, 1.0), (0, 0, 3))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_fock_expansion_agrees_with_the_pair_sums(self, data):
        # both routes, every row of the detector, within 1e-13 of the largest entry
        draw = data.draw
        bins, levels = draw(st.sampled_from([(n, 1) for n in (1, 2, 5, 12, 31)]
                                            + [(n, k) for n in (1, 3, 8) for k in (1, 2, 3)]))
        eta = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
        dark = draw(st.sampled_from([0.0, 0.02]))
        cfg = (DetectorConfig.onoff(bins, eta, dark) if levels == 1 and draw(st.booleans())
               else DetectorConfig.pnr(bins, levels, eta, dark))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        kind = draw(st.sampled_from(["cat", "coherent", "superposition"]))
        if kind == "cat":
            state = random_cat(rng, max_abs2=60.0)
        elif kind == "coherent":
            state = random_coherent(rng, max_abs2=60.0)
        else:
            state = random_superposition(rng, max_abs2=20.0)
            assume(max(abs(a) ** 2 for (a,) in state.amplitudes) <= 60.0)
        rows = _exponent_rows(cfg)
        got = povm_product_value(to_fock(state), cfg, rows)
        want = [pair_povm_product(state, cfg.gamma_rate, cfg.dark, levels, row) for row in rows]
        scale = max(abs(w) for w in want)
        worst = max(abs(g - w) for g, w in zip(got, want))
        assert worst <= 1e-13 * scale, (kind, cfg, worst, scale)

    def test_pnr_povm_terms_are_the_expanded_operators(self):
        for levels in (1, 2, 3):
            cfg = DetectorConfig.pnr(4, levels, 0.7, 0.01)
            for j, op in enumerate(pnr_povm(cfg)):
                unit = tuple(int(i == j) for i in range(levels + 1))
                want = expanded_povm_product(levels, unit, cfg.gamma_rate, cfg.dark)
                assert (op.terms, op.rate, op.offset) == (want.terms, want.rate, want.offset)
        last = pnr_povm(DetectorConfig.pnr(4, 2, 0.5))[2]
        assert last.terms == ((1.0, 0, 0.0), (-1.0, 0, 1.0), (-1.0, 1, 1.0))

    @pytest.mark.parametrize("dark", [800.0, math.inf])
    def test_dark_counts_beyond_float_range_are_rejected(self, dark):
        # exp(-dark) underflows, so no dark-count probability is representable
        with pytest.raises(ValueError, match="out of range"):
            povm_product_value(FockVector((0.6, 0.0, 0.8)), DetectorConfig.onoff(4, 0.5, dark),
                               (0, 2))
