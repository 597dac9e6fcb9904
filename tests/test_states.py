import math
import re

import numpy as np
import pytest

from clickwitness.scenarios import StateInput, SweepSpec
from clickwitness.states import (
    CoherentStack,
    CoherentSuperposition,
    FockVector,
    Mixture,
    NOExpr,
    cat_weight,
    coherent_state,
    expect,
    expect_fock,
    make_cat,
    pair_sum,
    to_fock,
)
from helpers import (
    random_cat,
    random_fock_mixture,
    random_fock_vector,
    random_noexpr,
    random_superposition,
    stack_of,
)
from oracles import (
    expect_fock_product,
    naive_product_terms,
    scalar_make_cat,
    series_coefficients,
    series_expect_fock,
    series_value,
    value_with_exponent,
)


def number_power(m, rate=1.0):
    return NOExpr.monomial(1.0, m, 0.0, rate, 0.0)


class TestNOExpr:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            NOExpr.monomial(1.0, 0, 0.0, -0.1)


class TestStateValidation:
    def test_unnormalized_superposition_rejected(self):
        with pytest.raises(ValueError):
            CoherentSuperposition((0.5 + 0j,), ((1.0 + 0j,),))

    def test_unnormalized_fock_rejected(self):
        with pytest.raises(ValueError):
            FockVector((1.0, 1.0))

    def test_mixture_probabilities_must_sum_to_one(self):
        part = coherent_state(1.0)
        with pytest.raises(ValueError):
            Mixture(((0.5, part), (0.4, part)))
        with pytest.raises(ValueError):
            Mixture(((1.5, part), (-0.5, part)))


class TestMakeCat:
    def test_zero_amplitude_even_cat_is_vacuum(self):
        cat = make_cat(0.0, "even")
        assert len(cat.weights) == 1
        assert cat.weights[0] == 1.0 + 0j
        assert cat.amplitudes == ((0j,),)

    def test_zero_amplitude_odd_cat_rejected(self):
        with pytest.raises(ValueError):
            make_cat(0.0, "odd")

    def test_odd_cat_weights(self):
        cat = make_cat(1.0, "odd")
        expected = 1.0 / math.sqrt(2.0 * (1.0 - math.exp(-2.0)))
        assert cat.weights[0].real == pytest.approx(expected, rel=1e-14)
        assert cat.weights[1].real == pytest.approx(-expected, rel=1e-14)

    @pytest.mark.parametrize("pumped", [1e-2, 1e-8, 1e-12, 1e-17])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cat_weight_matches_50_digit_reference(self, pumped, sign):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            x = mpmath.mpf(pumped)
            exact = 1 / mpmath.sqrt(2 * (1 + sign * mpmath.exp(-2 * x)))
        assert cat_weight(pumped, sign) == pytest.approx(float(exact), rel=1e-14)

    def test_two_mode_cat_is_normalized(self):
        # construction succeeds only if the overlap-weighted norm is 1
        cat = make_cat((1.0, 1.0), "even")
        assert cat.modes == 2

    def test_scalar_alpha_replicates_over_modes(self):
        cat = make_cat(0.7, "odd", modes=3)
        assert cat.amplitudes[0] == (0.7 + 0j,) * 3


class TestExpect:
    def test_coherent_number_moments(self):
        beta2 = 2.0
        state = coherent_state(math.sqrt(beta2))
        for m in range(5):
            assert expect(state, number_power(m)) == pytest.approx(
                beta2 ** m, rel=1e-13
            )

    def test_even_cat_matches_two_component_identity(self):
        # <:h(n):> = [h(s) + h(-s) exp(-2s)] / (1 + exp(-2s)) for h(x) = x^2
        s = 1.0
        cat = make_cat(math.sqrt(s), "even")
        got = expect(cat, number_power(2))
        expected = (s ** 2 + s ** 2 * math.exp(-2 * s)) / (1 + math.exp(-2 * s))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_cross_term_identity_for_general_h(self):
        # the two-component formula holds for arbitrary term data
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = rng.uniform(0.1, 6.0)
            expr = random_noexpr(rng)
            for parity, sign in (("even", 1.0), ("odd", -1.0)):
                cat = make_cat(math.sqrt(s), parity)
                h_plus = value_with_exponent(expr, s).real
                h_minus = value_with_exponent(expr, -s).real
                expected = (h_plus + sign * h_minus * math.exp(-2 * s)) / (
                    1 + sign * math.exp(-2 * s)
                )
                assert expect(cat, expr) == pytest.approx(
                    expected, rel=1e-12, abs=1e-12
                )

    def test_odd_cat_against_fock_oracle(self):
        rng = np.random.default_rng(11)
        cat = make_cat(1.3, "odd")
        fock = to_fock(cat)
        for _ in range(10):
            expr = random_noexpr(rng)
            assert expect(cat, expr) == pytest.approx(
                expect_fock(fock, expr), abs=1e-10
            )

    def test_fock_input_redirected(self):
        # a Fock vector gives the bits of expect_fock, its one expression
        # passed alone or as a sequence; a Fock/coherent mixture gives the
        # bits of the weighted sum of its parts
        rng = np.random.default_rng(13)
        for _ in range(10):
            fock, coherent = random_fock_vector(rng), random_superposition(rng)
            expr = random_noexpr(rng)
            want = expect_fock(fock, expr)
            assert expect(fock, expr).hex() == expect(fock, [expr]).hex() == want.hex()
            mix = Mixture(((0.25, fock), (0.75, coherent)))
            assert expect(mix, expr).hex() == (0.25 * want + 0.75 * expect(coherent, expr)).hex()

    def test_mixture_linearity(self):
        a = coherent_state(0.5)
        b = make_cat(1.0, "even")
        mix = Mixture(((0.3, a), (0.7, b)))
        expr = NOExpr(((1.0, 2, 0.7),), 0.6)
        direct = 0.3 * expect(a, expr) + 0.7 * expect(b, expr)
        assert expect(mix, expr) == pytest.approx(direct, rel=1e-14, abs=1e-14)


class TestExpectFock:
    def test_single_photon_extinction(self):
        # <1|:exp(-n):|1> = (1 - 1)^1 = 0
        one = FockVector((0.0, 1.0))
        assert expect_fock(one, NOExpr(((1.0, 0, 1.0),), 1.0)) == 0.0

    def test_single_photon_intensity_term(self):
        # <1|:n exp(-n):|1> = 1!/0! (1-1)^0 = 1
        one = FockVector((0.0, 1.0))
        assert expect_fock(one, NOExpr(((1.0, 1, 1.0),), 1.0)) == pytest.approx(1.0)

    def test_vacuum_sees_constant_terms_only(self):
        vac = FockVector((1.0,))
        expr = NOExpr(((2.0, 0, 0.5), (5.0, 3, 1.0)), 0.8, 0.0)
        assert expect_fock(vac, expr) == pytest.approx(2.0)

    def test_superposition_input_redirected(self):
        with pytest.raises(TypeError):
            expect_fock(coherent_state(1.0), number_power(1))

    def test_matches_series_oracle_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            state = random_fock_vector(rng)
            expr = random_noexpr(rng)
            oracle = series_expect_fock(state.probabilities().tolist(), expr)
            assert expect_fock(state, expr) == pytest.approx(
                oracle, rel=1e-10, abs=1e-10
            )

    def test_dark_count_offset_expansion(self):
        rng = np.random.default_rng(9)
        state = random_fock_vector(rng, top=8)
        expr = NOExpr(((1.0, 2, 1.0),), 0.5, 0.2)
        oracle = series_expect_fock(state.probabilities().tolist(), expr)
        assert expect_fock(state, expr) == pytest.approx(oracle, rel=1e-12)


class TestAlgebraHomomorphism:
    # the normally ordered product :f g: is built here from the unmerged
    # term products; the package keeps no expression arithmetic
    def test_product_expression_equals_pointwise_product(self):
        # on 20 random Fock mixtures, the product's expectation is that of
        # the Cauchy product of the factors' monomial series
        rng = np.random.default_rng(100)
        for _ in range(20):
            mix = random_fock_mixture(rng)
            rate = rng.uniform(0.3, 1.0)
            e1 = NOExpr(random_noexpr(rng).terms, rate, 0.0)
            e2 = NOExpr(random_noexpr(rng).terms, rate, 0.0)
            product = NOExpr(tuple(naive_product_terms(e1, e2)), rate, 0.0)
            want = 0.0
            for p, part in mix.parts:
                top = part.n_max
                a, b = series_coefficients(e1, top), series_coefficients(e2, top)
                coeffs = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(top + 1)]
                want += p * series_value(part.probabilities().tolist(), coeffs)
            assert expect_fock(mix, product) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_products_factorize_on_coherent_states(self):
        rng = np.random.default_rng(101)
        state = coherent_state(1.2)
        for _ in range(10):
            rate = rng.uniform(0.3, 1.0)
            e1 = NOExpr(random_noexpr(rng).terms, rate, 0.0)
            e2 = NOExpr(random_noexpr(rng).terms, rate, 0.0)
            product = NOExpr(tuple(naive_product_terms(e1, e2)), rate, 0.0)
            assert expect(state, product) == pytest.approx(
                expect(state, e1) * expect(state, e2), rel=1e-11, abs=1e-11
            )


class TestBackendEquivalence:
    def test_cats_and_superpositions(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            state = random_cat(rng) if rng.integers(2) else random_superposition(rng)
            fock = to_fock(state)
            expr = random_noexpr(rng)
            assert expect(state, expr) == pytest.approx(
                expect_fock(fock, expr), abs=1e-10
            )

    def test_to_fock_rejects_heavy_truncation(self):
        with pytest.raises(ValueError):
            to_fock(coherent_state(math.sqrt(6.0)), n_max=5)

    @pytest.mark.parametrize("alpha2", [105.0, 120.0, 200.0])
    def test_to_fock_keeps_large_amplitudes(self, alpha2):
        # one minus the kept mass is roundoff here; the dropped terms' bound is not
        fock = to_fock(coherent_state(math.sqrt(alpha2)))
        probs = fock.probabilities()
        assert float(np.arange(len(probs)) @ probs) == pytest.approx(alpha2, rel=1e-10)

    def test_product_oracle(self):
        betas = (0.7, 1.1)
        state = coherent_state(betas, modes=2)
        exprs = [NOExpr.monomial(1.0, 2, 0.3, 0.8, 0.0) for _ in betas]
        per_mode = [to_fock(coherent_state(b)) for b in betas]
        assert expect(state, exprs) == pytest.approx(
            expect_fock_product(per_mode, exprs), rel=1e-10
        )


class TestCoherentStack:
    def states(self, rng):
        # the vacuum has one component, the others two: the stack pads it
        return [
            make_cat(0.0, "even"),
            coherent_state(0.3),
            random_superposition(rng),
            random_cat(rng),
        ]

    def test_stack_matches_each_state(self):
        rng = np.random.default_rng(8)
        states = self.states(rng)
        stack = stack_of(states)
        for _ in range(5):
            expr = random_noexpr(rng)
            got = expect(stack, expr)
            assert got.shape == (len(states),)
            for value, state in zip(got, states):
                assert value == pytest.approx(expect(state, expr), rel=1e-14, abs=1e-15)

    def test_a_superposition_keeps_its_one_point_stack(self):
        rng = np.random.default_rng(9)
        cat = make_cat(1.3, "odd")
        assert cat.stack.weights.shape == (1, 2) and cat.stack.amplitudes.shape == (1, 2, 1)
        # the stack takes no part in comparison, hashing or repr
        twin = make_cat(1.3, "odd")
        assert cat == twin and hash(cat) == hash(twin) and cat.stack is not twin.stack
        assert "stack" not in repr(cat)
        expr = random_noexpr(rng)
        assert expect(cat, expr) == float(expect(stack_of([cat]), expr)[0])
        # expect evaluated the state on the stack it keeps
        assert list(cat.stack._factors) == [(0, expr)]

    @pytest.mark.parametrize("modes", [1, 3])
    def test_memoized_factors_are_read_only_and_fresh(self, modes):
        rng = np.random.default_rng(11 + modes)
        states = [make_cat(tuple(rng.normal(size=modes) + 1j * rng.normal(size=modes)),
                           parity) for parity in ("even", "odd", "odd")]
        exprs = [random_noexpr(rng) for _ in range(3)]
        # the same expressions on other modes, in other orders, and repeated:
        # a memo keyed by mode alone, or by position, returns stale factors
        calls = [exprs[0], exprs[1], exprs[0], exprs[2]] if modes == 1 else [
            (exprs[0], exprs[1], exprs[2]), (exprs[1], exprs[0], exprs[2]),
            (exprs[2], exprs[2], exprs[0]), (exprs[0], exprs[2], exprs[1]),
            (exprs[0], exprs[1], exprs[2])]
        stack = stack_of(states)
        for expr in calls:
            got = expect(stack, expr)
            want = expect(stack_of(states), expr)
            assert got.tobytes() == want.tobytes()
            # an expectation is a fresh array of its own
            assert got.flags.writeable and expect(stack, expr) is not got
            for mode, part in enumerate(expr if modes > 1 else (expr,)):
                factor = stack.factor(mode, part)
                assert not factor.flags.writeable and stack.factor(mode, part) is factor
                with pytest.raises(ValueError, match="read-only"):
                    factor += 1.0


class TestArrayStacks:
    """``StateInput.stack`` against the stack of the states ``build`` makes."""

    LABELLED = ("weights", "pair")
    SHARED = ("amplitudes", "x", "overlap")
    SWEEPS = (
        SweepSpec(start=1e-2, stop=1e1, points=200),
        SweepSpec(start=1e-3, stop=20.0, points=37),
        SweepSpec(start=0.0, stop=3.0, points=9, scale="linear"),
    )

    @staticmethod
    def per_point(state_input, grid, modes):
        states = [state_input.build(alpha2, modes) for alpha2 in grid]
        return [
            (label, stack_of([point[k][1] for point in states]))
            for k, (label, _) in enumerate(states[0])
        ]

    @staticmethod
    def same_bits(x, y, field):
        assert x.shape == y.shape
        assert np.all(x == y), field
        # the same bits, signs of zeros included
        assert np.ascontiguousarray(x).tobytes() == y.tobytes(), field

    @pytest.mark.parametrize("modes", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind, parity", [
        ("coherent", None), ("cat", "even"), ("cat", "odd"), ("cat", "both"),
    ])
    @pytest.mark.parametrize("sweep", range(len(SWEEPS)))
    def test_matches_the_per_point_stack(self, kind, parity, modes, sweep):
        state_input = StateInput(kind, parity=parity)
        grid = self.SWEEPS[sweep].grid()
        if parity in ("odd", "both") and grid[0] == 0.0:
            with pytest.raises(ValueError) as want:
                self.per_point(state_input, grid, modes)
            with pytest.raises(ValueError) as got:
                state_input.stack(grid, modes)
            assert str(got.value) == str(want.value)
            return
        want = self.per_point(state_input, grid, modes)
        labels, stack = state_input.stack(grid, modes)
        assert labels == tuple(label for label, _ in want)
        assert stack.weights.shape[0] == len(labels)
        for k, (_, one) in enumerate(want):
            for field in self.LABELLED:
                self.same_bits(getattr(stack, field)[k], getattr(one, field), field)
            for field in self.SHARED:
                self.same_bits(getattr(stack, field), getattr(one, field), field)

    def test_all_vacuum_grid_is_one_component(self):
        state_input = StateInput("cat", parity="even", modes=2)
        labels, stack = state_input.stack((0.0, 0.0))
        assert labels == ("cat_even",)
        assert stack.weights.shape == (1, 2, 1)
        assert np.array_equal(stack.weights, np.ones((1, 2, 1)))

    def test_fock_input_is_returned_once(self):
        state_input = StateInput("fock", coefficients=(0.6, 0.0, 0.8))
        labels, state = state_input.stack((0.1, 0.2))
        assert labels == ("fock",) and isinstance(state, FockVector)

    def test_unnormalized_point_is_named(self, monkeypatch):
        from clickwitness import states

        def off_at_one(pumped, sign):
            weight = cat_weight(pumped, sign)
            return 1.01 * weight if pumped == 1.0 else weight

        monkeypatch.setattr(states, "cat_weight", off_at_one)
        with pytest.raises(ValueError, match=r"at 1\.0 is not normalized"):
            StateInput("cat", parity="even").stack((0.5, 1.0, 2.0))

    def test_check_normalized_names_the_first_bad_point(self):
        weights = np.array([[1.0], [1.0 + 2e-12], [2.0]], dtype=complex)
        stack = CoherentStack(weights, np.zeros((3, 1, 1), dtype=complex))
        with pytest.raises(ValueError, match=r"at 'b' is not normalized"):
            stack.check_normalized(["a", "b", "c"])
        stack = CoherentStack(weights[:1] * (1.0 + 4e-13),
                              np.zeros((1, 1, 1), dtype=complex))
        stack.check_normalized(["a"])

    def test_odd_cat_at_tiny_amplitude_is_normalized(self):
        # its weights cancel in sum_ij conj(w_i) w_j, which is taken apart
        grid = (1e-17, 1e-10, 1e-4)
        scale = np.array([[1.0], [1.0 + 1e-9], [1.0]])
        labels, stack = StateInput("cat", parity="odd").stack(grid)
        assert labels == ("cat_odd",) and stack.weights.shape[:2] == (1, len(grid))
        stack.check_normalized(grid)
        off = CoherentStack(stack.weights * scale, stack.amplitudes)
        with pytest.raises(ValueError, match=r"at 1e-10 is not normalized"):
            off.check_normalized(grid)
        # labelled: only the odd label is off, so only its norm can raise
        labels, stack = StateInput("cat", parity="both").stack(grid)
        assert labels == ("cat_even", "cat_odd")
        stack.check_normalized(grid)
        weights = stack.weights.copy()
        weights[1] *= scale
        off = CoherentStack(weights, stack.amplitudes)
        assert np.abs(off.norms()[0] - 1.0).max() <= 1e-12
        with pytest.raises(ValueError, match=r"at 1e-10 is not normalized"):
            off.check_normalized(grid)


class TestCatBuilder:
    """``make_cat``, the one-point array builder, against the scalar cat."""

    SCALARS = (0.7, -1.3, 0.4 + 0.9j, -1.1j, complex(-0.0, 2.0), 1e-8, 5.5, 1e-170, 0.0, -0.0)

    @staticmethod
    def same(got, want):
        # repr tells -0.0 from 0.0 in both parts of every complex
        assert type(got) is type(want)
        assert repr(got.weights) == repr(want.weights)
        assert repr(got.amplitudes) == repr(want.amplitudes)

    @classmethod
    def cases(cls):
        rng = np.random.default_rng(21)
        for modes in range(1, 6):
            for alpha in cls.SCALARS:
                yield alpha, modes
            yield tuple(rng.normal(size=modes) + 1j * rng.normal(size=modes)), None
            yield tuple(rng.normal(size=modes)), modes
            yield (0.0,) * (modes - 1) + (-0.3,), modes
            yield (0.0, -0.0) * modes, None

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_bit_identical_to_the_scalar_cat(self, parity):
        for alpha, modes in self.cases():
            try:
                want = scalar_make_cat(alpha, parity, modes)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    make_cat(alpha, parity, modes)
                continue
            self.same(make_cat(alpha, parity, modes), want)

    def test_vacuum_is_one_component(self):
        for modes in (1, 3):
            cat = make_cat(-0.0, "even", modes)
            assert cat.weights == (1.0,) and cat.amplitudes == ((0j,) * modes,)
            with pytest.raises(ValueError, match="undefined at zero amplitude"):
                make_cat(0.0, "odd", modes)

    def test_bad_parity_and_mode_count_rejected(self):
        with pytest.raises(ValueError, match="parity must be"):
            make_cat(1.0, "both")
        with pytest.raises(ValueError, match="2 amplitudes for modes=3"):
            make_cat((1.0, 2.0), "even", 3)

    def test_build_reads_back_the_one_point_stack(self):
        for kind, parity in (("coherent", None), ("cat", "both")):
            state_input = StateInput(kind, parity=parity)
            for modes in (1, 2, 3):
                built = state_input.build(0.8, modes)
                labels, stack = state_input.stack((0.8,), modes)
                assert [label for label, _ in built] == list(labels)
                for k, (_, state) in enumerate(built):
                    assert isinstance(state, CoherentSuperposition)
                    self.same(state, stack.superposition((k, 0)))
        for parity in ("even", "odd"):
            (_, cat), = StateInput("cat", parity=parity, modes=2).build(1.5)
            self.same(cat, scalar_make_cat(math.sqrt(0.75), parity, 2))


def photon_number_support(state, n_max=None):
    """Set {n : p_n > 1e-14} of the lossless photon-number distribution.

    Even cat states are supported on even n only, odd cats on odd n only;
    this is the parity diagnostic behind the choice of index-set class.
    """
    fock = to_fock(state, n_max)
    if isinstance(fock, Mixture):
        support: set[int] = set()
        for p, part in fock.parts:
            support |= {
                n for n, c in enumerate(part.coeffs) if p * abs(c) ** 2 > 1e-14
            }
        return support
    return {n for n, c in enumerate(fock.coeffs) if abs(c) ** 2 > 1e-14}


class TestParitySupport:
    def test_even_cat_has_even_support(self):
        support = photon_number_support(make_cat(1.0, "even"))
        assert support
        assert all(n % 2 == 0 for n in support)

    def test_odd_cat_has_odd_support(self):
        support = photon_number_support(make_cat(1.0, "odd"))
        assert support
        assert all(n % 2 == 1 for n in support)

    def test_coherent_has_full_low_support(self):
        support = photon_number_support(coherent_state(1.0))
        assert {0, 1, 2, 3, 4} <= support


def test_expect_any_dispatch():
    # expect takes any state: coherent, Fock, or a mixture of both
    expr = number_power(1)
    assert expect(coherent_state(2.0), expr) == pytest.approx(4.0, rel=1e-13)
    assert expect(FockVector((0.0, 1.0)), expr) == pytest.approx(1.0)
    mixed = Mixture(((0.5, to_fock(make_cat(1.0, "even"))), (0.5, coherent_state(1.0))))
    value = expect(mixed, expr)
    assert value == pytest.approx(
        0.5 * math.tanh(1.0) + 0.5 * 1.0, rel=1e-12
    )


class TestPairSum:
    def test_rows_give_one_value_per_grid_point(self):
        terms = np.array([[[[1.0, 2.0j], [-2.0j, 3.0]]], [[[0.5, 0.0], [0.0, -1.0]]]])
        assert pair_sum(terms).tolist() == [[4.0], [-0.5]]
        assert pair_sum(terms[0]).tolist() == [4.0]

    def test_the_first_failing_row_is_reported(self):
        # row 1 has a residual and row 2 a nan; the message names the first
        terms = np.array([[1.0, 2.0], [3.0, 4.0 + 1e-3j], [math.nan, 5.0]])[:, :, None, None]
        with pytest.raises(ArithmeticError, match=re.escape("residual: (4+0.001j)")):
            pair_sum(terms)
        message = f"expectation is not finite: {terms[2, :, 0, 0]}"
        with pytest.raises(OverflowError, match=re.escape(message) + "$"):
            pair_sum(terms[::-1])

    def test_a_non_finite_row_is_reported_before_its_residual(self):
        terms = np.array([[math.nan, 4.0 + 1e-3j]])[:, :, None, None]
        message = f"expectation is not finite: {terms[0, :, 0, 0]}"
        with pytest.raises(OverflowError, match=re.escape(message) + "$"):
            pair_sum(terms)
