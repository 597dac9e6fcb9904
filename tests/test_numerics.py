import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickwitness.numerics import (
    HalfInt,
    SymMatrix,
    binom,
    falling_factorial,
    leading_minors,
    min_eigenvalue,
    multinom,
)
from oracles import min_eig_bisection


def exact_binom_reference(n, k):
    # multiplicative formula with exact integer arithmetic
    num, den = 1, 1
    for i in range(1, k + 1):
        num *= n - k + i
        den *= i
    assert num % den == 0
    return num // den


class TestBinom:
    def test_small_values(self):
        assert binom(4, 2) == 6
        assert binom(5, 0) == 1

    def test_large_value_matches_exact_reference(self):
        assert exact_binom_reference(64, 32) == 1832624140942590534
        assert binom(64, 32) == 1832624140942590534

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binom(3, 4)
        with pytest.raises(ValueError):
            binom(65, 1)
        with pytest.raises(ValueError):
            binom(4, -1)


class TestMultinom:
    def test_degenerate_partition(self):
        assert multinom(4, [4, 0, 0]) == 1

    def test_small_partitions(self):
        assert multinom(4, [2, 1, 1]) == 12
        assert multinom(4, [1, 1, 2]) == 12

    def test_sum_mismatch(self):
        with pytest.raises(ValueError):
            multinom(4, [1, 1, 1])

    def test_matches_binomial_chain(self):
        assert multinom(10, [3, 3, 4]) == binom(10, 3) * binom(7, 3)


def test_falling_factorial():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(2, 3) == 0
    assert falling_factorial(7, 0) == 1


class TestHalfInt:
    def test_parsing(self):
        assert HalfInt.of(2).twice == 4
        assert HalfInt.of("3/2").twice == 3
        assert HalfInt.of(1.5).twice == 3
        assert HalfInt.of("2").twice == 4
        with pytest.raises(ValueError):
            HalfInt.of(0.3)

    def test_integer_detection(self):
        assert HalfInt(4).is_integer
        assert not HalfInt(3).is_integer
        assert HalfInt(4).to_int() == 2
        with pytest.raises(ValueError):
            HalfInt(3).to_int()

    def test_str(self):
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(4)) == "2"

    def test_ordering(self):
        assert HalfInt(1) < HalfInt(2) < HalfInt(4)

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
    def test_addition_exact_and_associative(self, a, b, c):
        x, y, z = HalfInt(a), HalfInt(b), HalfInt(c)
        assert (x + y).twice == a + b
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)

    @given(st.integers(-1000, 1000))
    def test_roundtrip_through_doubled_value(self, t):
        k = HalfInt(t)
        assert HalfInt.of(float(k)) == k
        assert float(k) == t / 2.0


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix([[1.0, 2.0], [2.0000001, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix([[1.0, 2.0]])

    def test_build_is_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(6, 6))
        m = SymMatrix.build(6, lambda i, j: values[i, j])
        assert np.array_equal(m.entries, m.entries.T)

    def test_immutable(self):
        m = SymMatrix([[1.0]])
        with pytest.raises(AttributeError):
            m.entries = None
        with pytest.raises(ValueError):
            m.entries[0, 0] = 2.0


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(SymMatrix(np.eye(3))) == pytest.approx(1.0, abs=1e-14)

    def test_rank_one_psd(self):
        assert min_eigenvalue(SymMatrix([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_matches_bisection_oracle_on_random_symmetric(self):
        rng = np.random.default_rng(20)
        raw = rng.normal(size=(5, 5))
        m = SymMatrix(raw + raw.T)
        expected = min_eig_bisection(m.entries.tolist())
        assert min_eigenvalue(m) == pytest.approx(expected, abs=1e-10)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            min_eigenvalue(SymMatrix(np.eye(17)))

    def test_non_finite_rejected(self):
        bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            min_eigenvalue(SymMatrix(bad))


class TestLeadingMinors:
    def test_identity(self):
        assert leading_minors(SymMatrix(np.eye(3))) == pytest.approx([1.0, 1.0, 1.0])

    def test_hand_determinant(self):
        assert leading_minors(SymMatrix([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(
            [2.0, 3.0]
        )

    def test_indefinite_flags_negative_minor(self):
        minors = leading_minors(SymMatrix(np.diag([1.0, -1.0])))
        assert minors == pytest.approx([1.0, -1.0])

    def test_matches_cofactor_oracle(self):
        from oracles import cofactor_det

        rng = np.random.default_rng(77)
        raw = rng.normal(size=(4, 4))
        m = SymMatrix(raw + raw.T)
        for k, minor in enumerate(leading_minors(m), start=1):
            block = m.entries[:k, :k].tolist()
            assert minor == pytest.approx(cofactor_det(block), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 4, 16])
    def test_equals_per_block_det(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            raw = rng.normal(size=(dim, dim))
            m = SymMatrix(raw + raw.T)
            per_block = [float(np.linalg.det(m.entries[:k, :k]))
                         for k in range(1, dim + 1)]
            assert leading_minors(m) == per_block

    def test_guards(self):
        with pytest.raises(ValueError, match="dimension 17; .* capped at dimension 16"):
            leading_minors(SymMatrix(np.eye(17)))
        with pytest.raises(ValueError, match="finite"):
            leading_minors(SymMatrix([[np.inf, 0.0], [0.0, 1.0]]))


class TestSpectralProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_gram_matrices_are_psd(self, seed, dim):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim))
        m = SymMatrix.build(dim, lambda i, j: float(g[i] @ g[j]))
        assert min_eigenvalue(m) >= -1e-10 * max(m.max_abs(), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_min_eig_below_every_diagonal_entry(self, seed, dim):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(dim, dim))
        m = SymMatrix(raw + raw.T)
        assert min_eigenvalue(m) <= float(np.min(np.diag(m.entries))) + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_sylvester_consistency(self, seed, dim):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim))
        m = SymMatrix.build(
            dim, lambda i, j: float(g[i] @ g[j]) + (0.1 if i == j else 0.0)
        )
        if all(minor > 0.0 for minor in leading_minors(m)):
            assert min_eigenvalue(m) > -1e-10
