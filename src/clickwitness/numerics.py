"""Exact combinatorics, half-integer arithmetic, and small symmetric eigenproblems.

Witness matrices are tiny (dim <= 16) and detector bin counts stay below ~64,
so every routine here favors exactness and robustness over asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Exactness guard for combinatorics.
MAX_EXACT_N = 64

# Witness matrices never grow past this dimension.
MAX_DIM = 16


def check_exact(n: int, subject: str) -> None:
    """Reject an ``n`` above ``MAX_EXACT_N``, the cap of the exact combinatorics."""
    if n > MAX_EXACT_N:
        raise ValueError(f"{subject} is capped at MAX_EXACT_N = {MAX_EXACT_N}, got {n}")


def check_dimension(dim: int, subject: str) -> None:
    """Reject an empty witness matrix of ``subject``, and one above ``MAX_DIM``."""
    if dim < 1:
        raise ValueError(f"{subject} is empty")
    if dim > MAX_DIM:
        raise ValueError(f"{subject} has dimension {dim}; "
                         f"witness matrices are capped at dimension {MAX_DIM}")


@dataclass(frozen=True, order=True)
class HalfInt:
    """Element of the half-integer lattice, stored as the doubled value.

    Matrix index sets mix values like 3/2 and 2; keeping ``2*k`` as a plain
    int makes membership tests and pair sums exact with no floating point.
    """

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise TypeError(f"twice must be an int, got {type(self.twice).__name__}")

    @classmethod
    def of(cls, value) -> "HalfInt":
        """Coerce an int, an exact multiple of 1/2, or a 'p/2' string."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, bool):
            raise TypeError("cannot build HalfInt from bool")
        if isinstance(value, int):
            return cls(2 * value)
        if isinstance(value, float):
            doubled = 2.0 * value
            if doubled != int(doubled):
                raise ValueError(f"{value!r} is not a half-integer")
            return cls(int(doubled))
        if isinstance(value, str):
            text = value.strip()
            if "/" in text:
                num, _, den = text.partition("/")
                if den.strip() != "2":
                    raise ValueError(f"cannot parse half-integer from {value!r}")
                return cls(int(num))
            return cls(2 * int(text))
        raise TypeError(f"cannot build HalfInt from {type(value).__name__}")

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def to_int(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not a whole integer")
        return self.twice // 2

    def __add__(self, other: "HalfInt") -> "HalfInt":
        if not isinstance(other, HalfInt):
            return NotImplemented
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        if not isinstance(other, HalfInt):
            return NotImplemented
        return HalfInt(self.twice - other.twice)

    def __mul__(self, factor: int) -> "HalfInt":
        if not isinstance(factor, int):
            return NotImplemented
        return HalfInt(self.twice * factor)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) for 0 <= k <= n <= 64."""
    if not (isinstance(n, int) and isinstance(k, int)):
        raise TypeError("binom expects integers")
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"binom requires 0 <= k <= n, got n={n}, k={k}")
    check_exact(n, "binom's n")
    return math.comb(n, k)


def multinom(n: int, parts) -> int:
    """Exact multinomial coefficient n! / (parts_0! ... parts_K!).

    The parts must be nonnegative and sum to n.
    """
    parts = tuple(int(p) for p in parts)
    check_exact(n, "multinom's n")
    if any(p < 0 for p in parts):
        raise ValueError(f"multinom parts must be nonnegative, got {parts}")
    if sum(parts) != n:
        raise ValueError(f"multinom parts {parts} do not sum to n={n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def falling_factorial(n: int, k: int) -> int:
    """Exact n (n-1) ... (n-k+1); zero once k exceeds n."""
    if k < 0:
        raise ValueError("falling_factorial requires k >= 0")
    out = 1
    for i in range(k):
        out *= n - i
        if out == 0:
            return 0
    return out


class SymMatrix:
    """Dense real symmetric matrix, symmetric by construction.

    Built either from explicit rows (symmetry is checked exactly) or via
    :meth:`build`, which evaluates each unordered pair once so that
    ``entries[i, j] == entries[j, i]`` holds bit for bit.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix dimension must be >= 1")
        if not np.array_equal(arr, arr.T):
            raise ValueError("matrix entries are not exactly symmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    # No caller in the package since witness matrices go through witnesses._fill;
    # bench/tracing.py still hooks it here.
    @classmethod
    def build(cls, dim: int, entry_fn) -> "SymMatrix":
        """Construct from ``entry_fn(i, j)`` evaluated once per pair i <= j."""
        arr = np.zeros((dim, dim))
        for i in range(dim):
            for j in range(i, dim):
                value = float(entry_fn(i, j))
                arr[i, j] = value
                arr[j, i] = value
        return cls(arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


def _check_small_finite(entries: np.ndarray, op: str) -> None:
    check_dimension(entries.shape[-1], f"the {op} input")
    if not np.all(np.isfinite(entries)):
        raise ValueError(f"{op} requires finite entries")


def min_eigenvalue(matrix: SymMatrix) -> float:
    """Smallest eigenvalue of a small real symmetric matrix.

    Backed by LAPACK's symmetric eigensolver; at dim <= 16 the result is
    accurate to well below 1e-12 relative to the largest entry.
    """
    return float(min_eigenvalues(matrix.entries))


def min_eigenvalues(entries: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of every symmetric matrix in a (..., d, d) stack.

    One eigensolver call covers the whole stack, under the same dimension
    and finiteness checks as :func:`min_eigenvalue`.
    """
    _check_small_finite(entries, "min_eigenvalue")
    return np.linalg.eigvalsh(entries)[..., 0]


def leading_minors(matrix: SymMatrix) -> list[float]:
    """Determinants of the leading principal 1x1, 2x2, ..., dim x dim blocks."""
    entries = matrix.entries
    _check_small_finite(entries, "leading_minors")
    return [float(np.linalg.det(entries[:k, :k])) for k in range(1, matrix.dim + 1)]
