"""Exact-arithmetic LLL lattice basis reduction and basis utilities.

Gram-Schmidt data is kept as integers (Gram determinants d_i and scaled
coefficients lambda_ij = mu_ij * d_j; Cohen, "A Course in Computational
Algebraic Number Theory", Alg. 2.6.7, after de Weger, 1987), so every
comparison is exact; this is algebraically identical to rational
Gram-Schmidt but avoids fraction normalization.  One function computes that
data row by row: `ReducedBasis` keeps it after a reduction, so a row can be
appended to a reduced basis without reducing the rest again, and the
reducedness checks `is_size_reduced` and `lovasz_holds` read it directly.
`lll_reduce` is the one-shot form of the reducer; `gram_schmidt` (rational)
is the reference the tests compare these against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import ParameterError

DEFAULT_DELTA = Fraction(3, 4)


@dataclass(frozen=True)
class IntegerLattice:
    """Row-generated integer lattice.  Rows need not be independent."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ParameterError("lattice needs at least one row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ParameterError("rows have unequal lengths")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0])


def gram_schmidt(rows: Sequence[Sequence[int]]) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Exact rational Gram-Schmidt; returns (orthogonal vectors, mu coefficients).

    The reference for the integral data below, used by the tests.
    """
    star: list[list[Fraction]] = []
    mu: list[list[Fraction]] = []
    for row in rows:
        v = [Fraction(x) for x in row]
        coeffs = []
        for u in star:
            denom = sum(x * x for x in u)
            c = sum(a * b for a, b in zip(v, u)) / denom if denom else Fraction(0)
            coeffs.append(c)
            v = [a - c * b for a, b in zip(v, u)]
        star.append(v)
        mu.append(coeffs)
    return star, mu


def _incorporate(row: Sequence[int], b: list[list[int]], d: list[int], lam: list[list[int]]) -> None:
    """Append `row` to the rows b, extending their integral Gram-Schmidt data.

    d[i] is the Gram determinant of the first i rows and lam[k][j] is
    mu_kj * d[j+1] for j < k; both stay integers.  O(k^2) big-integer work
    for a row joining k others.  Raises ParameterError, leaving b, d and lam
    unchanged, if `row` has another length than b's rows or depends on them.
    """
    if b and len(row) != len(b[0]):
        raise ParameterError("rows have unequal lengths")
    k = len(b)
    mu: list[int] = []
    for j in range(k + 1):
        other, lam_j = (b[j], lam[j]) if j < k else (row, mu)
        u = sum(x * y for x, y in zip(row, other))
        for i in range(j):
            u = (d[i + 1] * u - mu[i] * lam_j[i]) // d[i]
        if j < k:
            mu.append(u)
    if u == 0:
        raise ParameterError(f"basis is rank deficient at row {k + 1}")
    b.append(list(row))
    d.append(u)
    lam.append(mu)


def _gram_data(rows: Iterable[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data (d, lam) of independent rows, as `_incorporate` defines it."""
    b, d, lam = [], [1], []
    for row in rows:
        _incorporate(row, b, d, lam)
    return d, lam


def is_size_reduced(rows: Sequence[Sequence[int]]) -> bool:
    """Whether every |mu_kj| <= 1/2, i.e. 2 * |lam_kj| <= d_{j+1}.

    Raises ParameterError on dependent or zero rows: reducedness is defined
    for bases only.
    """
    d, lam = _gram_data(rows)
    return all(2 * abs(c) <= d[j + 1] for coeffs in lam for j, c in enumerate(coeffs))


def lovasz_holds(rows: Sequence[Sequence[int]], delta: Fraction = DEFAULT_DELTA) -> bool:
    """Whether |b*_k|^2 >= (delta - mu_{k,k-1}^2) |b*_{k-1}|^2 for every k.

    With delta = p/q that is q (d_{k-1} d_{k+1} + lam_{k,k-1}^2) >= p d_k^2.
    Raises ParameterError on dependent or zero rows: reducedness is defined
    for bases only.
    """
    d, lam = _gram_data(rows)
    p, q = delta.numerator, delta.denominator
    return all(q * (d[k - 1] * d[k + 1] + lam[k][k - 1] ** 2) >= p * d[k] ** 2
               for k in range(1, len(lam)))


class ReducedBasis:
    """An LLL-reduced basis that keeps its integral Gram-Schmidt data.

    The rows are reduced in the order given: each joins the reduced prefix
    before it (its Gram-Schmidt data computed against that prefix alone), and
    the LLL loop then runs from it until the whole basis is reduced again.
    Because the data outlives the reduction, `appended` reduces this basis
    plus one more row at the cost of that row alone: O(n^2) big-integer work
    to incorporate it, then the same loop from it, instead of an O(n^3)
    reduction from scratch.

    Raises ParameterError on dependent rows, rows of unequal length, or
    delta outside (1/4, 1).
    """

    def __init__(self, rows: Iterable[Sequence[int]] = (), delta: Fraction = DEFAULT_DELTA):
        if not Fraction(1, 4) < delta < 1:
            raise ParameterError(f"delta must lie in (1/4, 1), got {delta}")
        self.delta = delta
        self._b: list[list[int]] = []
        self._d = [1]  # integral Gram-Schmidt data, as `_incorporate` defines it
        self._lam: list[list[int]] = []
        for row in rows:
            self._push(row)

    @property
    def lattice(self) -> IntegerLattice:
        return IntegerLattice(tuple(tuple(row) for row in self._b))

    def appended(self, row: Sequence[int]) -> ReducedBasis:
        """The reduction of these rows plus `row`, as a new object; self is unchanged."""
        new = ReducedBasis(delta=self.delta)
        new._b = [list(r) for r in self._b]
        new._d = list(self._d)
        new._lam = [list(r) for r in self._lam]
        new._push(row)
        return new

    def _push(self, row: Sequence[int]) -> None:
        _incorporate(row, self._b, self._d, self._lam)
        if len(self._b) > 1:
            self._reduce_last()

    def _reduce_last(self) -> None:
        """LLL loop from the last row, given that the rows before it are reduced."""
        b, d, lam = self._b, self._d, self._lam
        p, q = self.delta.numerator, self.delta.denominator
        k = kmax = len(b) - 1

        def size_reduce(k: int, j: int) -> None:
            if 2 * abs(lam[k][j]) > d[j + 1]:
                r = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])  # nearest integer
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= r * d[j + 1]
                for i in range(j):
                    lam[k][i] -= r * lam[j][i]

        while k <= kmax:
            size_reduce(k, k - 1)
            while q * (d[k - 1] * d[k + 1] + lam[k][k - 1] ** 2) < p * d[k] ** 2:
                # swap rows k-1 and k, updating the integral GS data in place
                b[k], b[k - 1] = b[k - 1], b[k]
                for j in range(k - 1):
                    lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
                lam_ = lam[k][k - 1]
                new_dk = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
                for i in range(k + 1, kmax + 1):
                    t = lam[i][k]
                    lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_ * t) // d[k]
                    lam[i][k - 1] = (new_dk * t + lam_ * lam[i][k]) // d[k + 1]
                d[k] = new_dk
                k = max(k - 1, 1)
                size_reduce(k, k - 1)
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1


def lll_reduce(basis: IntegerLattice, delta: Fraction = DEFAULT_DELTA) -> IntegerLattice:
    """Reduce a full-rank basis; output spans the same lattice.

    Raises ParameterError on dependent rows or delta outside (1/4, 1).
    """
    return ReducedBasis(basis.rows, delta).lattice


def basis_from_generators(lattice: IntegerLattice) -> IntegerLattice:
    """Extract a linearly independent basis of the lattice spanned by the rows.

    Integer row elimination: per column, gcd-combine rows until one pivot
    remains, then recurse on the rest.  Zero rows are dropped.
    """
    rows = [list(row) for row in lattice.rows]
    width = lattice.width
    top = 0
    for col in range(width):
        live = [r for r in range(top, len(rows)) if rows[r][col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(rows[r][col]))
            small = rows[live[0]]
            for r in live[1:]:
                f = rows[r][col] // small[col]
                rows[r] = [x - f * y for x, y in zip(rows[r], small)]
            live = [r for r in live if rows[r][col]]
        if live:
            rows[top], rows[live[0]] = rows[live[0]], rows[top]
            top += 1
    out = [tuple(r) for r in rows[:top] if any(r)]
    if not out:
        raise ParameterError("lattice has no nonzero rows")
    return IntegerLattice(tuple(out))
