"""Exact-arithmetic LLL lattice basis reduction and basis utilities.

The reduction keeps Gram-Schmidt data as integers (Gram determinants d_i and
scaled coefficients lambda_ij = mu_ij * d_j), so every comparison is exact;
this is algebraically identical to rational Gram-Schmidt but avoids fraction
normalization in the hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    """Exact Gram-Schmidt; returns (orthogonal vectors, mu coefficients)."""
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


def is_size_reduced(rows: Sequence[Sequence[int]]) -> bool:
    _, mu = gram_schmidt(rows)
    return all(abs(c) <= Fraction(1, 2) for coeffs in mu for c in coeffs)


def lovasz_holds(rows: Sequence[Sequence[int]], delta: Fraction = DEFAULT_DELTA) -> bool:
    star, mu = gram_schmidt(rows)
    norms = [sum(x * x for x in v) for v in star]
    for k in range(1, len(rows)):
        if norms[k] < (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            return False
    return True


def lll_reduce(basis: IntegerLattice, delta: Fraction = DEFAULT_DELTA) -> IntegerLattice:
    """Reduce a full-rank basis; output spans the same lattice.

    Raises ParameterError on dependent rows or delta outside (1/4, 1).
    """
    if not Fraction(1, 4) < delta < 1:
        raise ParameterError(f"delta must lie in (1/4, 1), got {delta}")
    p, q = delta.numerator, delta.denominator
    b = [list(row) for row in basis.rows]
    n = len(b)

    # d[i] = Gram determinant of the first i vectors; lam[i][j] = mu_ij * d[j+1].
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def incorporate(k: int) -> None:
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                if u == 0:
                    raise ParameterError(f"basis is rank deficient at row {k + 1}")
                d[k + 1] = u

    def size_reduce(k: int, j: int) -> None:
        if 2 * abs(lam[k][j]) > d[j + 1]:
            r = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])  # nearest integer
            b[k] = [x - r * y for x, y in zip(b[k], b[j])]
            lam[k][j] -= r * d[j + 1]
            for i in range(j):
                lam[k][i] -= r * lam[j][i]

    incorporate(0)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            incorporate(k)
            kmax = k
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
    return IntegerLattice(tuple(tuple(row) for row in b))


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
