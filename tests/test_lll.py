"""Exact LLL reduction checked against rational Gram-Schmidt ground truth."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from juoan2 import ParameterError
from juoan2.cryptanalysis import (
    IntegerLattice,
    basis_from_generators,
    gram_schmidt,
    is_size_reduced,
    lll_reduce,
    lovasz_holds,
)


def solve_many(basis_rows, vecs):
    """Exact coordinates of each vec in the row space of a square basis.

    Fraction-free (Bareiss) forward elimination on B^T keeps every
    intermediate an integer; only the O(n^2) back-substitution per vector
    touches rationals.  Raises ZeroDivisionError on a singular basis.
    """
    n = len(basis_rows)
    width = n + len(vecs)
    aug = [
        [basis_rows[j][i] for j in range(n)] + [v[i] for v in vecs]
        for i in range(n)
    ]
    prev = 1
    for k in range(n):
        if not aug[k][k]:
            swap = next(r for r in range(k + 1, n) if aug[r][k])
            aug[k], aug[swap] = aug[swap], aug[k]
        pivot = aug[k][k]
        for r in range(k + 1, n):
            factor = aug[r][k]
            row = aug[r]
            top = aug[k]
            for c in range(k + 1, width):
                row[c] = (row[c] * pivot - factor * top[c]) // prev
            row[k] = 0
        prev = pivot
    out = []
    for t in range(len(vecs)):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            s = Fraction(aug[i][n + t])
            for j in range(i + 1, n):
                s -= aug[i][j] * x[j]
            x[i] = s / aug[i][i]
        out.append(x)
    return out


def solve_rational(basis_rows, vec):
    """Coordinates of vec in the row space of a square nonsingular basis."""
    return solve_many(basis_rows, [vec])[0]


def is_unimodular_transform(original: IntegerLattice, reduced: IntegerLattice) -> bool:
    """Every row of each basis has integer coordinates in the other, i.e.
    the two bases generate the same lattice (transform determinant +-1)."""
    try:
        fwd = solve_many(original.rows, reduced.rows)
        back = solve_many(reduced.rows, original.rows)
    except (ZeroDivisionError, StopIteration):
        return False
    return all(c.denominator == 1 for row in fwd + back for c in row)


def random_basis(rng: Random, dim: int, bound: int) -> IntegerLattice:
    while True:
        rows = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(dim)
        )
        star, _ = gram_schmidt(rows)
        if all(any(x for x in v) for v in star):
            return IntegerLattice(rows)


def test_pinned_2x2_shortest_vector():
    basis = IntegerLattice(((201, 37), (1648, 297)))
    reduced = lll_reduce(basis)
    first = reduced.rows[0]
    norm = first[0] ** 2 + first[1] ** 2
    # Brute-force shortest nonzero vector over small coefficients.
    best = min(
        (a * 201 + b * 1648) ** 2 + (a * 37 + b * 297) ** 2
        for a, b in product(range(-100, 101), repeat=2)
        if (a, b) != (0, 0)
    )
    assert norm == best == 1025
    assert is_unimodular_transform(basis, reduced)


def test_identity_is_fixed_point():
    eye = IntegerLattice(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert lll_reduce(eye) == eye


@pytest.mark.parametrize("seed", range(15))
def test_random_bases_reduce_correctly(seed):
    rng = Random(seed)
    basis = random_basis(rng, rng.randint(2, 8), 1 << 20)
    reduced = lll_reduce(basis)
    assert is_size_reduced(reduced.rows)
    assert lovasz_holds(reduced.rows)
    assert is_unimodular_transform(basis, reduced)


def test_rank_deficient_basis_raises():
    with pytest.raises(ParameterError):
        lll_reduce(IntegerLattice(((1, 2), (2, 4))))


def test_bad_delta_raises():
    basis = IntegerLattice(((1, 0), (0, 1)))
    with pytest.raises(ParameterError):
        lll_reduce(basis, Fraction(1, 4))
    with pytest.raises(ParameterError):
        lll_reduce(basis, Fraction(1, 1))


def test_gram_schmidt_orthogonality():
    rows = ((3, 1, 0), (1, 2, 1), (0, 1, 4))
    star, mu = gram_schmidt(rows)
    for i in range(3):
        for j in range(i):
            assert sum(a * b for a, b in zip(star[i], star[j])) == 0
        assert len(mu[i]) == i


def test_basis_from_generators_extracts_independent_rows():
    gens = IntegerLattice(((2, 0, 6), (0, 3, 9), (2, 3, 15), (0, 0, 0)))
    basis = basis_from_generators(gens)
    assert basis.dim == 2
    # Every generator lies in the span of the extracted basis with integer
    # coordinates (padding the basis to square form is unnecessary here:
    # solve against the 2-row basis by brute force).
    for g in gens.rows:
        found = any(
            tuple(a * basis.rows[0][i] + b * basis.rows[1][i] for i in range(3)) == g
            for a in range(-6, 7)
            for b in range(-6, 7)
        )
        assert found


def test_basis_from_generators_all_zero_raises():
    with pytest.raises(ParameterError):
        basis_from_generators(IntegerLattice(((0, 0), (0, 0))))


def test_lattice_shape_validation():
    with pytest.raises(ParameterError):
        IntegerLattice(((1, 2), (1,)))
    with pytest.raises(ParameterError):
        IntegerLattice(())
