"""Exact LLL reduction checked against rational Gram-Schmidt ground truth."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from juoan2 import ParameterError
from juoan2.cryptanalysis import (
    DEFAULT_DELTA,
    IntegerLattice,
    ReducedBasis,
    basis_from_generators,
    build_plain_ssp_lattice,
    gram_schmidt,
    is_size_reduced,
    lll_reduce,
    lovasz_holds,
    planted_ssp_instance,
)


def solve_many(basis_rows, vecs):
    """Exact coordinates of each vec in the row space of a square basis.

    Fraction-free (Bareiss) forward elimination on B^T keeps every
    intermediate an integer; only the O(n^2) back-substitution per vector
    touches rationals.  Raises StopIteration on a singular basis (no pivot).
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
        try:
            solve_many(rows, [])  # exact rank check
        except StopIteration:
            continue
        return IntegerLattice(rows)


def reference_is_size_reduced(rows) -> bool:
    """The rational size-reduction check that the integral one replaced."""
    _, mu = gram_schmidt(rows)
    return all(abs(c) <= Fraction(1, 2) for coeffs in mu for c in coeffs)


def reference_lovasz_holds(rows, delta=DEFAULT_DELTA) -> bool:
    """The rational Lovasz check that the integral one replaced."""
    star, mu = gram_schmidt(rows)
    norms = [sum(x * x for x in v) for v in star]
    for k in range(1, len(rows)):
        if norms[k] < (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            return False
    return True


def reference_lll_reduce(basis: IntegerLattice, delta: Fraction = DEFAULT_DELTA) -> IntegerLattice:
    """The one-shot integral LLL that `ReducedBasis` replaced, kept verbatim as
    the oracle: `lll_reduce` must return exactly its rows."""
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


def test_lll_reduce_matches_the_reference_on_random_bases():
    # The first bases of criterion 6's sequence (dim <= 20, entries <= 2^30).
    rng = Random(600)
    for i in range(40):
        basis = random_basis(rng, rng.randint(2, 20), 1 << 30)
        delta = DEFAULT_DELTA if i % 4 else Fraction(99, 100)
        assert lll_reduce(basis, delta) == reference_lll_reduce(basis, delta)


def test_lll_reduce_matches_the_reference_on_subset_sum_lattices():
    for n in range(4, 21):
        for m in range(3):
            weights, _, S, M = planted_ssp_instance(n, 2 * n, Random(100 * n + m))
            if 2 * (S + m * M) == sum(weights):
                continue
            basis = build_plain_ssp_lattice(weights, S + m * M)
            assert lll_reduce(basis) == reference_lll_reduce(basis)


def test_rank_deficient_basis_raises_like_the_reference():
    basis = IntegerLattice(((1, 2, 0), (0, 1, 1), (2, 5, 1)))
    for reduce in (lll_reduce, reference_lll_reduce):
        with pytest.raises(ParameterError, match="rank deficient at row 3"):
            reduce(basis)


@st.composite
def subset_sum_instances(draw):
    """(weights, T, M): T the exact sum of a planted subset, or uniform in [0, sum(w)]."""
    n = draw(st.integers(4, 16))
    bits = draw(st.integers(n // 2, 3 * n))
    rng = Random(draw(st.integers(0, 2**32)))
    weights, x, _, M = planted_ssp_instance(n, bits, rng)
    if draw(st.booleans()):
        T = sum(b * w for b, w in zip(x, weights))
    else:
        T = rng.randint(0, sum(weights))
    assume(2 * T != sum(weights))  # that target row depends on the weight rows
    return weights, T, M


@settings(max_examples=40, deadline=None)
@given(subset_sum_instances())
def test_appended_row_gives_a_reduced_basis_of_the_cold_lattice(instance):
    weights, T, _ = instance
    cold = build_plain_ssp_lattice(weights, T)
    warm = ReducedBasis(cold.rows[:-1]).appended(cold.rows[-1]).lattice
    assert is_size_reduced(warm.rows)
    assert lovasz_holds(warm.rows, DEFAULT_DELTA)
    assert is_unimodular_transform(cold, warm)


@settings(max_examples=40, deadline=None)
@given(subset_sum_instances())
def test_appended_leaves_the_base_untouched(instance):
    weights, T, M = instance
    assume(2 * (T + M) != sum(weights))
    weight_rows = build_plain_ssp_lattice(weights, T).rows[:-1]

    def target(t):
        return build_plain_ssp_lattice(weights, t).rows[-1]

    def state(basis):  # rows and integral Gram-Schmidt data, copied
        return basis.lattice, list(basis._d), [list(r) for r in basis._lam]

    base = ReducedBasis(weight_rows)
    before = state(base)
    all_weights = [sum(col) for col in zip(*weight_rows)]
    for dependent in (all_weights, weight_rows[0], [0] * len(all_weights)):
        with pytest.raises(ParameterError, match="rank deficient"):
            base.appended(dependent)
    with pytest.raises(ParameterError, match="unequal"):
        base.appended(target(T)[1:])
    assert state(base) == before
    # guesses m and m + 1 from one base give the rows of two fresh bases
    first = base.appended(target(T)).lattice
    assert state(base) == before  # a changed base could stall the next reduction
    second = base.appended(target(T + M)).lattice
    assert state(base) == before
    assert first == ReducedBasis(weight_rows).appended(target(T)).lattice
    assert second == ReducedBasis(weight_rows).appended(target(T + M)).lattice


@st.composite
def full_rank_bases(draw):
    """Square full-rank bases with entries from tiny (ties likely) to 2^20."""
    dim = draw(st.integers(1, 7))
    bound = draw(st.sampled_from([1, 3, 50, 1 << 20]))
    return random_basis(Random(draw(st.integers(0, 2**32))), dim, bound)


@settings(max_examples=150, deadline=None)
@given(full_rank_bases())
def test_integral_checks_match_the_rational_reference(basis):
    for rows in (
        basis.rows,
        lll_reduce(basis).rows,
        lll_reduce(basis, Fraction(99, 100)).rows,
    ):
        assert is_size_reduced(rows) == reference_is_size_reduced(rows)
        for delta in (DEFAULT_DELTA, Fraction(99, 100)):
            assert lovasz_holds(rows, delta) == reference_lovasz_holds(rows, delta)


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 2, 0), (0, 1, 1), (2, 5, 1)),  # dependent
        ((3, 1), (3, 1)),  # duplicate
        ((0, 0), (1, 0)),  # zero
        ((1, 0), (0, 0)),
    ],
)
def test_integral_checks_reject_dependent_rows(rows):
    with pytest.raises(ParameterError, match="rank deficient"):
        is_size_reduced(rows)
    with pytest.raises(ParameterError, match="rank deficient"):
        lovasz_holds(rows)
