"""Exact LLL reduction checked against rational Gram-Schmidt ground truth."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from juoan2 import ParameterError, encrypt_message, keygen
from juoan2.cryptanalysis import (
    DEFAULT_DELTA,
    IntegerLattice,
    ReducedBasis,
    basis_from_generators,
    block_from_kappa,
    build_plain_ssp_lattice,
    expand_assp_to_ssp,
    gram_schmidt,
    is_size_reduced,
    kappa_from_assignment,
    lll_reduce,
    lovasz_holds,
    planted_ssp_instance,
)
from juoan2.cryptanalysis import lattice, lll
from juoan2.cryptanalysis.lll import _coefficients, _gram_data, _pack, _unpack

from conftest import time_limit


def eliminate(basis_rows, vecs):
    """Fraction-free (Bareiss) forward elimination of [B^T | vecs^T].

    Every intermediate is an integer, and the last pivot is +-det of the
    basis's leading square block.  Raises StopIteration on a singular basis
    (no pivot).
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
    return aug


def solve_many(basis_rows, vecs):
    """Exact coordinates of each vec in the row space of a square basis.

    Bareiss elimination, then an O(n^2) rational back-substitution per
    vector.  Raises StopIteration on a singular basis.
    """
    n = len(basis_rows)
    aug = eliminate(basis_rows, vecs)
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
    """The two bases generate the same lattice (transform determinant +-1).

    Integers only: the bases have equal |det|, and every reduced row has
    integer coordinates in the original.  With D = +-det(original), the
    vector D * x of a row's coordinates x is integral, so back-substitution
    on the Bareiss echelon form divides exactly; x is integral iff D divides
    each entry.  Equal |det| then makes the integral transform unimodular.
    """
    n = len(original.rows)
    try:
        aug = eliminate(original.rows, reduced.rows)
        det = aug[-1][n - 1]
        if abs(det) != abs(eliminate(reduced.rows, [])[-1][n - 1]):
            return False
    except StopIteration:
        return False
    for t in range(len(reduced.rows)):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            s = det * aug[i][n + t] - sum(aug[i][j] * y[j] for j in range(i + 1, n))
            y[i] = s // aug[i][i]
            if y[i] % det:
                return False
    return True


def reference_is_unimodular_transform(original: IntegerLattice, reduced: IntegerLattice) -> bool:
    """The rational check that the integral one replaced: every row of each
    basis has integer coordinates in the other."""
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
            eliminate(rows, [])  # exact rank check
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


@pytest.mark.parametrize("build", [
    lambda: lll_reduce(IntegerLattice(((),))),  # width 0: no last column
    lambda: ReducedBasis().appended(()),
    lambda: ReducedBasis([(0, 0)]),  # the fresh join of a zero row
    lambda: ReducedBasis([(1, 0)]).appended((0, 0)),  # a head join
    lambda: ReducedBasis([(1, 2), (3, 4)]).appended((5, 6)),  # rows that span e
])
def test_every_join_path_refuses_a_dependent_row(build):
    with pytest.raises(ParameterError, match="rank deficient"):
        build()


def widen_without_repacking(self, row):
    """A faulty `ReducedBasis._widen`: the slots widen, but the kept rows stay packed at the old width."""
    bits = max(map(abs, row), default=0).bit_length()
    if bits > self._bits:
        self._bits = bits
        self._slot = bits + self._width.bit_length() + 1


def widen_without_the_width_term(self, row):
    """A faulty `ReducedBasis._widen`: the slot width lacks its bitlen(width) term."""
    bits = max(map(abs, row), default=0).bit_length()
    if bits > self._bits:
        rows = self._rows()
        self._bits = bits
        self._slot = bits + 1
        self._b = [_pack(r, self._slot) for r in rows]


def seed_0_random_basis():
    rng = Random(0)
    return random_basis(rng, rng.randint(2, 8), 1 << 20)


@pytest.mark.parametrize("fault, basis", [
    (widen_without_repacking, lambda: IntegerLattice(((201, 37), (1648, 297)))),
    (widen_without_the_width_term, seed_0_random_basis),
])
def test_a_reducer_fault_fails_fast(monkeypatch, fault, basis):
    # Either fault mis-decodes packed rows, so a join computes a negative
    # Gram determinant, on which the LLL loop would never end.
    monkeypatch.setattr(ReducedBasis, "_widen", fault)
    with time_limit(5), pytest.raises(ArithmeticError, match="negative Gram determinant"):
        lll_reduce(basis())


def test_appended_shares_no_row_with_its_base():
    # The copies share the base's packed rows, which are immutable integers;
    # what must not be shared is state that a reduction changes.  Two appends
    # leave the base's rows and kept data as they were, and a third from the
    # same base gives what a fresh reduction gives.
    weights, _, S, M = planted_ssp_instance(12, 24, Random(5))
    rows = build_plain_ssp_lattice(weights, S).rows
    base = ReducedBasis(rows[:-1])

    def state(basis):
        return (basis.lattice, list(basis._d), [list(r) for r in basis._lam],
                list(basis._probe), basis._gram_e)

    before = state(base)
    targets = [build_plain_ssp_lattice(weights, S + m * M).rows[-1] for m in range(3)]
    with time_limit(20):  # an append from a changed base need not terminate
        for target in targets[:2]:
            base.appended(target)
            assert state(base) == before
        third = base.appended(targets[2])
    assert state(third) == state(ReducedBasis(rows[:-1] + (targets[2],)))


def test_appended_leaves_an_attack_sized_base_untouched():
    # A swap moves coefficient rows between positions in place, so a row
    # list shared by a copy and its base would change the base.  The n = 16
    # ASSP weight rows (94 of width 95) and two wrap guesses: the base keeps
    # its rows and kept data, no list of coefficients is shared, and each
    # copy's data is that of its rows.
    rng = Random(16)
    pub, _ = keygen(16, rng)
    weights, _ = expand_assp_to_ssp(pub)
    S = encrypt_message(pub, b"in place", rng)[0].S
    weight_rows = build_plain_ssp_lattice(weights, S).rows[:-1]
    assert len(weight_rows) == 94

    def state(basis):
        return (basis.lattice, list(basis._d), [list(r) for r in basis._lam],
                list(basis._probe), basis._gram_e)

    with time_limit(20):
        base = ReducedBasis(weight_rows)
        before = state(base)
        copies = []
        for m in range(2):
            assert 2 * (S + m * pub.M) != sum(weights)
            copies.append(base.appended(build_plain_ssp_lattice(weights, S + m * pub.M).rows[-1]))
            assert state(base) == before
    lists = [r for basis in (base, *copies) for r in (*basis._lam, basis._probe)]
    assert len({id(r) for r in lists}) == len(lists)
    for copy in copies:
        assert (copy._d, copy._lam) == _gram_data(copy.lattice.rows)


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

    with time_limit(10):  # a changed base can stall the next append for good
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
        assert state(base) == before
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


def test_integral_checks_reject_rows_of_unequal_length():
    for check in (is_size_reduced, lovasz_holds):
        with pytest.raises(ParameterError, match="^rows have unequal lengths$"):
            check(((1, 0), (0, 1, 0)))


def transform_pairs(basis):
    """(original, other) lattice pairs around a basis, some related by a
    unimodular transform and some not."""
    rows = [list(r) for r in basis.rows]
    reduced = [list(r) for r in lll_reduce(basis).rows]
    doubled = [[2 * c for c in rows[0]]] + rows[1:]
    pairs = [
        (rows, reduced),
        (reduced, rows),
        (rows, doubled),  # det-2 transform
        (rows, rows[-1:] + rows[:-1]),  # a permutation
    ]
    if len(rows) > 1:
        sheared = [a - 3 * b for a, b in zip(rows[1], rows[0])]
        halved = [rows[0], [2 * c for c in rows[1]]] + rows[2:]
        pairs += [
            (rows, [rows[0], sheared] + rows[2:]),  # unimodular
            (rows, [rows[0], rows[0]] + rows[2:]),  # singular
            ([rows[0], rows[0]] + rows[2:], reduced),
            # equal |det|, but (2 b0, b1) has a half coordinate in (b0, 2 b1)
            (halved, doubled),
        ]
    return [
        (IntegerLattice(tuple(map(tuple, a))), IntegerLattice(tuple(map(tuple, b))))
        for a, b in pairs
    ]


@settings(max_examples=150, deadline=None)
@given(full_rank_bases())
def test_unimodular_check_matches_the_rational_reference(basis):
    for original, other in transform_pairs(basis):
        want = reference_is_unimodular_transform(original, other)
        assert is_unimodular_transform(original, other) == want


def test_unimodular_check_verdicts_on_fixed_cases():
    basis = IntegerLattice(((2, 1, 0), (0, 3, 1), (1, 0, 4)))
    cases = {
        ((2, 1, 0), (0, 3, 1), (3, 1, 4)): True,  # row 2 plus row 0
        ((4, 2, 0), (0, 3, 1), (1, 0, 4)): False,  # det-2 transform
        ((2, 1, 0), (0, 3, 1), (2, 1, 0)): False,  # singular
    }
    for rows, want in cases.items():
        other = IntegerLattice(rows)
        assert is_unimodular_transform(basis, other) is want
        assert reference_is_unimodular_transform(basis, other) is want
    singular = IntegerLattice(((1, 2), (2, 4)))
    assert not is_unimodular_transform(singular, singular)
    # equal |det| (4) yet (4, 0) has coordinates (2, 0) and (0, 1) has (0, 1/2)
    assert not is_unimodular_transform(
        IntegerLattice(((2, 0), (0, 2))), IntegerLattice(((4, 0), (0, 1)))
    )


@pytest.mark.parametrize("seed", [16, 61])
def test_sparse_reducer_matches_the_reference_at_the_attack_size(seed):
    # The ASSP attack's exact-sum lattice for a genuine n=16 key: 94 expanded
    # weights, width 95, the target taken from a real ciphertext.  Reduced
    # rows here are mostly zero, unlike the small dense bases above.
    rng = Random(seed)
    pub, _ = keygen(16, rng)
    weights, _ = expand_assp_to_ssp(pub)
    assert len(weights) == 94
    T = encrypt_message(pub, b"sparse", rng)[0].S
    assert 2 * T != sum(weights)
    basis = build_plain_ssp_lattice(weights, T)
    reduced = lll_reduce(basis)
    assert reduced == reference_lll_reduce(basis)
    warm = ReducedBasis(basis.rows[:-1]).appended(basis.rows[-1])
    assert warm.lattice == reduced
    assert _gram_data(reduced.rows) == (warm._d, warm._lam)


def fresh_unit_coefficients(basis: ReducedBasis) -> list[int]:
    """lambda(e) for e the unit vector of the basis's last column, by the general recurrence."""
    e = [0] * basis._width
    e[-1] = 1
    return _coefficients(e, basis.lattice.rows, basis._d, basis._lam)


@st.composite
def embedding_bases(draw):
    """(exact-sum lattice, the target row of the next wrap guess)."""
    weights, T, M = draw(subset_sum_instances())
    assume(2 * (T + M) != sum(weights))
    return build_plain_ssp_lattice(weights, T), build_plain_ssp_lattice(weights, T + M).rows[-1]


@st.composite
def dense_bases(draw):
    """(square full-rank basis of dim >= 2, None): the rows share their
    columns, so after the first they take the general recurrence (a row of
    a tiny-entry basis that misses every column used before it takes the
    fast path)."""
    basis = draw(full_rank_bases())
    assume(basis.dim >= 2)
    return basis, None


@settings(max_examples=60, deadline=None)
@given(st.one_of(embedding_bases(), dense_bases()))
def test_kept_unit_coefficients_match_a_fresh_recurrence(case):
    basis, next_target = case
    with time_limit(10):
        base = ReducedBasis()
        for row in basis.rows[:-1]:
            base._push(row)
            assert base._probe == fresh_unit_coefficients(base)
        for row in (basis.rows[-1], next_target):
            if row is not None:
                warm = base.appended(row)
                assert warm._probe == fresh_unit_coefficients(warm)


@settings(max_examples=60, deadline=None)
@given(st.one_of(embedding_bases(), dense_bases()))
def test_every_incorporation_path_gives_the_reference_reduction(case):
    basis, next_target = case
    want = reference_lll_reduce(basis)
    with time_limit(10):
        base = ReducedBasis(basis.rows[:-1])
        for reduced in (ReducedBasis(basis.rows), base.appended(basis.rows[-1])):
            assert reduced.lattice == want
            assert (reduced._d, reduced._lam) == _gram_data(want.rows)
        if next_target is not None:  # the second append reuses the first one's shared head
            cold = IntegerLattice(basis.rows[:-1] + (next_target,))
            assert base.appended(next_target).lattice == reference_lll_reduce(cold)


def test_general_recurrence_serves_only_rows_off_the_fast_shapes(monkeypatch):
    calls = []
    general = lll._coefficients

    def counted(row, *args):
        calls.append(tuple(row))
        return general(row, *args)

    monkeypatch.setattr(lll, "_coefficients", counted)
    with time_limit(10):  # a wrong coefficient can stall the reduction
        dense = random_basis(Random(3), 6, 50)
        ReducedBasis(dense.rows)
        # each row's r, the row with its last entry set to 0; the first row
        # has no coefficients to compute
        assert calls == [row[:-1] + (0,) for row in dense.rows[1:]]
        weights, _, S, M = planted_ssp_instance(12, 24, Random(5))
        rows = build_plain_ssp_lattice(weights, S).rows
        calls.clear()
        base = ReducedBasis(rows[:-1])
        assert calls == []  # each weight row touches only a column no earlier row used
        targets = [build_plain_ssp_lattice(weights, S + m * M).rows[-1] for m in range(5)]
        for target in targets:
            base.appended(target)
        assert calls == [(1,) * 12 + (0,)]  # one head for every wrap guess
        other = (2,) + targets[0][1:]
        warm = base.appended(other)
        assert warm.lattice == reference_lll_reduce(IntegerLattice(rows[:-1] + (other,)))
        base.appended(targets[1])
        assert calls[1:] == [other[:-1] + (0,), targets[1][:-1] + (0,)]


@pytest.mark.parametrize("seed", [16, 61])
def test_wrap_guesses_from_one_base_match_fresh_reductions_at_the_attack_size(seed):
    # m = 0 ... 8 from one base, as lattice_attack runs them at n = 16: each
    # must equal the reference reduction of that guess's cold lattice.
    rng = Random(seed)
    pub, _ = keygen(16, rng)
    weights, _ = expand_assp_to_ssp(pub)
    S = encrypt_message(pub, b"guesses", rng)[0].S
    base = ReducedBasis(build_plain_ssp_lattice(weights, S).rows[:-1])
    assert base._probe == fresh_unit_coefficients(base)
    with time_limit(20):
        for m in range(9):
            T = S + m * pub.M
            assert 2 * T != sum(weights)
            cold = build_plain_ssp_lattice(weights, T)
            warm = base.appended(cold.rows[-1])
            want = reference_lll_reduce(cold)
            assert warm.lattice == want
            assert (warm._d, warm._lam) == _gram_data(want.rows)
            assert warm._probe == fresh_unit_coefficients(warm)


def gram_with_unit(basis: ReducedBasis) -> int:
    """The Gram determinant of the basis's rows and e, the unit vector of its
    last column, by the general recurrence."""
    e = (0,) * (basis._width - 1) + (1,)
    return _gram_data(basis.lattice.rows + (e,))[0][-1]


@pytest.mark.parametrize("seed", range(10))
def test_kept_gram_determinant_with_the_unit_vector_matches_the_recurrence(seed):
    # Fewer rows than columns but one leave e outside their span.  The first
    # rows sit on columns of their own (the weight-row join), the rest share
    # every column (the general recurrence), and the appends share one head.
    rng = Random(seed)
    width = rng.randint(4, 8)
    fresh = [tuple(rng.randint(-50, 50) if c in (i, width - 1) else 0 for c in range(width))
             for i in range(2)]
    dense = [tuple(rng.randint(-50, 50) for _ in range(width)) for _ in range(width - 4)]
    with time_limit(10):
        base = ReducedBasis()
        assert base._gram_e == 1
        for row in fresh + dense:
            base._push(row)
            assert base._gram_e == gram_with_unit(base) > 0
        other = tuple(rng.randint(-9, 9) for _ in range(width - 1))
        for row in (other + (7,), other + (-3,), other + (0,)):  # one head, then kept
            warm = base.appended(row)
            assert warm._gram_e == gram_with_unit(warm) > 0
        assert base._gram_e == gram_with_unit(base)


def test_kept_gram_determinant_is_zero_once_the_rows_span_the_unit_vector():
    square = random_basis(Random(3), 5, 50)
    assert ReducedBasis(square.rows)._gram_e == 0
    assert ReducedBasis(square.rows[:-1]).appended(square.rows[-1])._gram_e == 0
    # 3e joins on no used column; the rows after it join with E = 0
    base = ReducedBasis([(2, 0, 0, 5), (0, 0, 0, 3)])
    assert base._gram_e == 0
    base._push((0, 0, 4, 1))
    warm = base.appended((1, 1, 1, 8))
    for basis in (base, warm):
        assert basis._gram_e == 0
        assert (basis._d, basis._lam) == _gram_data(basis.lattice.rows)
        assert basis._probe == fresh_unit_coefficients(basis)


def test_attack_rows_join_without_the_general_recurrence(monkeypatch):
    # The n = 16 ASSP weight rows and four wrap guesses: the weight rows and
    # every guess's target row join without a `_projected` call, but for the
    # one head the first guess computes: lambda(r) in k calls, R and X in one each.
    rng = Random(16)
    pub, _ = keygen(16, rng)
    weights, _ = expand_assp_to_ssp(pub)
    S = encrypt_message(pub, b"guesses", rng)[0].S
    weight_rows = build_plain_ssp_lattice(weights, S).rows[:-1]
    targets = [build_plain_ssp_lattice(weights, S + m * pub.M).rows[-1] for m in range(4)]
    assert all(2 * (S + m * pub.M) != sum(weights) for m in range(4))
    calls = []
    general = lll._projected

    def counted(*args):
        calls.append(1)
        return general(*args)

    monkeypatch.setattr(lll, "_projected", counted)
    counts = []
    with time_limit(20):
        base = ReducedBasis(weight_rows)
        counts.append(len(calls))
        warm = []
        for target in targets:
            warm.append(base.appended(target))
            counts.append(len(calls))
    monkeypatch.undo()
    k = len(weight_rows)
    assert counts == [0] + [k + 2] * 4
    assert base._gram_e == gram_with_unit(base) > 0
    assert [w._gram_e for w in warm] == [0] * 4  # 95 independent rows of width 95 span e


@st.composite
def packable_vectors(draw):
    """(vector, W) with every |entry| < 2^(W-1), the extremes and zeros likely."""
    w = draw(st.integers(2, 80))
    top = (1 << w - 1) - 1
    entry = st.one_of(st.sampled_from([0, 1, -1, top, -top]), st.integers(-top, top))
    return draw(st.lists(entry, min_size=1, max_size=12)), w


@settings(max_examples=300, deadline=None)
@given(packable_vectors())
def test_packed_rows_round_trip(case):
    vec, w = case
    assert _unpack([_pack(vec, w)], len(vec), w) == [vec]


def test_packed_rows_round_trip_at_the_slot_edges():
    for w in (2, 3, 7, 64):
        top = (1 << w - 1) - 1
        for vec in ([top, -top, 0, -top], [-top] * 5, [0, -1, 0, -1], [-1, 0, 0], [0, 0, top]):
            assert _unpack([_pack(vec, w)], len(vec), w) == [vec]


def test_appended_row_wider_than_the_slot_repacks_the_base():
    # Bases reduced at one slot width, then given a row 30 to 60 bits wider:
    # the base widens, keeps its rows and data, and the append equals the
    # reference and a fresh reduction.  A wide row inside the constructor's
    # rows widens the rows before it the same way.
    rng = Random(30)
    for dim in range(2, 9):
        small = random_basis(rng, dim, 1 << rng.randint(1, 20))
        wide = tuple(rng.randint(-(1 << 60), 1 << 60) for _ in range(dim)) + (0,)
        rows = tuple(r + (rng.randint(-9, 9),) for r in small.rows)
        base = ReducedBasis(rows)
        slot, before = base._slot, (base.lattice, list(base._d), [list(r) for r in base._lam])
        warm = base.appended(wide)
        assert base._slot > slot + 30
        assert (base.lattice, base._d, base._lam) == before
        want = reference_lll_reduce(IntegerLattice(rows + (wide,)))
        fresh = ReducedBasis(rows + (wide,))
        for reduced in (warm, fresh):
            assert reduced.lattice == want
            assert (reduced._d, reduced._lam) == _gram_data(want.rows)
        assert ReducedBasis((wide,) + rows).lattice == reference_lll_reduce(
            IntegerLattice((wide,) + rows))
    weights, _, S, M = planted_ssp_instance(12, 24, Random(7))
    base = ReducedBasis(build_plain_ssp_lattice(weights, S).rows[:-1])
    T = S + (1 << 40) * M  # far past the weight sum: a target entry 40 bits wider
    cold = build_plain_ssp_lattice(weights, T)
    assert base.appended(cold.rows[-1]).lattice == reference_lll_reduce(cold)


def dense_scan(rows, weights, S, M, assp_map):
    """`lattice._scan_reduced` on dense rows, entry by entry: the reference for its packed test."""
    n = len(weights)
    for vec in rows:
        if vec[n] or any(abs(v) != 1 for v in vec[:n]):
            continue
        for sign in (1, -1):
            x = tuple((sign * v + 1) // 2 for v in vec[:n])
            if not any(x) or sum(b * w for b, w in zip(x, weights)) % M != S:
                continue
            if assp_map is None or block_from_kappa(kappa_from_assignment(x, assp_map),
                                                    max(i for i, _ in assp_map)) is not None:
                return x
    return None


@st.composite
def scan_cases(draw):
    """(row, weights, S, M): a row of +-1s with 0s, +-2s and +-3s among them and
    any last entry, and a sum that the row's x, its complement or neither meets."""
    n = draw(st.integers(1, 8))
    near = st.sampled_from([1, -1, 1, -1, 1, -1, 0, 2, -2, 3, -3])
    row = draw(st.lists(near, min_size=n, max_size=n)) + [draw(st.sampled_from([0, 0, 1, -1, 2]))]
    assume(any(row))
    M = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(0, M - 1), min_size=n, max_size=n))
    return row, weights, draw(st.integers(0, M - 1)), M


@settings(max_examples=400, deadline=None)
@given(scan_cases(), st.integers(0, 70))
def test_packed_sign_test_matches_a_dense_scan(case, extra_bits):
    # A one-row basis keeps its row as given, so the scan sees exactly it, at
    # the row's own slot width and at one widened as a wider row would.
    row, weights, S, M = case
    want = dense_scan([row], weights, S, M, None)
    basis = ReducedBasis([row])
    assert lattice._scan_reduced(basis, weights, S, M, None) == want
    basis._widen([1 << basis._bits + extra_bits - 1])
    assert basis.lattice.rows == (tuple(row),)
    assert lattice._scan_reduced(basis, weights, S, M, None) == want


def test_packed_sign_test_on_fixed_rows():
    weights, n = (0,) * 5, 5  # every x meets S = 0 mod 1, so only the +-1 test decides
    cases = {
        (1, -1, 1, -1, 1, 0): (1, 0, 1, 0, 1),  # sign + first
        (-1, -1, -1, -1, -1, 0): (1, 1, 1, 1, 1),  # sign + gives x = 0, so sign -
        (1, 1, 1, 1, 1, 0): (1, 1, 1, 1, 1),
        (1, -1, 1, -1, 1, 1): None,  # a nonzero last column
        (1, -1, 1, -1, 1, -1): None,
        (1, -1, 0, -1, 1, 0): None,  # a zero beside +-1s
        (1, -1, 2, -1, 1, 0): None,
        (1, -1, -2, -1, 1, 0): None,
        (1, 3, -1, -3, 1, 0): None,
        (-2, 1, 1, 1, 1, 0): None,  # -2 + 1 borrows from the next slot
        (1, 1, 1, 1, -3, 0): None,
    }
    for row, want in cases.items():
        assert lattice._scan_reduced(ReducedBasis([row]), weights, 0, 1, None) == want
        assert dense_scan([row], weights, 0, 1, None) == want
    # sign - alone meets the sum: x = (0, 1, 0, 1, 0) has 2 + 8 = 10
    row = (1, -1, 1, -1, 1, 0)
    assert lattice._scan_reduced(ReducedBasis([row]), (1, 2, 4, 8, 16), 10, 32, None) == (0, 1, 0, 1, 0)
