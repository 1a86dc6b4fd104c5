"""Exact-arithmetic LLL lattice basis reduction and basis utilities.

Gram-Schmidt data is kept as integers (Gram determinants d_i and scaled
coefficients lambda_ij = mu_ij * d_j; Cohen, "A Course in Computational
Algebraic Number Theory", Alg. 2.6.7, after de Weger, 1987), so every
comparison is exact; this is algebraically identical to rational
Gram-Schmidt but avoids fraction normalization.  One recurrence step
(`_projected`) computes that data as a general row joins, in O(k^2)
big-integer work for a row joining k others (a swap updates it by its own
formula): `ReducedBasis` keeps it after a reduction, so a row can be
appended to a reduced basis without reducing the rest again, and the
reducedness checks `is_size_reduced` and `lovasz_holds` read it directly.
The coefficients are linear in the row, so `ReducedBasis` also keeps them
for the unit vector e of the last column, the subset-sum embedding column,
with one more integer, E, the Gram determinant of the rows and e.  Unimodular
steps leave E as it is and a join updates it in O(1); from the two, the
weight and target rows of the attack lattices join with their Gram
determinant in O(1) big-integer work and their coefficients in O(k).
The reducer stores basis rows sparsely, as {column: nonzero entry}: the
subset-sum bases of the attack stay mostly zero while they are reduced, so a
row update or a dot product costs the nonzero entries of a row, not its
width.  The integral arithmetic and its order are those of a dense reducer,
so the reduced rows are the same.  `lll_reduce` is the one-shot form of the
reducer; `gram_schmidt` (rational) is the reference the tests compare these
against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from ..errors import ParameterError

DEFAULT_DELTA = Fraction(3, 4)


class _Rows(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class IntegerLattice(_Rows):
    """Row-generated integer lattice.  Rows need not be independent.

    A NamedTuple of one field, `rows`, checked here as it is built; `_make`
    and `_replace` skip the check.
    """

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]) -> IntegerLattice:
        if not rows:
            raise ParameterError("lattice needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ParameterError("rows have unequal lengths")
        return super().__new__(cls, rows)

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


def _projected(u: int, x: Sequence[int], y: Sequence[int], d: list[int]) -> int:
    """d[k] * <a, c*>, for c* the part of c orthogonal to the first k rows, k = len(y).

    The integral Gram-Schmidt recurrence, in one place: from u = <a, c> and
    the coefficients x = lambda(a), y = lambda(c) against the first k rows,
    each step u <- (d[i+1] * u - x_i * y_i) // d[i] divides exactly.  With
    c = b_k it gives lambda_k(a); with a = c, the next Gram determinant.
    """
    for i in range(len(y)):
        u = (d[i + 1] * u - x[i] * y[i]) // d[i]
    return u


def _coefficients(row: Sequence[int], b: list[dict[int, int]], d: list[int],
                  lam: list[list[int]]) -> list[int]:
    """lambda_j(row) = d[j] * <row, b*_j> for every row b_j of b, by the general recurrence.

    The rows b are stored sparsely, as {column: nonzero entry}; `row` is
    dense.  d[i] is the Gram determinant of the first i rows and lam[k][j]
    is lambda_j(b_k) = mu_kj * d[j+1] for j < k; both stay integers.  Each
    dot product runs over the support of a row of b, then O(k^2) big-integer
    work for k rows.  lambda_j is linear in `row`.
    """
    mu: list[int] = []
    for bj, lam_j in zip(b, lam):
        mu.append(_projected(sum(x * row[c] for c, x in bj.items()), mu, lam_j, d))
    return mu


def _join(row: dict[int, int], mu: list[int], u: int, b: list[dict[int, int]], d: list[int],
          lam: list[list[int]]) -> None:
    """Append the sparse `row`, whose coefficients against b are `mu` and
    whose Gram determinant with b is `u`, to the rows b.

    Raises ParameterError, leaving b, d and lam unchanged, if u == 0: the
    row depends on b.
    """
    if u == 0:
        raise ParameterError(f"basis is rank deficient at row {len(b) + 1}")
    b.append(row)
    d.append(u)
    lam.append(mu)


def _gram_data(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data (d, lam) of independent rows, by the general recurrence.

    Raises ParameterError on rows of unequal length or dependent rows.
    """
    b, d, lam = [], [1], []
    for row in rows:
        if len(row) != len(rows[0]):
            raise ParameterError("rows have unequal lengths")
        mu = _coefficients(row, b, d, lam)
        u = _projected(sum(x * x for x in row), mu, mu, d)
        _join({c: x for c, x in enumerate(row) if x}, mu, u, b, d, lam)
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
    plus one more row at the cost of that row alone: incorporating it, then
    the same loop from it, instead of an O(n^3) reduction from scratch.

    Incorporating a row takes O(n^2) big-integer work in general, but O(n)
    for the two shapes the subset-sum attack feeds in, of which the Gram
    determinant and lambda_k(e) take O(1).  The coefficients
    lambda_j(x) = d_j * <x, b*_j> are linear in x, and the basis keeps
    lambda(e) current for e, the unit vector of its last column (the
    embedding column): a join extends it by one coefficient and a swap
    updates it like a row below the swapped pair.  It also keeps
    E = d_k * |e*|^2, the Gram determinant of its k rows and e: E starts at
    1, no size reduction or swap changes it (each is unimodular), and a join
    of b_k sets it to (d_{k+1} * E - lambda_k(e)^2) // d_k.  A row
    x = r + t*e takes lambda(x) = lambda(r) + t*lambda(e), where
    - r is zero on every used column, the union of the supports of the rows
      (a weight row (2e_i | s*w_i)): then lambda(r) = 0, r is orthogonal to
      the rows and to e, d_{k+1} = d_k * |r|^2 + t^2 * E and
      lambda_k(e) = t * E.  No unimodular transform changes that union, so
      the basis keeps it as a set that each join extends;
    - `appended` computes lambda(r) by the general recurrence, with
      R = d_k * |r*|^2 and X = d_k * <r*, e*>, and keeps them for the last r
      it met: then d_{k+1} = R + 2t * X + t^2 * E and lambda_k(e) = X + t * E,
      so the rows that differ only in the last column (every wrap guess's
      target row (1, ..., 1 | s*T)) pay for the recurrence once per base.
    Every other row given to the constructor takes the general recurrence.
    Every path gives the same integers, so the reduction is the same
    whichever path a row took.

    Rows are stored sparsely, as {column: nonzero entry} dicts of one common
    width, and size reduction updates them in place over the support of the
    row subtracted; subset-sum bases stay mostly zero, so this skips most of
    each dense row update.  `sparse_rows` gives them as they are kept, and
    `lattice` as dense tuples.

    Raises ParameterError on dependent rows, rows of unequal length, or
    delta outside (1/4, 1).
    """

    def __init__(self, rows: Iterable[Sequence[int]] = (), delta: Fraction = DEFAULT_DELTA):
        if not Fraction(1, 4) < delta < 1:
            raise ParameterError(f"delta must lie in (1/4, 1), got {delta}")
        self.delta = delta
        self._width = 0  # the length of every row, set by the first
        self._b: list[dict[int, int]] = []
        self._d = [1]  # integral Gram-Schmidt data, as `_coefficients` defines it
        self._lam: list[list[int]] = []
        self._probe: list[int] = []  # lambda_j(e) for e the unit vector of the last column
        self._gram_e = 1  # the Gram determinant of (the rows, e)
        self._used: set[int] = set()  # the columns but the last where some row is nonzero
        self._shared: tuple[tuple[int, ...], list[int], int, int] | None = None  # see `appended`
        for row in rows:
            self._push(row)

    @property
    def sparse_rows(self) -> list[dict[int, int]]:
        """The rows as {column: nonzero entry} dicts, not copied: read them, do not change them."""
        return self._b

    @property
    def lattice(self) -> IntegerLattice:
        dense = []
        for row in self._b:
            out = [0] * self._width
            for c, x in row.items():
                out[c] = x
            dense.append(tuple(out))
        return IntegerLattice(tuple(dense))

    def appended(self, row: Sequence[int]) -> ReducedBasis:
        """The reduction of these rows plus `row`, as a new object; self is unchanged.

        Every row dict is copied: the reduction updates rows in place, so a
        shared one would change this basis under its kept data.  This basis
        keeps lambda(r), R and X (see the class) for r the last `row` it was
        given with its last entry set to 0, so a row that differs from that
        one only in its last entry costs O(n) to incorporate.
        """
        head = None
        if len(row) == self._width:  # else `_push` raises
            key = tuple(row[:-1])
            if self._shared is None or self._shared[0] != key:
                d = self._d
                lam_r = _coefficients(key + (0,), self._b, d, self._lam)
                self._shared = (key, lam_r, _projected(sum(x * x for x in key), lam_r, lam_r, d),
                                _projected(0, lam_r, self._probe, d))
            head = self._shared[1:]
        new = ReducedBasis(delta=self.delta)
        new._width = self._width
        new._b = [dict(r) for r in self._b]
        new._d = list(self._d)
        new._lam = [list(r) for r in self._lam]
        new._probe = list(self._probe)
        new._gram_e = self._gram_e
        new._used = set(self._used)
        new._push(row, head)
        return new

    def _push(self, row: Sequence[int], head: tuple[list[int], int, int] | None = None) -> None:
        """Join `row` and reduce; `head` is (lambda(r), R, X) for r the row
        with its last entry set to 0, if known (see the class)."""
        if not self._b:
            self._width = len(row)
        if len(row) != self._width:
            raise ParameterError("rows have unequal lengths")
        b, d, lam, probe, E = self._b, self._d, self._lam, self._probe, self._gram_e
        sparse = {c: x for c, x in enumerate(row) if x}
        t = sparse.get(self._width - 1, 0)  # the entry in the last column
        if head is not None:
            lam_r, R, X = head
            mu = [h + t * c for h, c in zip(lam_r, probe)]
            u, lam_e = R + 2 * t * X + t * t * E, X + t * E
        elif self._used.isdisjoint(sparse):
            mu = [t * c for c in probe]
            u, lam_e = d[-1] * (sum(x * x for x in sparse.values()) - t * t) + t * t * E, t * E
        else:
            mu = _coefficients(row, b, d, lam)
            u = _projected(sum(x * x for x in sparse.values()), mu, mu, d)
            lam_e = _projected(t, probe, mu, d)
        _join(sparse, mu, u, b, d, lam)
        probe.append(lam_e)  # lambda_k(e) for the new row b_k
        self._gram_e = (u * E - lam_e * lam_e) // d[-2]
        self._used.update(sparse)
        self._used.discard(self._width - 1)
        if len(b) > 1:
            self._reduce_last()

    def _reduce_last(self) -> None:
        """LLL loop from the last row, given that the rows before it are reduced."""
        b, d, lam, probe = self._b, self._d, self._lam, self._probe
        p, q = self.delta.numerator, self.delta.denominator
        k = kmax = len(b) - 1

        def size_reduce(k: int, j: int) -> None:
            if 2 * abs(lam[k][j]) > d[j + 1]:
                r = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])  # nearest integer, not 0
                bk = b[k]
                for c, y in b[j].items():
                    x = bk.get(c, 0) - r * y
                    if x:
                        bk[c] = x
                    else:  # only an entry of b[k] can cancel, as r * y != 0
                        del bk[c]
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
                for li in lam[k + 1:] + [probe]:  # the rows below, then lambda(e) like one
                    t = li[k]
                    li[k] = (d[k + 1] * li[k - 1] - lam_ * t) // d[k]
                    li[k - 1] = (new_dk * t + lam_ * li[k]) // d[k + 1]
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
