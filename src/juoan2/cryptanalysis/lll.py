"""Exact-arithmetic LLL lattice basis reduction and basis utilities.

Gram-Schmidt data is kept as integers (Gram determinants d_i and scaled
coefficients lambda_ij = mu_ij * d_j; Cohen, "A Course in Computational
Algebraic Number Theory", Alg. 2.6.7, after de Weger, 1987), so every
comparison is exact; this is algebraically identical to rational
Gram-Schmidt but avoids fraction normalization.  One recurrence step
(`_projected`) computes that data as a general row joins, in O(k^2)
big-integer work for a row joining k others (a swap moves the two rows'
coefficient lists and updates those of the rows below by its own formula):
`ReducedBasis` keeps it after a reduction, so a row can be appended to a
reduced basis without reducing the rest again, and the reducedness checks
`is_size_reduced` and `lovasz_holds` read it directly.  The coefficients
are linear in the row, so `ReducedBasis` also keeps them for e, the unit
vector of the last (subset-sum embedding) column, updated beside the rows
below on a swap, with E, the Gram determinant of the rows and e; a row
r + t*e then joins by one formula from t and r's head, which is zero where
r misses the columns the rows use and shared by rows that differ only in
t: the attack's rows join in O(1) big-integer work for their Gram
determinant, O(k) for the rest.
The same data answers, before a row joins, whether the lattice it would
give may hold a short vector (`ReducedBasis.may_hold`): by the row's
Gram determinant alone, or by a Schnorr-Euchner closest-vector search over
the kept data, pruned only with a margin above its rounding error; the
attack skips a wrap guess that cannot verify by it.
The reducer stores each basis row as one integer, its entries packed as
balanced base-2^W digits (Kronecker substitution), so a size reduction is
one big-integer multiply-subtract and a swap swaps two integers; the rows
are decoded only in reduced states, where every entry fits its slot (see
`ReducedBasis`).  The integral arithmetic and its order are those of a
dense reducer, so the reduced rows are the same.  `lll_reduce` is the
one-shot form of the reducer; `gram_schmidt` (rational) is the reference
the tests compare these against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import exp, fsum, lgamma, log, pi
from operator import lshift, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

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


def _pack(row: Sequence[int], w: int) -> int:
    """The row as one integer, sum of x_c * 2^(w*c): its entries become balanced base-2^w digits."""
    return sum(map(lshift, row, range(0, w * len(row), w)))


def _unpack(packed: Iterable[int], width: int, w: int) -> list[list[int]]:
    """The `width` entries of each packed row, each of which must lie in [-2^(w-1), 2^(w-1)).

    Adding 2^(w-1) to every slot makes each digit nonnegative and below
    2^w, so the digits are the w-bit fields of the sum, with no carries.
    """
    half, mask = 1 << w - 1, (1 << w) - 1
    offset = ((1 << w * width) - 1) // mask * half
    shifts = range(0, w * width, w)
    return [[(q >> s & mask) - half for s in shifts] for q in [p + offset for p in packed]]


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


def _coefficients(row: Sequence[int], b: Sequence[Sequence[int]], d: list[int],
                  lam: list[list[int]]) -> list[int]:
    """lambda_j(row) = d[j] * <row, b*_j> for every row b_j of b, by the general recurrence.

    d[i] is the Gram determinant of the first i rows and lam[k][j] is
    lambda_j(b_k) = mu_kj * d[j+1] for j < k; both stay integers.  One dot
    product per row of b, then O(k^2) big-integer work for k rows.
    lambda_j is linear in `row`.
    """
    mu: list[int] = []
    for bj, lam_j in zip(b, lam):
        mu.append(_projected(sum(map(mul, bj, row)), mu, lam_j, d))
    return mu


def _join(row: Sequence[int] | int, mu: list[int], u: int, b: list, d: list[int],
          lam: list[list[int]]) -> None:
    """Append `row`, whose coefficients against b are `mu` and whose Gram
    determinant with b is `u`, to the rows b, dense or packed like it.

    Raises ParameterError, leaving b, d and lam unchanged, if u == 0: the
    row depends on b, and ArithmeticError if u < 0: only corrupt Gram-Schmidt
    data gives that, and the LLL loop would never end on it.
    """
    if u < 0:
        raise ArithmeticError(f"negative Gram determinant at row {len(b) + 1}: corrupt Gram-Schmidt data")
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
        u = _projected(sum(map(mul, row, row)), mu, mu, d)
        _join(row, mu, u, b, d, lam)
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
    for the rows the subset-sum attack feeds in, of which the Gram
    determinant and lambda_k(e) take O(1).  The coefficients
    lambda_j(x) = d_j * <x, b*_j> are linear in x, and the basis keeps
    lambda(e) current for e, the unit vector of its last column (the
    embedding column): a join extends it by one coefficient and a swap
    updates it like a row below the swapped pair.  It also keeps
    E = d_k * |e*|^2, the Gram determinant of its k rows and e: E starts at
    1, no size reduction or swap changes it (each is unimodular), and a join
    of b_k sets it to (d_{k+1} * E - lambda_k(e)^2) // d_k.  Every row
    x = r + t*e, with r zero in the last column, joins by one formula from
    the head of r, (lambda(r), R, X) with R = d_k * |r*|^2 and
    X = d_k * <r*, e*> (`_head`):
        lambda(x) = lambda(r) + t * lambda(e),
        d_{k+1} = R + 2t * X + t^2 * E,  lambda_k(e) = X + t * E.
    The head is (0, d_k * |r|^2, 0) when r is zero on every used column,
    where some row is nonzero, as for a weight row (2e_i | s*w_i): r is then
    orthogonal to the rows and to e.  No unimodular transform changes the
    used columns, so the basis keeps them as a set that each join extends.
    Otherwise the general recurrence computes the head.  `appended` keeps
    the head of the last r it met, so the rows that differ only in the last
    column (every wrap guess's target row (1, ..., 1 | s*T)) pay for the
    recurrence once per base.  The formula is exact, so the reduction is
    the same however the head was computed.

    Each row x is stored as one integer, sum of x_c * 2^(W*c), and the
    reduction updates those integers exactly: a size reduction is one
    multiply-subtract and a swap exchanges two of them.  The map is linear,
    so a packed row stays the image of its true row whatever the entries
    grow to in the middle of a reduction; it decodes uniquely when every
    entry lies in [-2^(W-1), 2^(W-1)), and it is decoded only in reduced
    states (`lattice`, a head by the general recurrence, the attack's
    scan), where every entry does.  W = bitlen(m) + bitlen(width)
    + 1 for m the largest |entry| of any row joined so far: LLL never raises
    the largest |b*_i|, and a join adds a b* no longer than its row, so every
    |b*_i| <= N, the largest norm of a row joined, and N^2 <= width * m^2.
    The i-th row (from 1) of a size-reduced basis has
    |b_i|^2 <= N^2 * (i + 3) / 4, and i <= width, so each entry of a reduced
    basis is at most width * m < 2^(W-1).  A row that needs a wider
    slot first repacks the rows kept, which keeps their values; `appended`
    widens this basis so that its copies need not.  `lattice` decodes the
    rows, and `sign_rows` picks out the rows of +-1s without decoding them.

    Raises ParameterError on dependent rows, rows of unequal length, or
    delta outside (1/4, 1).
    """

    def __init__(self, rows: Iterable[Sequence[int]] = (), delta: Fraction = DEFAULT_DELTA):
        if not Fraction(1, 4) < delta < 1:
            raise ParameterError(f"delta must lie in (1/4, 1), got {delta}")
        self.delta = delta
        self._width = 0  # the length of every row, set by the first
        self._bits = 0  # bitlen of the largest |entry| of any row joined
        self._slot = 1  # W, the slot width of the packed rows
        self._b: list[int] = []  # the rows, packed
        self._d = [1]  # integral Gram-Schmidt data, as `_coefficients` defines it
        self._lam: list[list[int]] = []
        self._probe: list[int] = []  # lambda_j(e) for e the unit vector of the last column
        self._gram_e = 1  # the Gram determinant of (the rows, e)
        self._used: set[int] = set()  # the columns but the last where some row is nonzero
        self._shared: tuple[tuple[int, ...], list[int], int, int] | None = None  # see `appended`
        self._tree: list[float] | None = None  # see `_near`
        for row in rows:
            self._push(row)

    def sign_rows(self, n: int) -> Iterator[tuple[int, ...]]:
        """x in {0, 1}^n for each row, in order, that is (2x - 1 | 0): +-1 on
        the first n columns and 0 on the rest.

        Each row P is tested packed, in two big-integer operations: with ONES
        the packed (1, ..., 1 | 0) of n ones, P is (2x - 1 | 0) exactly when
        P + ONES is (2x | 0), i.e. when it is >= 0 and has no bit but bit 1 of
        each of the first n slots, as the base-2^W digits of a reduced row
        are unique; x_c is then bit W*c + 1 of it.
        """
        w = self._slot
        ones = ((1 << w * n) - 1) // ((1 << w) - 1)
        gaps = ~(ones << 1)  # every bit of P + ONES that must be 0, the sign bits included
        for p in self._b:
            q = p + ones
            if not q & gaps:
                yield tuple((q >> w * c + 1) & 1 for c in range(n))

    @property
    def lattice(self) -> IntegerLattice:
        return IntegerLattice(tuple(map(tuple, self._rows())))

    def _rows(self) -> list[list[int]]:
        return _unpack(self._b, self._width, self._slot)

    def _widen(self, row: Sequence[int]) -> None:
        """Make the slots wide enough for `row` to join (see the class)."""
        bits = max(map(abs, row), default=0).bit_length()
        if bits > self._bits:
            rows = self._rows()
            self._bits = bits
            self._slot = bits + self._width.bit_length() + 1
            self._b = [_pack(r, self._slot) for r in rows]

    def appended(self, row: Sequence[int]) -> ReducedBasis:
        """The reduction of these rows plus `row`, as a new object; self keeps its rows.

        The rows are immutable integers, so the copy shares them; this basis
        first widens its slots for `row` if it must, so the copies do not
        repack.  It also keeps the head (see the class) of r, the last `row` it
        was given with its last entry set to 0, so a row that differs from
        that one only in its last entry costs O(n) to incorporate.
        """
        head = None
        if len(row) == self._width:  # else `_push` raises
            self._widen(row)
            head = self._shared_head(row)
        new = ReducedBasis(delta=self.delta)
        new._width, new._bits, new._slot = self._width, self._bits, self._slot
        new._b = list(self._b)
        new._d = list(self._d)
        new._lam = [list(r) for r in self._lam]
        new._probe = list(self._probe)
        new._gram_e = self._gram_e
        new._used = set(self._used)
        new._push(row, head)
        return new

    def may_hold(self, row: Sequence[int], radius_sq: int, c_min: int) -> bool:
        """Whether the lattice of these rows and `row` may hold a vector
        c*row + v, v in this lattice, of squared norm <= radius_sq with c = +-1
        or |c| >= c_min.  False is exact: it holds none; True may be a false alarm.

        The part of c*row + v off the span of these k rows is c*row*, so
        c^2 * u <= radius_sq * d_k, where u = d_k * |row*|^2 is the Gram
        determinant that `appended` would join `row` with, from the same
        shared head.  If c_min^2 * u meets that bound the answer is True;
        otherwise only c = +-1 is left, and the question is whether some point
        of this lattice lies within sqrt(radius_sq) of `row` (`_near`).
        """
        if len(row) != self._width:
            raise ParameterError("rows have unequal lengths")
        d = self._d
        lam_r, R, X = self._shared_head(row)
        t = row[-1]
        u = R + 2 * t * X + t * t * self._gram_e
        if c_min * c_min * u <= radius_sq * d[-1]:
            return True
        if u > radius_sq * d[-1]:
            return False
        return self._near(lam_r, t, radius_sq - u / d[-1], radius_sq)

    def _near(self, lam_r: list[int], t: int, budget: float, radius_sq: int) -> bool:
        """Whether some point v of this lattice may lie within sqrt(budget) of
        the projection of y = r + t*e on its span, given lam_r = lambda(r).

        For v = sum a_i b_i that squared distance is the sum over levels j of
        (N_j - a_j * d_{j+1})^2 / (d_j * d_{j+1}), with integer centers
        N_j = lambda_j(y) - sum_{i>j} a_i * lambda_ij.  Schnorr-Euchner
        enumeration (Schnorr and Euchner, 1994) fixes a_{k-1}, ..., a_0 in
        turn, each in zigzag order around N_j / d_{j+1}, along which the terms
        do not decrease, so a level ends at its first term past what is left.
        The terms are summed as correctly rounded floats, whose error over k
        levels stays under (2k + 3) * 2^-53 * radius_sq; a branch is pruned
        only past budget + (k + 2) * 2^-50 * radius_sq, so no point within
        sqrt(budget) is dropped.  A leaf answers True, and so, unsearched, does
        a Gaussian-heuristic estimate of the tree above 2k nodes (the `_tree`
        constants, kept per basis), or a search past 4k nodes.
        """
        d, lam, k = self._d, self._lam, len(self._lam)
        limit = budget + (k + 2) * 2.0 ** -50 * radius_sq
        if self._tree is None:  # ln(volume of the unit l-ball / volume of the last l levels)
            top = log(d[k])
            self._tree = [l / 2 * log(pi) - lgamma(l / 2 + 1) + (log(d[k - l]) - top) / 2
                          for l in range(1, k + 1)]
        half = log(limit) / 2
        logs = [c + l * half for l, c in enumerate(self._tree, 1)]
        if max(logs) > log(2 * k) or fsum(map(exp, logs)) > 2 * k:  # max first: exp may overflow
            return True
        lam_y = [h + t * c for h, c in zip(lam_r, self._probe)]  # only past the gate: dense bases skip it
        a, bound, nodes = [0] * k, 2 * radius_sq + 1, 4 * k  # limit < bound

        def search(j: int, spent: float) -> bool:
            nonlocal nodes
            D, den = d[j + 1], d[j] * d[j + 1]
            N = lam_y[j] - sum(x * r[j] for x, r in zip(a[j + 1:], lam[j + 1:]))
            x = (2 * N + D) // (2 * D)  # the nearest integer to N / D
            s = 1 if N > x * D else -1  # the side of it N / D lies on
            for i in count(1):
                e = (N - x * D) ** 2
                if e > bound * den:  # in integers first, so the float cannot overflow
                    return False
                total = spent + e / den
                if total > limit:
                    return False
                nodes -= 1
                if nodes < 0:
                    return True
                a[j] = x
                if j == 0 or search(j - 1, total):
                    return True
                x += s * i  # zigzag: offsets 0, s, -s, 2s, -2s, ...
                s = -s

        return search(k - 1, 0.0)

    def _shared_head(self, row: Sequence[int]) -> tuple[list[int], int, int]:
        """The head of r, `row` with its last entry set to 0, kept for the next row."""
        key = (*row[:-1], 0)
        if self._shared is None or self._shared[0] != key:
            self._shared = (key, *self._head(key))
        return self._shared[1:]

    def _head(self, r: Sequence[int]) -> tuple[list[int], int, int]:
        """(lambda(r), R, X) for a row r that is 0 in the last column (see the class)."""
        d, norm = self._d, sum(map(mul, r, r))
        if not any(map(r.__getitem__, self._used)):  # r is orthogonal to the rows and to e
            return [0] * len(self._b), d[-1] * norm, 0
        lam_r = _coefficients(r, self._rows(), d, self._lam)
        return lam_r, _projected(norm, lam_r, lam_r, d), _projected(0, lam_r, self._probe, d)

    def _push(self, row: Sequence[int], head: tuple[list[int], int, int] | None = None) -> None:
        """Join row = r + t*e by the one formula of the class and reduce; `head`
        is `_head(r)`, if known."""
        if not self._b:
            self._width = len(row)
        if len(row) != self._width:
            raise ParameterError("rows have unequal lengths")
        self._widen(row)
        d, probe, E = self._d, self._probe, self._gram_e
        r, t = (*row[:-1], 0), row[-1] if row else 0
        lam_r, R, X = head or self._head(r)
        mu = [h + t * c for h, c in zip(lam_r, probe)]
        u, lam_e = R + 2 * t * X + t * t * E, X + t * E
        _join(_pack(row, self._slot), mu, u, self._b, d, self._lam)
        probe.append(lam_e)  # lambda_k(e) for the new row b_k
        self._gram_e = (u * E - lam_e * lam_e) // d[-2]
        self._used.update(compress(range(len(r)), r))
        self._tree = None
        if len(self._b) > 1:
            self._reduce_last()

    def _reduce_last(self) -> None:
        """LLL loop from the last row, given that the rows before it are reduced.

        Each size-reduction test 2 * |lambda_kj| > d_{j+1} runs inline, and
        `size_reduce` runs only when it reduces.  A swap of rows k-1 and k
        moves their coefficient rows (the new lambda_{k-1} is the old
        lambda_k less its last entry, which the new lambda_k gains) and
        updates lambda(e) beside the rows below, by the same formula.
        """
        b, d, lam, probe = self._b, self._d, self._lam, self._probe
        p, q = self.delta.numerator, self.delta.denominator
        k = kmax = len(b) - 1

        def size_reduce(k: int, j: int) -> None:
            lam_k, lam_j, dj = lam[k], lam[j], d[j + 1]
            r = (2 * lam_k[j] + dj) // (2 * dj)  # nearest integer
            b[k] -= r * b[j]
            lam_k[j] -= r * dj
            for i in range(j):
                lam_k[i] -= r * lam_j[i]

        while k <= kmax:
            if 2 * abs(lam[k][k - 1]) > d[k]:
                size_reduce(k, k - 1)
            if q * (d[k - 1] * d[k + 1] + lam[k][k - 1] ** 2) < p * d[k] ** 2:
                # swap rows k-1 and k, updating the integral GS data in place
                b[k], b[k - 1] = b[k - 1], b[k]
                lam_ = lam[k].pop()
                lam[k - 1].append(lam_)
                lam[k], lam[k - 1] = lam[k - 1], lam[k]
                dk, dk1 = d[k], d[k + 1]
                new_dk = (d[k - 1] * dk1 + lam_ * lam_) // dk
                for li in lam[k + 1:]:  # the rows below
                    t = li[k]
                    li[k] = u = (dk1 * li[k - 1] - lam_ * t) // dk
                    li[k - 1] = (new_dk * t + lam_ * u) // dk1
                t = probe[k]  # then lambda(e), like one of them
                probe[k] = u = (dk1 * probe[k - 1] - lam_ * t) // dk
                probe[k - 1] = (new_dk * t + lam_ * u) // dk1
                d[k] = new_dk
                if k > 1:
                    k -= 1
                continue
            lam_k = lam[k]
            for j in range(k - 2, -1, -1):
                if 2 * abs(lam_k[j]) > d[j + 1]:
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
