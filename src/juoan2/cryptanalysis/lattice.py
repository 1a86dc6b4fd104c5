"""Subset-sum attack lattices and the reduction-based recovery procedure."""

from __future__ import annotations

from math import isqrt
from typing import Sequence

from ..errors import ParameterError
from ..keygen import PublicKey
# basis_from_generators and lll_reduce are unused here, but kept: the benchmark's
# traced run wraps them by name in this module.
from .lll import DEFAULT_DELTA, IntegerLattice, ReducedBasis, basis_from_generators, lll_reduce  # noqa: F401

# (position, power) per expanded bit-variable
VarMap = tuple[tuple[int, int], ...]


def _embedding_rows(weights: Sequence[int], target: int) -> tuple[list[tuple[int, ...]], int]:
    """Rows (2e_i | scale*w_i) and (1, ..., 1 | scale*target), and the scale.

    The scale is the smallest integer above sqrt(n+1), so any vector with a
    nonzero last coordinate is longer than a (+-1 | 0) solution.
    """
    n = len(weights)
    if n < 1:
        raise ParameterError("need at least one weight")
    scale = isqrt(n + 1) + 1
    rows = []
    for i, w in enumerate(weights):
        row = [0] * (n + 1)
        row[i] = 2
        row[n] = scale * w
        rows.append(tuple(row))
    rows.append(tuple([1] * n + [scale * target]))
    return rows, scale


def _check_target(S: int, M: int) -> None:
    if not 0 <= S < M:
        raise ParameterError(f"target {S} outside [0, {M})")


def build_ssp_lattice(weights: Sequence[int], S: int, M: int) -> IntegerLattice:
    """Doubled-coordinate embedding of the modular subset sum into a lattice.

    Rows are generators, not a basis: the modulus row makes wraparound sums
    reachable but is linearly dependent on the rest over the rationals.
    A 0/1 solution x appears as the vector (2x - 1 | 0) of norm sqrt(n).
    """
    rows, scale = _embedding_rows(weights, S)
    _check_target(S, M)
    rows.append(tuple([0] * len(weights) + [scale * M]))
    return IntegerLattice(tuple(rows))


def build_plain_ssp_lattice(weights: Sequence[int], T: int) -> IntegerLattice:
    """Doubled-coordinate embedding of the exact (non-modular) sum T.

    Without a modulus row every coefficient relation must hold over the
    integers, so short junk vectors are rare at low density.  A 0/1 solution
    x of sum(x_i w_i) = T appears as (2x - 1 | 0) of norm sqrt(n).
    """
    rows, _ = _embedding_rows(weights, T)
    return IntegerLattice(tuple(rows))


def expand_assp_to_ssp(pub: PublicKey) -> tuple[tuple[int, ...], VarMap]:
    """Rewrite the anomalous sum as a plain subset sum over bit variables.

    Position i's multiplicity is at most n - i + 1, so it gets one bit
    variable per binary digit of that cap, with weights 2^t * C_i mod M.

    Positions are listed from n down to 1, the order in which decryption
    and `block_from_kappa` scan them.  The reducer takes the weight rows in
    this order, and with the low positions' wide doubling groups 2^t * C_i
    entering last, the weight-row reduction at 94 weights (n = 24) makes
    under half the size reductions of ascending order and takes about 60 %
    of its time; the gap widens as n grows.
    """
    n = pub.n_tilde
    C, M = pub.C, pub.M
    weights = []
    var_map = []
    for i in range(n, 0, -1):
        for t in range((n - i + 1).bit_length()):
            weights.append((C[i - 1] << t) % M)
            var_map.append((i, t))
    return tuple(weights), tuple(var_map)


def kappa_from_assignment(x: Sequence[int], var_map: VarMap) -> dict[int, int]:
    """Rebuild per-position multiplicities from an expanded bit assignment."""
    kappa: dict[int, int] = {}
    for bit, (i, t) in zip(x, var_map):
        if bit:
            kappa[i] = kappa.get(i, 0) + (1 << t)
    return kappa


def block_from_kappa(kappa: dict[int, int], n_tilde: int) -> tuple[int, ...] | None:
    """Map multiplicities back to plaintext bits, or None if inconsistent.

    Scanning from the high position down with a running count L, a valid
    multiplicity is L+1 (a set bit), L with L > 0 (a noise term), or 0.
    """
    bits = [0] * n_tilde
    level = 0
    for i in range(n_tilde, 0, -1):
        k = kappa.get(i, 0)
        if k == level + 1:
            level += 1
            bits[i - 1] = 1
        elif k and k != level:
            return None
    return tuple(bits)


def _scan_reduced(
    reduced: ReducedBasis,
    weights: Sequence[int],
    S: int,
    M: int,
    assp_map: VarMap | None,
) -> tuple[int, ...] | None:
    """The first verified bits x read off a reduced row +-(2x - 1 | 0), or None.

    The rows of that shape are picked out packed, as the basis keeps them
    (`ReducedBasis.sign_rows`): -(2x - 1 | 0) is (2(1 - x) - 1 | 0), so one
    test finds both signs.  Both signs of a row are tried, + first, as both
    pass the sum check when 2S == sum(weights) (mod M) and only one may
    decode to a block.
    """
    n = len(weights)
    if assp_map is not None:
        n_tilde = max(i for i, _ in assp_map)
    for plus in reduced.sign_rows(n):
        for x in (plus, tuple(1 - b for b in plus)):
            if not any(x) or sum(b * w for b, w in zip(x, weights)) % M != S:
                continue
            # x is nonzero, so kappa is too, and its block is None or has a set bit
            if assp_map is None or block_from_kappa(
                    kappa_from_assignment(x, assp_map), n_tilde) is not None:
                return x
    return None


class SubsetSumAttack:
    """The lattice attack on one weight vector, reduced once for any number of targets.

    Calling the object with a target S in [0, M) returns solution bits over
    `weights`, or None; with `assp_map`, a candidate must also decode to a
    structurally consistent block.  Each guess of the wraparound count m
    gets the exact-sum lattice for S + m*M, with no modulus row (Coster,
    Joux, LaMacchia, Odlyzko, Schnorr and Stern, "Improved low-density
    subset sum algorithms", 1992).  Only its last row depends on S and m, so
    the constructor reduces the weight rows once and every guess of every
    call appends its target row to a copy of that reduction.  `ReducedBasis`
    takes in each weight row, on a column of its own, and each target row
    after the first, which differ only in the embedding column, with n
    products for its coefficients and O(1) big-integer work for its Gram
    determinant, and each guess's reduced rows are scanned packed, as the
    basis keeps them, in two big-integer operations a row: what a guess
    costs is the LLL loop from its row, and copying the base's list of
    rows.  When 2*(S + m*M) == sum(weights) the target row is half the sum
    of the weight rows, so the last weight row is twice the target row
    minus the others, and that guess reduces the same lattice from the
    other weight rows and the target row.  The guesses are
    m = 0 ... (sum(weights) - S) // M, or up to `max_wraps` if that is
    smaller, so the cap counts m from 0: the weights are >= 0, so the
    lattice of a target above their sum holds no (+-1 | 0) vector.  They are
    tried middle-out, by |2*(S + m*M) - sum(weights)| and then by m, as a
    planted solution's sum lies near half the weight sum: over 200 planted
    n = 20, 40-bit instances this cuts the guesses a call tries from 5.30 to
    2.49, with the same outputs.  The order changes an answer only when two
    guesses both verify.  Raises ParameterError when max_wraps is negative
    or a weight lies outside [0, M), and, on a call, when S is outside [0, M).
    """

    def __init__(self, weights: Sequence[int], M: int,
                 assp_map: VarMap | None = None, max_wraps: int | None = None) -> None:
        if max_wraps is not None and max_wraps < 0:
            raise ParameterError(f"max_wraps must be >= 0, got {max_wraps}")
        self.weights = tuple(weights)
        for i, w in enumerate(self.weights):
            if not 0 <= w < M:
                raise ParameterError(f"weight {i}: {w} outside [0, {M})")
        rows, self._scale = _embedding_rows(self.weights, 0)
        self._weight_rows, self._ones = rows[:-1], rows[-1][:-1]
        self._total = sum(self.weights)
        self.max_wraps = self._total // M if max_wraps is None else max_wraps
        self.M = M
        self.assp_map = assp_map
        self._base = ReducedBasis(self._weight_rows, DEFAULT_DELTA)

    def __call__(self, S: int) -> tuple[int, ...] | None:
        _check_target(S, self.M)
        total, M = self._total, self.M
        guesses = range(min((total - S) // M, self.max_wraps) + 1)
        for m in sorted(guesses, key=lambda m: (abs(2 * (S + m * M) - total), m)):
            T = S + m * M
            target_row = self._ones + (self._scale * T,)
            if 2 * T == total:
                reduced = ReducedBasis(self._weight_rows[:-1] + [target_row], DEFAULT_DELTA)
            else:
                reduced = self._base.appended(target_row)
            x = _scan_reduced(reduced, self.weights, S, M, self.assp_map)
            if x is not None:
                return x
        return None


def lattice_attack(
    weights: Sequence[int],
    S: int,
    M: int,
    assp_map: VarMap | None = None,
    max_wraps: int | None = None,
) -> tuple[int, ...] | None:
    """The one-call form of `SubsetSumAttack`: attack the one target S."""
    _check_target(S, M)  # before the weight rows are reduced
    return SubsetSumAttack(weights, M, assp_map, max_wraps)(S)
