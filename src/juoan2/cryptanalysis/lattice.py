"""Subset-sum attack lattices and the reduction-based recovery procedure."""

from __future__ import annotations

from math import isqrt
from typing import Sequence

from ..encrypt import anomalous_sum as reencode_assp_sum  # the oracle-side name
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


def build_ssp_lattice(weights: Sequence[int], S: int, M: int) -> IntegerLattice:
    """Doubled-coordinate embedding of the modular subset sum into a lattice.

    Rows are generators, not a basis: the modulus row makes wraparound sums
    reachable but is linearly dependent on the rest over the rationals.
    A 0/1 solution x appears as the vector (2x - 1 | 0) of norm sqrt(n).
    """
    rows, scale = _embedding_rows(weights, S)
    if not 0 <= S < M:
        raise ParameterError(f"target {S} outside [0, {M})")
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
    """
    n = pub.n_tilde
    weights = []
    var_map = []
    for i in range(1, n + 1):
        for t in range((n - i + 1).bit_length()):
            weights.append((pub.C[i - 1] << t) % pub.M)
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


def _solution_from_vector(
    vec: Sequence[int], n: int, weights: Sequence[int], S: int, M: int
) -> tuple[int, ...] | None:
    """Decode a reduced vector of shape +-(2x - 1 | 0) into verified bits x."""
    if vec[n] != 0 or any(abs(v) != 1 for v in vec[:n]):
        return None
    for sign in (1, -1):
        x = tuple((sign * v + 1) // 2 for v in vec[:n])
        if any(x) and sum(b * w for b, w in zip(x, weights)) % M == S:
            return x
    return None


def _scan_reduced(
    reduced: IntegerLattice,
    weights: Sequence[int],
    S: int,
    M: int,
    assp_map: VarMap | None,
) -> tuple[int, ...] | None:
    n = len(weights)
    for vec in reduced.rows:
        x = _solution_from_vector(vec, n, weights, S, M)
        if x is None:
            continue
        if assp_map is not None:
            n_tilde = max(i for i, _ in assp_map)
            block = block_from_kappa(kappa_from_assignment(x, assp_map), n_tilde)
            if block is None or not any(block):
                continue
        return x
    return None


def lattice_attack(
    weights: Sequence[int],
    S: int,
    M: int,
    assp_map: VarMap | None = None,
    max_wraps: int | None = None,
) -> tuple[int, ...] | None:
    """LLL attack lattices and scan reduced rows for a verified solution.

    Returns the solution bits over `weights`, or None.  With `assp_map`, a
    candidate must additionally decode to a structurally consistent block.

    Each guess of the wraparound count m gets the exact-sum lattice for
    S + m*M, with no modulus row (the embedding of Coster, Joux, LaMacchia,
    Odlyzko, Schnorr and Stern, "Improved low-density subset sum
    algorithms", 1992).  Only its last row depends on m, so the weight rows
    are reduced once per call and each guess appends its target row to a
    copy of that reduction.  When 2*(S + m*M) == sum(weights) the target row
    is half the sum of the weight rows, so the last weight row is twice the
    target row minus the others, and that guess reduces the same lattice
    from the other weight rows and the target row.  m is below len(weights)
    because each weight is below M (a larger m makes the target exceed the
    sum of all weights), so `max_wraps`, which caps the guesses, is clamped
    to len(weights) - 1, its default.  Raises ParameterError when S is
    outside [0, M) or max_wraps is negative.
    """
    if not 0 <= S < M:
        raise ParameterError(f"target {S} outside [0, {M})")
    if max_wraps is not None and max_wraps < 0:
        raise ParameterError(f"max_wraps must be >= 0, got {max_wraps}")
    rows, scale = _embedding_rows(weights, S)
    weight_rows, ones = rows[:-1], rows[-1][:-1]
    ceiling = len(weights) - 1
    max_wraps = ceiling if max_wraps is None else min(max_wraps, ceiling)
    base = ReducedBasis(weight_rows, DEFAULT_DELTA)
    total = sum(weights)
    for m in range(max_wraps + 1):
        T = S + m * M
        target_row = ones + (scale * T,)
        if 2 * T == total:
            reduced = ReducedBasis(weight_rows[:-1] + [target_row], DEFAULT_DELTA).lattice
        else:
            reduced = base.appended(target_row).lattice
        x = _scan_reduced(reduced, weights, S, M, assp_map)
        if x is not None:
            return x
    return None
