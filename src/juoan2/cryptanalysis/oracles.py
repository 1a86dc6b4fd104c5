"""Exhaustive oracles that ground-truth small instances.

`brute_force_assp` still finds every preimage of a sum; it meets in the
middle rather than walking all 3^n (bits, noise) patterns.  It and
`ciphertext_multiplicity` share one noise-subset enumeration, `_noise_sums`.
"""

from __future__ import annotations

from itertools import combinations, compress, product
from math import comb
from typing import Sequence

from ..encrypt import BitBlock, anomalous_sum, compute_L
from ..errors import ParameterError
from ..keygen import PublicKey

MAX_BRUTE_N = 16
MAX_ENUM_BITS = 20
MAX_PROPERTY2_SUMS = 1 << 22


def brute_force_assp(pub: PublicKey, S: int) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """All (block bits, included noise positions) patterns whose sum is S.

    The search is exhaustive, but it meets in the middle (Horowitz and
    Sahni, 1974): two halves of about 3^(n/2) patterns each in place of 3^n.
    The positions split into a low half 1..h and a high half h+1..n, with
    h = n // 2.  The halves are coupled only through the high half's
    popcount L, which every low position's multiplicity starts from.  The
    high half is enumerated once, into one table per L, keyed by S minus
    its sum mod M.  The low half is enumerated once at entry level L for
    each L the high half reaches, and each of its sums is looked up in that
    L's table.  Hits are sorted by block bits, then by included positions
    read as a binary number with position n most significant: the order of
    a loop over every block and then every noise mask.

    Noise positions with zero multiplicity contribute nothing and are never
    included, so each returned pattern is a distinct sum decomposition.
    Raises past n = MAX_BRUTE_N and for S outside [0, M), before enumerating.
    """
    n = pub.n_tilde
    if n > MAX_BRUTE_N:
        raise ParameterError(f"enumeration bounded at n={MAX_BRUTE_N}, got {n}")
    if not 0 <= S < pub.M:
        raise ParameterError(f"target {S} outside [0, {pub.M})")
    h = n // 2
    wanted: dict[int, dict[int, list[tuple[tuple[int, ...], list[int], int]]]] = {}
    for high in product((0, 1), repeat=n - h):
        free, sums = _noise_sums(pub, high, h)
        table = wanted.setdefault(sum(high), {})
        for mask, total in enumerate(sums):
            table.setdefault((S - total) % pub.M, []).append((high, free, mask))
    hits = []
    for level, table in wanted.items():
        for low in product((0, 1), repeat=h):
            free, sums = _noise_sums(pub, low, 0, level)
            if table.keys().isdisjoint(sums):
                continue
            for mask, total in enumerate(sums):
                for high, high_free, high_mask in table.get(total, ()):
                    noise = _included(free, mask) | _included(high_free, high_mask)
                    hits.append((low + high, noise))
    hits.sort(key=lambda hit: (hit[0], sum(1 << p for p in hit[1])))
    return hits


def _included(free: Sequence[int], mask: int) -> frozenset[int]:
    return frozenset(free[j] for j in range(len(free)) if mask >> j & 1)


def _noise_sums(
    pub: PublicKey, bits: Sequence[int], start: int = 0, entry: int = 0
) -> tuple[list[int], list[int]]:
    """Free noise positions (1-based) of a run of bits, and its sums mod M over every subset.

    The bits sit at positions start+1 .. start+len(bits), under `entry`
    set bits above them, so position i's multiplicity L is entry plus the
    run's set bits at or above i.  A position is free when its bit is zero
    and L is nonzero; including it adds L*C_i mod M.  The empty subset's
    sum is the anomalous sum of the block with every bit outside the run
    zero, plus entry times the C_i of the run's set bits.  Subset j, holding
    free[t] exactly when bit t of j is set, has its sum at index j.  Raises
    past 2^MAX_ENUM_BITS subsets, before enumerating.  A whole block is the
    run from position 1 at entry 0.
    """
    levels = [entry + level for level in compute_L(bits)]
    free = [start + i + 1 for i in range(len(bits)) if not bits[i] and levels[i] > 0]
    if len(free) > MAX_ENUM_BITS:
        raise ParameterError(f"{len(free)} free noise bits exceed the enumeration bound")
    C, M = pub.C, pub.M
    base = anomalous_sum(pub, (0,) * start + tuple(bits), ())
    base += entry * sum(compress(C[start:], bits))
    sums = [base % M]
    for p in free:
        term = levels[p - start - 1] * C[p - 1]
        sums += [(s + term) % M for s in sums]
    return free, sums


def check_property2(seq: Sequence[int], m: int) -> bool:
    """Distinctness of weighted ordered-subset sums m*A_x1 + ... + 1*A_xm.

    m = 0 checks all subset sizes jointly (sums must be distinct across
    sizes too).  Raises if the enumeration would exceed MAX_PROPERTY2_SUMS sums.
    """
    n = len(seq)
    sizes = range(1, n + 1) if m == 0 else [m]
    if m < 0 or m > n:
        raise ParameterError(f"subset size {m} outside [0, {n}]")
    if sum(comb(n, s) for s in sizes) > MAX_PROPERTY2_SUMS:
        raise ParameterError("combinatorial bound exceeded")
    seen: set[int] = set()
    for size in sizes:
        for subset in combinations(seq, size):
            total = sum((size - t) * a for t, a in enumerate(subset))
            if total in seen:
                return False
            seen.add(total)
    return True


def ciphertext_multiplicity(pub: PublicKey, block: BitBlock) -> int:
    """Count distinct ciphertexts of one block over the noise space.

    Walks all noise-inclusion patterns over zero positions with nonzero
    multiplicity, bounded at 2^MAX_ENUM_BITS patterns.
    """
    n = pub.n_tilde
    if block.n_total != n:
        raise ParameterError(f"block length {block.n_total} does not match key n={n}")
    return len(set(_noise_sums(pub, block.bits)[1]))
