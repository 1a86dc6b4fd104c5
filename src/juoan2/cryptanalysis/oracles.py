"""Brute-force oracles that ground-truth small instances."""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb, gcd
from random import Random
from typing import Sequence

from ..encrypt import BitBlock, anomalous_sum, compute_L
from ..errors import ParameterError
from ..keygen import ExtraSuperincreasingSeq, PublicKey, first_violation, weighted_sum

MAX_BRUTE_N = 16
MAX_ENUM_BITS = 20


def brute_force_assp(pub: PublicKey, S: int) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """All (block bits, included noise positions) patterns whose sum is S.

    Noise positions with zero multiplicity contribute nothing and are never
    included, so each returned pattern is a distinct sum decomposition.
    """
    n = pub.n_tilde
    if n > MAX_BRUTE_N:
        raise ParameterError(f"enumeration bounded at n={MAX_BRUTE_N}, got {n}")
    out = []
    for bits in product((0, 1), repeat=n):
        base, free, terms = _noise_terms(pub, bits)
        for mask in range(1 << len(free)):
            total = base
            m = mask
            j = 0
            while m:
                if m & 1:
                    total += terms[j]
                m >>= 1
                j += 1
            if total % pub.M == S:
                included = frozenset(free[j] for j in range(len(free)) if mask >> j & 1)
                out.append((bits, included))
    return out


def _noise_terms(pub: PublicKey, bits: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """Noise-free sum of a block, its free noise positions (1-based), and their terms.

    A position is free when its bit is zero and its multiplicity L is nonzero;
    including it adds L*C_i mod M to the sum.
    """
    levels = compute_L(bits)
    free = [i + 1 for i in range(len(bits)) if not bits[i] and levels[i] > 0]
    terms = [levels[p - 1] * pub.C[p - 1] % pub.M for p in free]
    return anomalous_sum(pub, bits, ()), free, terms


def check_property2(seq: ExtraSuperincreasingSeq, m: int, limit: int = 1 << 22) -> bool:
    """Distinctness of weighted ordered-subset sums m*A_x1 + ... + 1*A_xm.

    m = 0 checks all subset sizes jointly (sums must be distinct across
    sizes too).  Raises if the enumeration would exceed `limit` sums.
    """
    n = seq.n_tilde
    sizes = range(1, n + 1) if m == 0 else [m]
    if m < 0 or m > n:
        raise ParameterError(f"subset size {m} outside [0, {n}]")
    if sum(comb(n, s) for s in sizes) > limit:
        raise ParameterError("combinatorial bound exceeded")
    seen: set[int] = set()
    for size in sizes:
        for subset in combinations(seq.A, size):
            total = sum((size - t) * a for t, a in enumerate(subset))
            if total in seen:
                return False
            seen.add(total)
    return True


def search_alternative_keys(
    pub: PublicKey, lever_bound: int
) -> list[tuple[tuple[int, ...], int, int, tuple[int, ...]]]:
    """Exhaustively find every (A', W', delta', lever') explaining the public key.

    Tiny parameters only: the scan is over all invertible delta', all W' in
    (1, M), and all injections of positions into [1, lever_bound], keeping
    tuples whose derived sequence is extra superincreasing within the
    modulus budget.  The genuine key always appears.
    """
    M = pub.M
    n = pub.n_tilde
    if M > 1 << 16 or n > 4:
        raise ParameterError("exhaustive key search is bounded to M <= 2^16, n <= 4")
    if lever_bound < n:
        raise ParameterError("lever bound smaller than the position count")
    found = []
    for delta in range(1, M):
        if gcd(delta, M) != 1:
            continue
        inv = pow(delta, -1, M)
        targets = [c * inv % M for c in pub.C]
        for w in range(2, M):
            for lever in permutations(range(1, lever_bound + 1), n):
                a = [(targets[i] - w * lever[i]) % M for i in range(n)]
                if first_violation(a) == 0 and weighted_sum(a) < M:
                    found.append((tuple(a), w, delta, lever))
    return found


def ciphertext_multiplicity(
    pub: PublicKey,
    block: BitBlock,
    mode: str = "enumerate",
    trials: int = 10_000,
    rng: Random | None = None,
) -> int:
    """Count distinct ciphertexts of one block over the noise space.

    Enumerate mode walks all noise-inclusion patterns over zero positions
    with nonzero multiplicity (bounded at 2^20); sample mode draws random
    noise vectors.
    """
    n = pub.n_tilde
    if block.n_total != n:
        raise ParameterError(f"block length {block.n_total} does not match key n={n}")
    if mode == "enumerate":
        base, free, terms = _noise_terms(pub, block.bits)
        if len(free) > MAX_ENUM_BITS:
            raise ParameterError(f"{len(free)} free noise bits exceed the enumeration bound")
        sums = {base}
        for term in terms:
            sums |= {(s + term) % pub.M for s in sums}
        return len(sums)
    if mode == "sample":
        if rng is None:
            raise ParameterError("sample mode needs an rng")
        seen = set()
        for _ in range(trials):
            # one draw per zero bit, in position order
            noise = [i + 1 for i in range(n) if not block.bits[i] and rng.randint(0, 1)]
            seen.add(anomalous_sum(pub, block.bits, noise))
        return len(seen)
    raise ParameterError(f"unknown mode {mode!r}")
