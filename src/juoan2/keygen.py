"""Key generation: extra superincreasing sequences, modulus, units, lever, public transform.

`capacity` holds the sequence bound's prefix sums; decryption's tree walk
reads it.  The weighted sum is that table's last entry, summed from the
same running sums without building the table, and the sequence check runs
them lazily, so it stops at the first violation.

Per-position random integers are read from `rng.getrandbits` by the
rejection loop under CPython's `Random.randrange(n)`: n.bit_length() bits,
redrawn until below n.  Values and generator state equal those of
`randint`, `randrange` and `sample` on CPython 3.10-3.13, so seeded keys and
ciphertexts stay pinned, without the three Python frames each stdlib call
passes through.  `_below` makes one draw; the lever and `draws_below` run
the loop inline, as a `_below` call per draw cost n = 128 keygen about 5 %
in the lever, and took 255 coin flips from 37 to 54 microseconds.

`PublicKey` and `PrivateKey` are NamedTuples: immutable, compared and hashed
as the tuple of their fields.  A frozen dataclass would do the same, but
generates and compiles six methods per class on every import.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from random import Random
from typing import Callable, NamedTuple, Sequence

from .errors import DegeneratePublicElementError, ParameterError, SequenceTooLargeError

# Lower bound on the modulus bit length is ceil(1.585 * n_tilde); 1.585 = 317/200
# is kept as an exact rational so the bound never wobbles with float rounding.
_LG_RATIO_NUM = 317
_LG_RATIO_DEN = 200


class PublicKey(NamedTuple):
    C: tuple[int, ...]
    M: int
    n_payload: int

    @property
    def n_tilde(self) -> int:
        return len(self.C)


class PrivateKey(NamedTuple):
    A: tuple[int, ...]  # the extra superincreasing sequence
    neg_w: int
    delta_inv: int
    M: int
    n_payload: int

    @property
    def n_tilde(self) -> int:
        return len(self.A)


def capacity(seq: Sequence[int]) -> tuple[list[int], list[int]]:
    """Running sums (plain, bound), each of length n + 1.

    plain[i] is the sum of A_j and bound[i] the sum of (i-j)*A_j, over the
    0-based j < i, so bound is the running sum of plain.  With L set bits
    above position i, the positions below it can absorb at most
    L*plain[i] + bound[i]: key validity and decryption both rest on this
    one bound.
    """
    plain = list(accumulate(seq, initial=0))
    return plain, list(accumulate(plain[1:], initial=0))


def weighted_sum(seq: Sequence[int]) -> int:
    """Sum of (n+1-i) * A_i, the budget the modulus must exceed.

    That is `capacity`'s last bound entry: the sum of the running sums.
    """
    return sum(accumulate(seq))


def ceil_lg(m: int) -> int:
    """Ceiling of log2(m) for m >= 1, computed exactly."""
    if m < 1:
        raise ParameterError(f"ceil_lg needs m >= 1, got {m}")
    return (m - 1).bit_length()


def min_modulus_bits(n_tilde: int) -> int:
    """Smallest admissible ceil(lg M), i.e. ceil(1.585 * n_tilde)."""
    return -((-_LG_RATIO_NUM * n_tilde) // _LG_RATIO_DEN)


def max_modulus_bits(n_tilde: int) -> int:
    """Largest admissible ceil(lg M), 2 * n_tilde; keygen always draws this many."""
    return 2 * n_tilde


def first_violation(seq: Sequence[int]) -> int:
    """1-based index of the first element breaking the sequence rule, or 0.

    The rule: A_1 >= 1, A_2 > A_1 + 1, and every later A_i exceeds the
    weighted prefix sum of (i-j)*A_j over j < i.  That is `capacity`'s
    bound, but computed lazily by the same two running sums rather than
    read from the table, so it stops at the first violation holding two
    integers: `decode_key` runs it on untrusted keys.
    """
    bounds = accumulate(accumulate(seq), initial=0)
    for i, (x, b) in enumerate(zip(seq, bounds)):
        if x <= b + (i == 1):  # i == 0: b is 0; i == 1: b is A_1
            return i + 1
    return 0


def _below(n: int, getrandbits: Callable[[int], int]) -> int:
    """A draw in [0, n) for n >= 1, from rng.getrandbits: the stream of rng.randrange(n)."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def draws_below(n: int, count: int, rng: Random) -> list[int]:
    """`count` draws in [0, n) for n >= 1: the stream of as many rng.randrange(n) calls.

    draws_below(2, count, rng) is the stream of count rng.randint(0, 1) coin flips.
    """
    getrandbits = rng.getrandbits
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def gen_extra_superincreasing(n_tilde: int, rng: Random) -> tuple[int, ...]:
    """Randomly generate a valid sequence.

    Each element lands uniformly in (bound, 2*bound] above its structural
    lower bound.  The resulting weighted sum has roughly 1.67 bits per
    position: comfortably inside the 2-bits-per-position modulus ceiling,
    but above the lg 3 bits per position that the plaintext/noise pattern
    space occupies, so targets rarely admit more than one decomposition.
    Minimal-growth sequences (weighted sums near 1.43 bits per position)
    would leave every shifted residue with exponentially many decompositions,
    making decryption intractable.  Even with every draw at its maximum the
    weighted sum fits in 2*n_tilde bits for every n_tilde >= 4.
    """
    if n_tilde < 2:
        raise ParameterError(f"n_tilde must be >= 2, got {n_tilde}")
    getrandbits = rng.getrandbits
    a = [rng.randint(1, 4)]
    plain = a[0]
    bound = a[0]  # sum of (i-j)*A_j for the *next* position
    for i in range(1, n_tilde):
        lower = a[0] + 1 if i == 1 else bound
        a.append(lower + 1 + _below(lower, getrandbits))  # lower + randint(1, lower)
        plain += a[-1]
        bound += plain
    return tuple(a)


def select_modulus(seq: Sequence[int], rng: Random) -> int:
    """Sample M > weighted_sum(seq) with ceil(lg M) = 2n, the top of the admissible window.

    The window's floor, ceil(1.585 n), is exactly the bit budget of the
    plaintext/noise pattern space, so a modulus near it would make
    ciphertexts measurably ambiguous.  Raises SequenceTooLargeError when the
    weighted sum needs more than 2n bits.
    """
    if not seq:
        raise ParameterError("empty sequence")
    total = weighted_sum(seq)
    bits = max_modulus_bits(len(seq))
    if total.bit_length() > bits:
        raise SequenceTooLargeError(
            f"weighted sum needs {total.bit_length()} bits, ceiling is {bits}"
        )
    low = max(total, 1 << (bits - 1))  # M in (low, 2^bits]
    return rng.randint(low + 1, 1 << bits)


def sample_units(M: int, rng: Random) -> tuple[int, int, int, int]:
    """Pick W and an invertible delta; return (W, delta, -W mod M, delta^-1 mod M)."""
    if M < 3:
        raise ParameterError(f"modulus must be >= 3, got {M}")
    w = rng.randint(1, M - 1)
    while True:
        delta = rng.randint(1, M - 1)
        if gcd(delta, M) == 1:
            break
    return w, delta, M - w, pow(delta, -1, M)


def sample_lever(n_tilde: int, rng: Random) -> tuple[int, ...]:
    """Uniform injection ell of positions 1..n_tilde into [1, 2*n_tilde], as (ell(1), ...).

    The draws are those of rng.sample(range(1, 2*n_tilde + 1), n_tilde), which
    always takes its pool branch here: the population 2*n_tilde never exceeds
    its set size 21 + 4**ceil(log4(3*n_tilde)) >= 3*n_tilde (21 alone for
    n_tilde <= 5).  Each step draws j below the pool's live length, takes
    pool[j] and moves the pool's last live entry into the vacancy.
    """
    if n_tilde < 1:
        raise ParameterError(f"n_tilde must be >= 1, got {n_tilde}")
    getrandbits = rng.getrandbits
    pool = list(range(1, 2 * n_tilde + 1))
    lever = []
    for last in range(2 * n_tilde - 1, n_tilde - 1, -1):  # the live pool is pool[:last + 1]
        k = (last + 1).bit_length()
        j = getrandbits(k)
        while j > last:
            j = getrandbits(k)
        lever.append(pool[j])
        pool[j] = pool[last]
    return tuple(lever)


def derive_public(
    seq: Sequence[int],
    w: int,
    delta: int,
    lever: Sequence[int],
    M: int,
    n_payload: int,
) -> PublicKey:
    """Compute C_i = (A_i + W * ell(i)) * delta mod M; every element must be nonzero.

    Each element is formed as A_i*delta + (W*delta mod M)*ell(i): A_i has
    about 1.67*i bits, not M's 2*n_tilde, and ell(i) is tiny, so both
    products and the reduction are shorter than those of the plain form.
    The lever is transient: keygen draws it, passes it here and drops it.
    """
    if not seq:
        raise ParameterError("empty sequence")
    if len(seq) != len(lever):
        raise ParameterError("sequence and lever lengths differ")
    if gcd(delta, M) != 1:
        raise ParameterError("delta is not invertible mod M")
    wd = w * delta % M
    c = tuple((a * delta + wd * e) % M for a, e in zip(seq, lever))
    if 0 in c:
        raise DegeneratePublicElementError("public element hit zero; resample")
    return PublicKey(c, M, n_payload)


def keygen(n_payload: int, rng: Random) -> tuple[PublicKey, PrivateKey]:
    """Full pipeline; units and lever are redrawn until no public element is zero.

    The sequence always fits the modulus ceiling (n_tilde = 3*n_payload/2 >= 6),
    so select_modulus never raises here.  The lever never leaves this frame.
    """
    if n_payload < 4 or n_payload % 2:
        raise ParameterError(f"n_payload must be even and >= 4, got {n_payload}")
    n_tilde = 3 * n_payload // 2
    seq = gen_extra_superincreasing(n_tilde, rng)
    M = select_modulus(seq, rng)
    while True:
        w, delta, neg_w, delta_inv = sample_units(M, rng)
        lever = sample_lever(n_tilde, rng)
        try:
            pub = derive_public(seq, w, delta, lever, M, n_payload)
        except DegeneratePublicElementError:
            continue
        return pub, PrivateKey(seq, neg_w, delta_inv, M, n_payload)
