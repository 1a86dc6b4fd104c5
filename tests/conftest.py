"""Shared fixtures: the worked ntilde=8 reference key and its vectors, and a time limit."""

import signal
from contextlib import contextmanager

import pytest

from juoan2 import PrivateKey, derive_public, encrypt_block, extend_block, sample_noise

REF_A = (2, 4, 11, 29, 76, 199, 523, 1368)
REF_M = 3581
REF_W = 863
REF_DELTA = 1128
REF_DELTA_INV = 1127
REF_NEG_W = 2718
REF_LEVER = (13, 2, 9, 7, 8, 3, 6, 11)
REF_C = (2034, 3376, 134, 88, 2402, 746, 2833, 607)
REF_BITS = (1, 0, 1, 0, 1, 0, 0, 1)
REF_NOISE = (0, 0, 1, 0, 0, 1, 1, 1)
REF_S = 3204
REF_S0 = 1260
REF_K = 115
REF_INTERMEDIATE = 2283
REF_BRANCHES = ("one", "noise", "noise", "one", "skip", "one", "skip", "one")

# A second extra superincreasing sequence used by uniqueness checks.
ALT_SEQ = (1, 3, 8, 21, 54, 139, 367, 960)

# Hand-built private keys that decode_key refuses, with the reason it gives.
# M = 64 000 is 16 bits, inside the window for n = 8; the weighted sum of
# 16 * REF_A is 16 * 3570 = 57 120.
REFUSED_PRIVATE_KEYS = {
    "negative-field": (PrivateKey(REF_A, -1, 1, 64000, 8), "NW must be nonnegative"),
    "modulus-below-3": (PrivateKey(REF_A, 1, 1, 2, 8), "modulus too small: 2"),
    "modulus-at-the-budget": (
        PrivateKey(tuple(16 * a for a in REF_A), 1, 1, 57120, 8),
        "modulus does not exceed the weighted sequence sum",
    ),
    "delta-inverse-not-a-unit": (PrivateKey(REF_A, 1, 2, 64000, 8), "DI shares a factor with M"),
}

# A key whose retry step -W = 4000 divides M = 64 000: from S = 3999 the
# residues 3999 + 4000 k mod M take 16 values, all above the budget 3570,
# so the jump search finds none.  NW need not be a unit; DI must be.
NO_RESIDUE_PRV = PrivateKey(REF_A, 4000, 1, 64000, 8)
NO_RESIDUE_PUB = derive_public(REF_A, 64000 - 4000, 1, REF_LEVER, 64000, n_payload=8)
NO_RESIDUE_S = 3999

# Payload lists (8 bits a block) whose message framing decrypt_message
# refuses, with the reason it gives.
BAD_FRAMINGS = {
    "no-blocks": ([], "empty ciphertext list"),
    "no-terminator": ([(0,) * 8], "terminal padding marker missing"),
    "partial-byte": ([(1, 1) + (0,) * 6], "recovered payload is not a whole number of bytes"),
}


def property1_reference(a, k):
    """Property 1 at level k, O(n^2): (k+1)*A_i > sum of (k+i-j)*A_j over j < i, for i > 1."""
    return all((k + 1) * a[i] > sum((k + i - j) * a[j] for j in range(i)) for i in range(1, len(a)))


def encrypt_payloads(pub, payloads, rng):
    """One ciphertext per payload, each padded by extend_block, with fresh noise."""
    return [encrypt_block(pub, extend_block(p, rng), sample_noise(pub.n_tilde, rng))
            for p in payloads]


@pytest.fixture(scope="session")
def ref_pub():
    return derive_public(REF_A, REF_W, REF_DELTA, REF_LEVER, REF_M, n_payload=8)


@pytest.fixture(scope="session")
def ref_prv():
    return PrivateKey(REF_A, REF_NEG_W, REF_DELTA_INV, REF_M, n_payload=8)


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the enclosed code once it has run `seconds` of wall time.

    Appends that reuse one ReducedBasis loop without end if a fault changes
    the base under its kept Gram-Schmidt data; this makes that a failure.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
