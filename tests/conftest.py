"""Shared fixtures: the worked ntilde=8 reference key and its vectors, and a time limit."""

import signal
from contextlib import contextmanager

import pytest

from juoan2 import PrivateKey, derive_public

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
