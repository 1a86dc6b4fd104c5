"""Property checks of the single implementations against slow references."""

import math
import time
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from juoan2 import DecodeError, decode_key, gen_extra_superincreasing
from juoan2.cryptanalysis import assp_density_from_bits
from juoan2.encrypt import BitBlock, NoiseVector, anomalous_sum, compute_L, encrypt_block
from juoan2.keygen import PublicKey, first_violation, weighted_sum


def first_violation_reference(a):
    """The O(n^2) check: recompute each weighted prefix sum from scratch."""
    if a[0] < 1:
        return 1
    if len(a) > 1 and a[1] <= a[0] + 1:
        return 2
    for i in range(2, len(a)):
        if a[i] <= sum((i - j) * a[j] for j in range(i)):
            return i + 1
    return 0


def threshold_reference(a, i):
    """Largest value the element at 0-based index i may not take."""
    if i == 0:
        return 0
    if i == 1:
        return a[0] + 1
    return sum((i - j) * a[j] for j in range(i))


@st.composite
def near_rule_sequences(draw):
    """Sequences whose every element sits a few units either side of its bound."""
    offsets = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=16))
    a = []
    for i, off in enumerate(offsets):
        a.append(threshold_reference(a, i) + off)
    return a


@given(near_rule_sequences())
def test_first_violation_matches_reference_near_the_bound(a):
    assert first_violation(a) == first_violation_reference(a)


@given(st.lists(st.integers(-3, 1 << 20), min_size=1, max_size=12))
def test_first_violation_matches_reference_on_arbitrary_lists(a):
    assert first_violation(a) == first_violation_reference(a)


@st.composite
def keys_blocks_noise(draw):
    n = draw(st.integers(4, 32))
    M = draw(st.integers(3, 1 << 80))
    C = tuple(draw(st.lists(st.integers(1, M - 1), min_size=n, max_size=n)))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any))
    noise = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return PublicKey(C, M, n), tuple(bits), tuple(noise)


@given(keys_blocks_noise())
def test_anomalous_sum_matches_encrypt_block(case):
    pub, bits, noise = case
    positions = [i + 1 for i in range(len(noise)) if noise[i]]
    S = encrypt_block(pub, BitBlock(bits, len(bits)), NoiseVector(noise)).S
    assert anomalous_sum(pub, bits, positions) == S
    # the definition: L_i * C_i over set bits and noise at zero bits
    levels = compute_L(bits)
    terms = (levels[i] * pub.C[i] for i in range(len(bits)) if bits[i] or noise[i])
    assert sum(terms) % pub.M == S


def test_long_private_key_is_rejected_in_linear_time():
    a = gen_extra_superincreasing(3999, Random(4000)).A
    a += (weighted_sum(a),)  # the 4000th element equals its bound
    text = "\n".join([
        "JUOAN2 PRIVATE KEY v1",
        "n=4000",
        "np=4000",
        f"M={weighted_sum(a) + 1:x}",
        "A=" + ",".join(format(x, "x") for x in a),
        "NW=1",
        "DI=1",
    ])
    start = time.perf_counter()
    with pytest.raises(DecodeError, match="index 4000"):
        decode_key(text)
    # the quadratic check took over 3 s here; the linear one takes milliseconds
    assert time.perf_counter() - start < 1.0


def test_assp_density_matches_exact_factorial():
    for n in range(1, 201):
        exact = math.log2(math.factorial(n))
        report = assp_density_from_bits(n, 2 * n)
        assert report.density == pytest.approx(exact / (2 * n), rel=1e-12, abs=0)
        assert report.lower_bound == pytest.approx(exact / (2 * n), rel=1e-12, abs=0)

