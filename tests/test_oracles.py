"""Brute-force oracles: exhaustive ground truth at desk scale."""

from functools import cache
from itertools import product
from random import Random

import pytest

from juoan2 import ParameterError, keygen
from juoan2.cryptanalysis import (
    brute_force_assp,
    check_property2,
    ciphertext_multiplicity,
)
from juoan2.encrypt import (
    BitBlock,
    NoiseVector,
    anomalous_sum,
    compute_L,
    encrypt_block,
    extend_block,
    sample_noise,
)
from juoan2.keygen import PublicKey

from conftest import ALT_SEQ, REF_A, REF_BITS, REF_M, REF_S, time_limit


def effective_noise(bits, noise):
    """The 1-based noise positions that count: a zero bit with a set bit at or above it."""
    levels = compute_L(bits)
    return frozenset(i + 1 for i in range(len(bits)) if noise[i] and not bits[i] and levels[i] > 0)


def test_reference_sum_has_unique_preimage(ref_pub):
    hits = brute_force_assp(ref_pub, REF_S)
    # Exactly one (block, noise-inclusion) pattern sums to 3204: the
    # reference block with noise effective at positions 6 and 7.
    assert hits == [(REF_BITS, frozenset({6, 7}))]


def test_every_oracle_hit_reencodes(ref_pub):
    for S in (0, 1, 607, 2034):
        for bits, noise in brute_force_assp(ref_pub, S):
            assert anomalous_sum(ref_pub, bits, sorted(noise)) == S


def test_oracle_agrees_with_encrypt_on_small_key():
    rng = Random(8)
    pub, _ = keygen(4, rng)  # n_tilde = 6
    for _ in range(10):
        bits = tuple(rng.randint(0, 1) for _ in range(6))
        if not any(bits):
            continue
        noise = tuple(rng.randint(0, 1) for _ in range(6))
        S = encrypt_block(pub, BitBlock(bits, 4), NoiseVector(noise)).S
        hits = brute_force_assp(pub, S)
        assert (bits, effective_noise(bits, noise)) in hits


def test_brute_force_bound():
    pub = PublicKey((1,) * 17, 1 << 40, 10)
    with pytest.raises(ParameterError):
        brute_force_assp(pub, 0)


@pytest.mark.parametrize("S", [-1, -377, REF_M, REF_S + REF_M])
def test_brute_force_refuses_a_sum_outside_the_modulus(ref_pub, S):
    # reduced mod M, REF_S + M and -377 would both match the reference preimage
    with pytest.raises(ParameterError, match=rf"target {S} outside \[0, {REF_M}\)"):
        brute_force_assp(ref_pub, S)


def test_brute_force_answers_a_genuine_block_at_n_tilde_15():
    rng = Random(12)
    pub, _ = keygen(10, rng)
    block = extend_block([rng.randint(0, 1) for _ in range(10)], rng)
    noise = sample_noise(15, rng)
    S = encrypt_block(pub, block, noise).S
    with time_limit(2):
        hits = brute_force_assp(pub, S)
    assert (block.bits, effective_noise(block.bits, noise.bits)) in hits
    for bits, included in hits:
        assert anomalous_sum(pub, bits, sorted(included)) == S


def test_brute_force_answers_at_its_bound():
    # n_tilde = 16 = MAX_BRUTE_N is answered, not refused; a walk over all 3^16
    # patterns takes about 3.5 s
    pub = PublicKey(tuple(3**i % 65521 for i in range(1, 17)), 65521, 16)
    bits = (0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0)
    included = frozenset({1, 4, 6, 11})
    S = anomalous_sum(pub, bits, included)
    with time_limit(2):
        hits = brute_force_assp(pub, S)
    assert (bits, included) in hits
    for hit_bits, hit_noise in hits:
        assert anomalous_sum(pub, hit_bits, sorted(hit_noise)) == S


@pytest.mark.parametrize("raw", [REF_A, ALT_SEQ])
@pytest.mark.parametrize("m", range(0, 9))
def test_property2_holds_for_reference_sequences(raw, m):
    assert check_property2(raw, m)


def test_property2_detects_collisions():
    # {1, 2, 4}: the pair (1, 2) gives 2*1 + 2 = 4, colliding with the
    # singleton 4 in the joint (m = 0) check.
    assert not check_property2((1, 2, 4), 0)
    assert check_property2((1, 2, 4), 2)


def test_property2_limit():
    seq = tuple(range(1, 40))
    with pytest.raises(ParameterError):
        check_property2(seq, 0)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: check_property2(REF_A, -1), r"subset size -1 outside \[0, 8\]"),
        (lambda: check_property2(REF_A, 9), r"subset size 9 outside \[0, 8\]"),
    ],
    ids=["m=-1", "m=n+1"],
)
def test_oracles_refuse_out_of_range_arguments(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


def test_multiplicity_reference_counts(ref_pub):
    assert ciphertext_multiplicity(ref_pub, BitBlock(REF_BITS, 8)) == 16
    assert ciphertext_multiplicity(ref_pub, BitBlock((1,) * 8, 8)) == 1


def test_multiplicity_argument_validation(ref_pub):
    with pytest.raises(ParameterError):
        ciphertext_multiplicity(ref_pub, BitBlock((1, 0), 2))


@cache
def reference_noise_terms(pub, bits):
    """Noise-free sum of a block, its free noise positions (1-based), and their terms."""
    levels = compute_L(bits)
    free = [i + 1 for i in range(len(bits)) if not bits[i] and levels[i] > 0]
    terms = [levels[p - 1] * pub.C[p - 1] % pub.M for p in free]
    return anomalous_sum(pub, bits, ()), free, terms


def reference_brute_force_assp(pub, S):
    """The per-mask bit loop that one subset-sum enumeration replaced: the reference."""
    n = pub.n_tilde
    out = []
    for bits in product((0, 1), repeat=n):
        base, free, terms = reference_noise_terms(pub, bits)
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


def reference_ciphertext_multiplicity(pub, block):
    """The set doubling that one subset-sum enumeration replaced: the reference."""
    base, _, terms = reference_noise_terms(pub, block.bits)
    sums = {base}
    for term in terms:
        sums |= {(s + term) % pub.M for s in sums}
    return len(sums)


def test_brute_force_matches_the_mask_loop_on_every_sum():
    # the small modulus of the second key makes one block's noise subsets
    # share sums, so the order of hits within a block is checked too
    for pub in (keygen(4, Random(10))[0], PublicKey((1, 2, 3, 5, 8, 13), 17, 4)):
        for S in range(pub.M):
            assert brute_force_assp(pub, S) == reference_brute_force_assp(pub, S), S


def test_brute_force_matches_the_mask_loop_at_odd_n_tilde():
    # n_tilde = 9 splits into halves of 4 and 5 positions
    rng = Random(13)
    for _ in range(2):
        pub, _ = keygen(6, rng)
        targets = [rng.randrange(pub.M) for _ in range(3)]
        for _ in range(3):
            block = extend_block([rng.randint(0, 1) for _ in range(6)], rng)
            targets.append(encrypt_block(pub, block, sample_noise(9, rng)).S)
        for S in targets:
            assert brute_force_assp(pub, S) == reference_brute_force_assp(pub, S), S


@pytest.mark.parametrize(
    "pub",
    [
        PublicKey((3,), 5, 1),
        PublicKey((4, 4), 7, 2),
        PublicKey((5, 9), 17, 2),
        PublicKey((1, 2, 3), 4, 2),
        PublicKey((6, 11, 13), 17, 2),
    ],
    ids=["n1", "n2-equal", "n2", "n3-M4", "n3"],
)
def test_brute_force_matches_the_mask_loop_on_degenerate_splits(pub):
    # halves of zero or one position, and moduli small enough that hits collide
    for S in range(pub.M):
        assert brute_force_assp(pub, S) == reference_brute_force_assp(pub, S), S


def test_multiplicity_matches_the_set_doubling():
    rng = Random(11)
    for _ in range(20):
        pub, _ = keygen(8, rng)
        block = extend_block([rng.randint(0, 1) for _ in range(8)], rng)
        assert ciphertext_multiplicity(pub, block) == reference_ciphertext_multiplicity(pub, block)


def test_multiplicity_refuses_more_than_2_to_the_20_subsets():
    # 21 free positions under one set bit: 2^21 subsets, refused before any is summed
    pub = PublicKey((1,) * 22, 1 << 60, 22)
    with pytest.raises(ParameterError, match="enumeration bound"):
        ciphertext_multiplicity(pub, BitBlock((0,) * 21 + (1,), 22))
