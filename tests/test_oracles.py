"""Brute-force oracles: exhaustive ground truth at desk scale."""

from random import Random

import pytest

from juoan2 import ExtraSuperincreasingSeq, ParameterError, keygen
from juoan2.cryptanalysis import (
    brute_force_assp,
    check_property2,
    ciphertext_multiplicity,
    reencode_assp_sum,
    search_alternative_keys,
)
from juoan2.encrypt import BitBlock, NoiseVector, encrypt_block
from juoan2.keygen import LeverPermutation, PublicKey, derive_public

from conftest import ALT_SEQ, REF_A, REF_BITS, REF_S


def test_reference_sum_has_unique_preimage(ref_pub):
    hits = brute_force_assp(ref_pub, REF_S)
    # Exactly one (block, noise-inclusion) pattern sums to 3204: the
    # reference block with noise effective at positions 6 and 7.
    assert hits == [(REF_BITS, frozenset({6, 7}))]


def test_every_oracle_hit_reencodes(ref_pub):
    for S in (0, 1, 607, 2034):
        for bits, noise in brute_force_assp(ref_pub, S):
            assert reencode_assp_sum(ref_pub, bits, sorted(noise)) == S


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
        levels = [sum(bits[j] for j in range(i, 6)) for i in range(6)]
        effective = frozenset(
            i + 1 for i in range(6) if noise[i] and not bits[i] and levels[i] > 0
        )
        assert (bits, effective) in hits


def test_brute_force_bound():
    pub = PublicKey((1,) * 17, 1 << 40, 10)
    with pytest.raises(ParameterError):
        brute_force_assp(pub, 0)


@pytest.mark.parametrize("raw", [REF_A, ALT_SEQ])
@pytest.mark.parametrize("m", range(0, 9))
def test_property2_holds_for_reference_sequences(raw, m):
    assert check_property2(ExtraSuperincreasingSeq(raw), m)


def test_property2_detects_collisions():
    # {1, 2, 4}: the pair (1, 2) gives 2*1 + 2 = 4, colliding with the
    # singleton 4 in the joint (m = 0) check.
    assert not check_property2(ExtraSuperincreasingSeq((1, 2, 4)), 0)
    assert check_property2(ExtraSuperincreasingSeq((1, 2, 4)), 2)


def test_property2_limit():
    seq = ExtraSuperincreasingSeq(tuple(range(1, 40)))
    with pytest.raises(ParameterError):
        check_property2(seq, 0, limit=100)


def test_alternative_key_search_finds_genuine_key():
    seq = ExtraSuperincreasingSeq((1, 3))
    lever = LeverPermutation((1, 2))
    M, w, delta = 17, 5, 3
    pub = derive_public(seq, w, delta, lever, M, n_payload=2)
    found = search_alternative_keys(pub, lever_bound=4)
    assert ((1, 3), w, delta, (1, 2)) in found
    # Every reported tuple really explains the public elements.
    for a, w2, d2, lv in found:
        assert all(
            (a[i] + w2 * lv[i]) * d2 % M == pub.C[i] for i in range(2)
        )


def test_multiplicity_reference_counts(ref_pub):
    assert ciphertext_multiplicity(ref_pub, BitBlock(REF_BITS, 8)) == 16
    assert ciphertext_multiplicity(ref_pub, BitBlock((1,) * 8, 8)) == 1


def test_multiplicity_sample_mode_converges(ref_pub):
    exact = ciphertext_multiplicity(ref_pub, BitBlock(REF_BITS, 8))
    sampled = ciphertext_multiplicity(
        ref_pub, BitBlock(REF_BITS, 8), mode="sample", trials=2000, rng=Random(0)
    )
    assert sampled == exact


def test_multiplicity_argument_validation(ref_pub):
    with pytest.raises(ParameterError):
        ciphertext_multiplicity(ref_pub, BitBlock((1, 0), 2))
    with pytest.raises(ParameterError):
        ciphertext_multiplicity(ref_pub, BitBlock(REF_BITS, 8), mode="sample")
    with pytest.raises(ParameterError):
        ciphertext_multiplicity(ref_pub, BitBlock(REF_BITS, 8), mode="nope")
