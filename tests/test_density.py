"""Density metrics and the attack-regime classification."""

import math
from random import Random

import pytest

from juoan2 import (
    ParameterError,
    audit_decrypt_block,
    encrypt_block,
    extend_block,
    keygen,
    sample_noise,
)
from juoan2.cryptanalysis import (
    ambiguity_estimate,
    assp_density,
    assp_density_from_bits,
    classify,
    ssp_density,
    ssp_density_from_bits,
)


def test_reference_anomalous_density():
    report = assp_density(8, 3581)
    expected = math.log2(math.factorial(8)) / math.log2(3581)
    assert report.density == pytest.approx(expected, rel=1e-9)
    assert report.classification == "supercritical"


def test_lower_bound_crosses_one_at_n10():
    # lg(10!)/(2*10) > 1: with the modulus at its widest (2 bits/position),
    # the anomalous density still exceeds the solvable-regime ceiling.
    report = assp_density_from_bits(10, 20)
    assert report.lower_bound is not None
    assert report.lower_bound > 1
    at_eight = assp_density_from_bits(8, 16)
    assert at_eight.lower_bound < 1


def test_classification_thresholds():
    assert classify(1.01) == "supercritical"
    assert classify(0.9408) == "resistant"
    assert classify(0.95) == "resistant"
    assert classify(0.6463) == "borderline"
    assert classify(0.64) == "LLL-vulnerable"
    assert classify(0.1) == "LLL-vulnerable"


def test_plain_density_from_weights():
    weights = [1 << 39, (1 << 40) - 1] + list(range(1, 19))
    report = ssp_density(weights)
    assert report.density == pytest.approx(20 / math.log2((1 << 40) - 1))
    assert report.lower_bound is None


def test_plain_density_from_bits():
    assert ssp_density_from_bits(20, 40).density == pytest.approx(0.5)
    assert ssp_density_from_bits(20, 40).classification == "LLL-vulnerable"


@pytest.mark.parametrize("lg", [math.nan, math.inf, -math.inf, 0, -1])
def test_density_rejects_bad_bit_sizes(lg):
    with pytest.raises(ParameterError, match="positive finite bit size"):
        ssp_density_from_bits(10, lg)
    with pytest.raises(ParameterError, match="positive finite bit size"):
        assp_density_from_bits(10, lg)


@pytest.mark.parametrize(
    ("density", "n"),
    [
        (ssp_density_from_bits, 10**400),
        (assp_density_from_bits, 10**400),
        (assp_density_from_bits, 10**307),  # a float, but lg(n!) is not
    ],
)
def test_density_rejects_an_n_too_large_for_a_float(density, n):
    with pytest.raises(ParameterError, match="too large for a float"):
        density(n, 20)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: ssp_density(()), "need at least one weight, all positive"),
        (lambda: assp_density(8, 1), "modulus must be >= 2, got 1"),
    ],
    ids=["no-weights", "modulus-1"],
)
def test_density_rejects_degenerate_inputs(call, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


def test_ambiguity_estimate_formula():
    assert ambiguity_estimate(6, 3000) == 728 / 6000
    assert ambiguity_estimate(8, 3581) == (3**8 - 1) / (2 * 3581)
    assert ambiguity_estimate(1, 2) == 0.5
    # far below the smallest float at keygen's largest key: 0.0, no error
    assert ambiguity_estimate(6144, 1 << 12288) == 0.0
    for n_tilde, M in ((0, 3581), (8, 1), (-1, 3581)):
        with pytest.raises(ParameterError):
            ambiguity_estimate(n_tilde, M)


@pytest.mark.parametrize("n, keys", [(4, 20), (6, 50)], ids=["n4", "n6"])
def test_ambiguity_estimate_tracks_audited_blocks(n, keys):
    # `keys` keygen(n) keys and 30 genuine blocks each; a block is ambiguous
    # when audit_decrypt_block (exact against brute_force_assp, see
    # test_decrypt) finds more than one distinct plaintext.  Tolerance: the
    # observed share lies within a factor 1.5 of the mean model figure.  At
    # n = 4 (n_tilde = 6, a 12-bit modulus) the model is about 0.12 and the
    # binomial spread about 0.014 over 600 blocks; at n = 6 (n_tilde = 9,
    # 18 bits) about 0.05 and 0.006 over 1500 blocks.
    rng = Random(n)
    ambiguous = blocks = 0
    model = []
    for _ in range(keys):
        pub, prv = keygen(n, rng)
        model.append(ambiguity_estimate(pub.n_tilde, pub.M))
        for _ in range(30):
            block = extend_block([rng.randint(0, 1) for _ in range(n)], rng)
            ct = encrypt_block(pub, block, sample_noise(block.n_total, rng))
            preimages = {t.bits for t in audit_decrypt_block(prv, ct, pub)}
            assert block.bits in preimages
            ambiguous += len(preimages) > 1
            blocks += 1
    expected = sum(model) / len(model)
    assert expected / 1.5 <= ambiguous / blocks <= expected * 1.5
