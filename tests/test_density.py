"""Density metrics and the attack-regime classification."""

import math

import pytest

from juoan2 import ParameterError
from juoan2.cryptanalysis import (
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
    report = ssp_density(20, weights)
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
