"""Knapsack density metrics and the LLL-feasibility classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import ParameterError

LLL_THRESHOLD = 0.6463
CJLOSS_THRESHOLD = 0.9408

VULNERABLE = "LLL-vulnerable"
BORDERLINE = "borderline"
RESISTANT = "resistant"
SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class DensityReport:
    n: int
    lgM: float  # bit size of the modulus (or max weight, for plain subset sums)
    density: float
    classification: str
    lower_bound: float | None = None  # lg(n!)/(2n), anomalous form only


def classify(density: float) -> str:
    if density > 1.0:
        return SUPERCRITICAL
    if density >= CJLOSS_THRESHOLD:
        return RESISTANT
    if density >= LLL_THRESHOLD:
        return BORDERLINE
    return VULNERABLE


def ssp_density_from_bits(n: int, lg_max: float) -> DensityReport:
    """Plain subset-sum density n / lg(max weight)."""
    if n < 1 or not 0 < lg_max < math.inf:  # also rejects NaN
        raise ParameterError("need n >= 1 and a positive finite bit size")
    d = n / lg_max
    return DensityReport(n, lg_max, d, classify(d))


def ssp_density(n: int, weights: Sequence[int]) -> DensityReport:
    if n < 1 or len(weights) != n:
        raise ParameterError(f"need n >= 1 weights, got n={n}, {len(weights)} weights")
    if any(w < 1 for w in weights):
        raise ParameterError("weights must be positive")
    return ssp_density_from_bits(n, math.log2(max(weights)))


def assp_density_from_bits(n: int, lg_m: float) -> DensityReport:
    """Anomalous-sum density lg(n!) / lg M, with the lg(n!)/(2n) floor reported."""
    if n < 1 or not 0 < lg_m < math.inf:  # also rejects NaN
        raise ParameterError("need n >= 1 and a positive finite bit size")
    lg_fact = math.lgamma(n + 1) / math.log(2)  # lg(n!) in O(1), however large n is
    d = lg_fact / lg_m
    return DensityReport(n, lg_m, d, classify(d), lower_bound=lg_fact / (2 * n))


def assp_density(n: int, M: int) -> DensityReport:
    if M < 2:
        raise ParameterError(f"modulus must be >= 2, got {M}")
    return assp_density_from_bits(n, math.log2(M))
