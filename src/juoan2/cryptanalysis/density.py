"""Knapsack density metrics and the LLL-feasibility classification."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from ..errors import ParameterError

LLL_THRESHOLD = 0.6463
CJLOSS_THRESHOLD = 0.9408

VULNERABLE = "LLL-vulnerable"
BORDERLINE = "borderline"
RESISTANT = "resistant"
SUPERCRITICAL = "supercritical"


class DensityReport(NamedTuple):
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


def _as_float(n: int, lg: float) -> float:
    """n as a float, once n >= 1 fits in one and lg is a positive finite bit size."""
    if n < 1 or not 0 < lg < math.inf:  # also rejects NaN
        raise ParameterError("need n >= 1 and a positive finite bit size")
    try:
        return float(n)
    except OverflowError:
        raise ParameterError(f"n of {n.bit_length()} bits is too large for a float") from None


def ssp_density_from_bits(n: int, lg_max: float) -> DensityReport:
    """Plain subset-sum density n / lg(max weight)."""
    d = _as_float(n, lg_max) / lg_max
    return DensityReport(n, lg_max, d, classify(d))


def ssp_density(weights: Sequence[int]) -> DensityReport:
    """Plain subset-sum density of the weights themselves, n = len(weights)."""
    if not weights or any(w < 1 for w in weights):
        raise ParameterError("need at least one weight, all positive")
    return ssp_density_from_bits(len(weights), math.log2(max(weights)))


def assp_density_from_bits(n: int, lg_m: float) -> DensityReport:
    """Anomalous-sum density lg(n!) / lg M, with the lg(n!)/(2n) floor reported."""
    x = _as_float(n, lg_m)
    try:
        lg_fact = math.lgamma(x + 1) / math.log(2)  # lg(n!) in O(1)
    except OverflowError:
        raise ParameterError(f"lg(n!) for n = {x:.3g} is too large for a float") from None
    d = lg_fact / lg_m
    return DensityReport(n, lg_m, d, classify(d), lower_bound=lg_fact / (2 * n))


def assp_density(n: int, M: int) -> DensityReport:
    if M < 2:
        raise ParameterError(f"modulus must be >= 2, got {M}")
    return assp_density_from_bits(n, math.log2(M))


def ambiguity_estimate(n_tilde: int, M: int) -> float:
    """Model chance that a block has a second preimage: (3^n_tilde - 1) / (2M).

    Each position of a block is a set bit, a noise term or absent, so about
    3^n_tilde blocks share M residues.  The figure underflows to 0.0 below
    about 5e-324, from n_tilde of about 2590 at keygen's 2*n_tilde-bit modulus.
    """
    if n_tilde < 1 or M < 2:
        raise ParameterError(f"need n_tilde >= 1 and M >= 2, got {n_tilde} and {M}")
    return (3**n_tilde - 1) / (2 * M)
