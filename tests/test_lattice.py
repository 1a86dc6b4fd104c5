"""Attack lattice construction, bit expansion, and the recovery pipeline."""

import time
from random import Random

import pytest

from juoan2 import ParameterError, keygen
from juoan2.cryptanalysis import (
    basis_from_generators,
    block_from_kappa,
    build_plain_ssp_lattice,
    build_ssp_lattice,
    expand_assp_to_ssp,
    kappa_from_assignment,
    lattice,
    lattice_attack,
    lll_reduce,
    planted_ssp_instance,
    reencode_assp_sum,
)
from juoan2.cryptanalysis.oracles import brute_force_assp

from test_lll import solve_rational

from conftest import REF_BITS, REF_S


def lattice_contains(generators, vec) -> bool:
    basis = basis_from_generators(generators)
    if basis.dim != basis.width:
        return False
    coords = solve_rational(basis.rows, vec)
    return all(c.denominator == 1 for c in coords)


def test_shape_contract():
    lat = build_ssp_lattice((5, 9, 13), 7, 41)
    assert lat.dim == 5  # n + 2 rows
    assert lat.width == 4  # n + 1 columns
    assert build_plain_ssp_lattice((5, 9, 13), 7).dim == 4


def test_scale_exceeds_sqrt():
    lat = build_ssp_lattice((1,) * 8, 0, 11)
    # last column of row 9 (modulus row) = scale * M with scale = 4 > sqrt(9).
    assert lat.rows[-1][-1] == 4 * 11


def test_single_weight_solution_vector_present():
    lat = build_ssp_lattice((7,), 7, 11)
    assert lattice_contains(lat, (1, 0))


def test_reference_solution_vector_present(ref_pub):
    # A known subset sum over the public elements: the corresponding +-1
    # vector lies in the constructed lattice.
    x = (1, 0, 1, 0, 0, 1, 0, 1)
    S = sum(b * c for b, c in zip(x, ref_pub.C)) % ref_pub.M
    lat = build_ssp_lattice(ref_pub.C, S, ref_pub.M)
    assert lattice_contains(lat, tuple(2 * b - 1 for b in x) + (0,))


def test_wraparound_solution_vector_present():
    # Solution whose integer sum exceeds M: reachable only via the modulus row.
    weights = (60, 70)
    M = 100
    lat = build_ssp_lattice(weights, 30, M)  # 60 + 70 = 130 = 30 mod 100
    assert lattice_contains(lat, (1, 1, 0))


def test_rejects_bad_target():
    with pytest.raises(ParameterError):
        build_ssp_lattice((3, 4), 9, 7)
    with pytest.raises(ParameterError):
        build_ssp_lattice((), 0, 7)


def test_expand_assp_variable_count(ref_pub):
    weights, var_map = expand_assp_to_ssp(ref_pub)
    # Position i contributes bit_length(n - i + 1) variables; for n = 8
    # that is 4+3+3+3+3+2+2+1 = 21.
    assert len(weights) == len(var_map) == 21
    assert var_map[0] == (1, 0)
    assert weights[1] == (ref_pub.C[0] << 1) % ref_pub.M
    assert var_map[-1] == (8, 0)


def test_kappa_round_trip():
    var_map = ((1, 0), (1, 1), (2, 0), (3, 0))
    kappa = kappa_from_assignment((1, 1, 0, 1), var_map)
    assert kappa == {1: 3, 3: 1}
    assert block_from_kappa({3: 1, 1: 2}, 3) == (1, 0, 1)  # 2 = L+1 with L=1
    assert block_from_kappa({3: 1, 1: 1}, 3) == (0, 0, 1)  # 1 = L: noise term
    assert block_from_kappa({3: 1, 1: 3}, 3) is None  # 3 is neither L nor L+1
    assert block_from_kappa({}, 3) == (0, 0, 0)


def test_lattice_attack_recovers_planted_solution():
    recovered = 0
    for seed in range(5):
        weights, x, S, M = planted_ssp_instance(16, 32, Random(seed))
        got = lattice_attack(weights, S, M)
        if got is not None:
            assert sum(b * w for b, w in zip(got, weights)) % M == S
            recovered += 1
    assert recovered >= 4


def test_lattice_attack_verifies_modular_sum():
    # Any returned solution satisfies the sum equation by construction.
    weights, x, S, M = planted_ssp_instance(12, 24, Random(3))
    got = lattice_attack(weights, S, M)
    assert got is None or sum(b * w for b, w in zip(got, weights)) % M == S


def test_modular_lattice_reduction_is_parity_junk():
    # With both the dense target row and the modulus row carrying free
    # coefficients, the modular lattice contains every uniform-parity vector
    # with zero last coordinate, so its reduction is short junk rather than
    # the planted solution.  This pins why the wraparound-guess pass exists.
    weights, x, S, M = planted_ssp_instance(20, 40, Random(3))
    reduced = lll_reduce(basis_from_generators(build_ssp_lattice(weights, S, M)))
    short = [v for v in reduced.rows if sum(c * c for c in v) <= 16 and v[-1] == 0]
    assert len(short) >= 10
    sol = tuple(2 * b - 1 for b in x) + (0,)
    assert sol not in reduced.rows and tuple(-c for c in sol) not in reduced.rows


def modular_pass_solution(weights, S, M):
    """A verified solution read off one reduction of the modular lattice, or None."""
    reduced = lll_reduce(basis_from_generators(build_ssp_lattice(weights, S, M)))
    return lattice._scan_reduced(reduced, weights, S, M, None)


def half_sum_instance(n, bits, rng):
    """Random weights below 2^bits with a planted x of sum(x_i w_i) = sum(w) / 2."""
    M = 1 << bits
    while True:
        weights = [rng.randint(1, M - 1) for _ in range(n)]
        x = [rng.randint(0, 1) for _ in range(n)]
        if not 0 < sum(x) < n:
            continue
        gap = sum(w for b, w in zip(x, weights) if not b) - sum(w for b, w in zip(x, weights) if b)
        i = min((j for j in range(n) if x[j] == (gap > 0)), key=lambda j: weights[j])
        weights[i] += abs(gap)  # the lighter side takes the whole gap
        if weights[i] < M:
            return tuple(weights), tuple(x), sum(weights) // 2 % M, M


def test_exact_sum_pass_finds_whatever_the_modular_pass_finds():
    # The modular lattice is reduced here, not in lattice_attack: on every
    # planted instance where its reduction yields a verified solution, the
    # wraparound-guess pass alone must return one as well.
    modular_hits = 0
    for n in range(4, 11):
        for bits in (n, 2 * n, 3 * n):
            for seed in range(6):
                rng = Random(1000 * n + 10 * bits + seed)
                for weights, _, S, M in (
                    planted_ssp_instance(n, bits, rng),
                    half_sum_instance(n, bits, rng),
                ):
                    if modular_pass_solution(weights, S, M) is None:
                        continue
                    modular_hits += 1
                    got = lattice_attack(weights, S, M)
                    assert got is not None, (n, bits, seed)
                    assert sum(b * w for b, w in zip(got, weights)) % M == S
    assert modular_hits >= 150


def count_reductions(monkeypatch):
    """Count, inside lattice_attack, ReducedBasis constructions, row appends and lll_reduce calls."""
    counts = {"base": 0, "appended": 0, "cold": 0}

    class CountedBasis(lattice.ReducedBasis):
        def __init__(self, *args, **kwargs):
            counts["base"] += 1
            super().__init__(*args, **kwargs)

    appended = lattice.ReducedBasis.appended
    cold = lattice.lll_reduce

    def counted_appended(self, row):
        counts["appended"] += 1
        return appended(self, row)

    def counted_cold(*args, **kwargs):
        counts["cold"] += 1
        return cold(*args, **kwargs)

    monkeypatch.setattr(lattice, "ReducedBasis", CountedBasis)
    monkeypatch.setattr(lattice.ReducedBasis, "appended", counted_appended)
    monkeypatch.setattr(lattice, "lll_reduce", counted_cold)
    return counts


def test_lattice_attack_reduces_weight_rows_once_and_appends_once_per_guess(monkeypatch):
    counts = count_reductions(monkeypatch)
    # Even weights, even modulus, odd target: no guess can succeed, so all are tried.
    rng = Random(5)
    weights = tuple(2 * rng.randint(1, 1 << 15) for _ in range(12))
    for max_wraps, tried in ((3, 4), (0, 1), (None, 12)):
        counts.update(base=0, appended=0, cold=0)
        assert lattice_attack(weights, 12345, 1 << 17, max_wraps=max_wraps) is None
        assert counts == {"base": 1, "appended": tried, "cold": 0}
    for seed in range(5):
        weights, _, S, M = planted_ssp_instance(16, 32, Random(seed))
        counts.update(base=0, appended=0, cold=0)
        assert lattice_attack(weights, S, M) is not None
        assert counts["base"] == 1 and counts["appended"] >= 1 and counts["cold"] == 0
    # A half-sum guess m (the m guesses before it appended to the base) gets
    # a second ReducedBasis, of the other weight rows and the target row.
    for seed in range(5):
        weights, _, S, M = half_sum_instance(16, 32, Random(seed))
        counts.update(base=0, appended=0, cold=0)
        assert lattice_attack(weights, S, M) is not None
        assert counts == {"base": 2, "appended": sum(weights) // 2 // M, "cold": 0}


def test_lattice_attack_clamps_max_wraps(monkeypatch):
    # A guess m >= len(weights) makes the target exceed sum(weights): none is tried.
    pub, _ = keygen(4, Random(4))
    weights, var_map = expand_assp_to_ssp(pub)
    assert len(weights) == 14
    S = brute_force_target(pub)
    expected = lattice_attack(weights, S, pub.M, assp_map=var_map)
    guesses = []
    appended = lattice.ReducedBasis.appended

    def bounded(self, row):
        guesses.append(row)
        assert len(guesses) <= 14, "a guess m >= len(weights) was tried"
        return appended(self, row)

    monkeypatch.setattr(lattice.ReducedBasis, "appended", bounded)
    t0 = time.perf_counter()
    assert lattice_attack(weights, S, pub.M, assp_map=var_map, max_wraps=10**9) == expected
    assert time.perf_counter() - t0 < 2
    # Even weights, even modulus, odd target: no guess can succeed, so all are tried.
    rng = Random(5)
    weights = tuple(2 * rng.randint(1, 1 << 15) for _ in range(12))
    guesses.clear()
    assert lattice_attack(weights, 12345, 1 << 17, max_wraps=10**9) is None
    assert len(guesses) == 12


def test_lattice_attack_survives_a_half_sum_wrap_guess():
    # When 2(S + m*M) == sum(w), the target row is half the sum of the
    # weight rows, so that guess's rows are dependent.
    weights, _, _, M = planted_ssp_instance(20, 40, Random(3))
    weights = (weights[0] + sum(weights) % 2,) + weights[1:]
    S = sum(weights) // 2 % M
    assert sum(weights) // 2 // M == 5
    got = lattice_attack(weights, S, M)
    assert got is None or sum(b * w for b, w in zip(got, weights)) % M == S
    for seed in range(5):
        weights, x, S, M = half_sum_instance(16, 32, Random(seed))
        assert 2 * sum(b * w for b, w in zip(x, weights)) == sum(weights)
        got = lattice_attack(weights, S, M)
        assert got is not None and sum(b * w for b, w in zip(got, weights)) % M == S


def test_lattice_attack_rejects_bad_input():
    with pytest.raises(ParameterError, match="outside"):
        lattice_attack((3, 4), 9, 7)
    with pytest.raises(ParameterError, match="outside"):
        lattice_attack((3, 4), -1, 7)
    with pytest.raises(ParameterError, match="max_wraps"):
        lattice_attack((3, 4), 5, 7, max_wraps=-1)
    with pytest.raises(ParameterError):
        lattice_attack((), 0, 7)


def test_reencode_assp_sum_matches_reference(ref_pub):
    assert reencode_assp_sum(ref_pub, REF_BITS, (6, 7)) == REF_S


def test_assp_attack_candidates_must_be_structurally_consistent():
    # On a tiny genuine key the expanded attack must never return a bit
    # assignment whose multiplicities fail the downward L-scan.
    rng = Random(4)
    pub, _ = keygen(4, rng)
    weights, var_map = expand_assp_to_ssp(pub)
    S = brute_force_target(pub)
    got = lattice_attack(weights, S, pub.M, assp_map=var_map, max_wraps=4)
    if got is not None:
        kappa = kappa_from_assignment(got, var_map)
        assert block_from_kappa(kappa, pub.n_tilde) is not None


def brute_force_target(pub):
    from juoan2.encrypt import BitBlock, NoiseVector, encrypt_block

    bits = tuple([1, 0, 1, 1] + [1, 0])
    return encrypt_block(pub, BitBlock(bits, 4), NoiseVector((0,) * 6)).S
