"""Attack lattice construction, bit expansion, and the recovery pipeline."""

import hashlib
import time
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from juoan2 import ParameterError, keygen
from juoan2.cryptanalysis import (
    ReducedBasis,
    SubsetSumAttack,
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
)
from juoan2.cryptanalysis.oracles import brute_force_assp

from test_lll import dense_scan, solve_rational

from conftest import time_limit


@pytest.fixture(autouse=True)
def bounded():
    # lattice_attack appends every wrap guess to one ReducedBasis, and a fault
    # that changes that base can make a later append run without end
    with time_limit(10):
        yield


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
    # Positions run from n down to 1, powers ascend within a position.
    assert var_map[0] == (8, 0)
    assert var_map[-1] == (1, 3)
    assert all(a[0] > b[0] or (a[0] == b[0] and b[1] == a[1] + 1)
               for a, b in zip(var_map, var_map[1:]))
    assert all(w == (ref_pub.C[i - 1] << t) % ref_pub.M for w, (i, t) in zip(weights, var_map))


def test_decoding_ignores_the_expansion_order(ref_pub):
    _, var_map = expand_assp_to_ssp(ref_pub)
    rng = Random(11)
    for _ in range(50):
        x = tuple(rng.randint(0, 1) for _ in var_map)
        kappa = kappa_from_assignment(x, var_map)
        pairs = list(zip(x, var_map))
        rng.shuffle(pairs)
        shuffled_x, shuffled_map = zip(*pairs)
        shuffled = kappa_from_assignment(shuffled_x, shuffled_map)
        assert shuffled == kappa
        assert block_from_kappa(shuffled, 8) == block_from_kappa(kappa, 8)


def test_kappa_round_trip():
    var_map = ((1, 0), (1, 1), (2, 0), (3, 0))
    kappa = kappa_from_assignment((1, 1, 0, 1), var_map)
    assert kappa == {1: 3, 3: 1}
    assert block_from_kappa({3: 1, 1: 2}, 3) == (1, 0, 1)  # 2 = L+1 with L=1
    assert block_from_kappa({3: 1, 1: 1}, 3) == (0, 0, 1)  # 1 = L: noise term
    assert block_from_kappa({3: 1, 1: 3}, 3) is None  # 3 is neither L nor L+1
    assert block_from_kappa({}, 3) == (0, 0, 0)


@st.composite
def nonzero_expanded_assignments(draw):
    """An expansion shaped like expand_assp_to_ssp's and a nonzero assignment on it."""
    n = draw(st.integers(1, 12))
    var_map = tuple((i, t) for i in range(n, 0, -1) for t in range((n - i + 1).bit_length()))
    x = draw(st.lists(st.integers(0, 1), min_size=len(var_map), max_size=len(var_map)).filter(any))
    return n, x, var_map


@given(nonzero_expanded_assignments())
def test_a_nonzero_assignment_decodes_to_none_or_a_block_with_a_set_bit(case):
    # the highest position with a nonzero multiplicity meets level 0, so it is
    # a set bit or the block is inconsistent: the attack never sees a zero block
    n, x, var_map = case
    block = block_from_kappa(kappa_from_assignment(x, var_map), n)
    assert block is None or any(block)


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
    reduced = ReducedBasis(basis_from_generators(build_ssp_lattice(weights, S, M)).rows)
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
    for max_wraps, tried in ((3, 4), (0, 1), (None, 4)):
        counts.update(base=0, appended=0, cold=0)
        assert lattice_attack(weights, 12345, 1 << 17, max_wraps=max_wraps) is None
        assert counts == {"base": 1, "appended": tried, "cold": 0}
    for seed in range(5):
        weights, _, S, M = planted_ssp_instance(16, 32, Random(seed))
        counts.update(base=0, appended=0, cold=0)
        assert lattice_attack(weights, S, M) is not None
        assert counts["base"] == 1 and counts["appended"] >= 1 and counts["cold"] == 0
    # A half-sum guess gets a second ReducedBasis, of the other weight rows and
    # the target row; it is the middle guess, so it is tried first.
    for seed in range(5):
        weights, _, S, M = half_sum_instance(16, 32, Random(seed))
        counts.update(base=0, appended=0, cold=0)
        assert lattice_attack(weights, S, M) is not None
        assert counts == {"base": 2, "appended": 0, "cold": 0}


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
    assert len(guesses) == 4


def every_guess_attack(weights, S, M, assp_map=None):
    """The wrap-guess loop with one guess per weight, m = 0 ... len(weights) - 1,
    middle-out, half-sum guess included, each guess's lattice reduced cold.

    A guess past sum(weights) has |2T - sum(weights)| > sum(weights), so it
    sorts after every guess the attack may try."""
    total = sum(weights)
    for m in sorted(range(len(weights)), key=lambda m: (abs(2 * (S + m * M) - total), m)):
        T = S + m * M
        rows = build_plain_ssp_lattice(weights, T).rows
        if 2 * T == total:  # the last weight row depends on the others
            rows = rows[:-2] + rows[-1:]
        x = lattice._scan_reduced(ReducedBasis(rows), weights, S, M, assp_map)
        if x is not None:
            return x
    return None


def test_guesses_past_the_weight_sum_change_no_result(monkeypatch):
    # lattice_attack stops at m = (sum(w) - S) // M; the loop with one guess
    # per weight returns the same on solvable and unsolvable instances alike.
    from juoan2.encrypt import encrypt_block, extend_block, sample_noise

    instances = [planted_ssp_instance(20, bits, Random(seed))
                 for bits, seeds in ((40, range(10)), (22, range(100, 120))) for seed in seeds]
    instances += [half_sum_instance(16, 32, Random(seed)) for seed in range(3)]
    cases = [(weights, S, M, None) for weights, _, S, M in instances]
    rng = Random(5)
    even = tuple(2 * rng.randint(1, 1 << 15) for _ in range(12))
    cases.append((even, 12345, 1 << 17, None))  # even weights, odd target: no solution
    small = tuple(rng.randint(1, 1 << 12) for _ in range(12))
    cases.append((small, sum(small) + 1, 1 << 17, None))
    for n, keys in ((4, 10), (8, 3)):
        for seed in range(keys):
            rng = Random(1000 * n + seed)
            pub, _ = keygen(n, rng)
            block = extend_block([rng.randint(0, 1) for _ in range(n)], rng)
            ct = encrypt_block(pub, block, sample_noise(block.n_total, rng))
            weights, var_map = expand_assp_to_ssp(pub)
            cases.append((weights, ct.S, pub.M, var_map))
    for weights, S, M, assp_map in cases:
        assert lattice_attack(weights, S, M, assp_map) == every_guess_attack(weights, S, M, assp_map)
    # A target above sum(weights) gets no guess; one guess per weight appended 12 rows.
    counts = count_reductions(monkeypatch)
    assert lattice_attack(small, sum(small) + 1, 1 << 17) is None
    assert counts == {"base": 1, "appended": 0, "cold": 0}


def test_wrap_guesses_run_middle_out(monkeypatch):
    targets = []
    appended = lattice.ReducedBasis.appended

    def spied(self, row):
        targets.append(row[-1])
        return appended(self, row)

    monkeypatch.setattr(lattice.ReducedBasis, "appended", spied)

    def guesses(weights, S, M, **kwargs):
        targets.clear()
        x = lattice_attack(weights, S, M, **kwargs)
        scale = lattice._embedding_rows(weights, 0)[1]
        return x, [(t // scale - S) // M for t in targets]

    # Even weights, even modulus, odd target: no guess succeeds, so all are
    # tried.  With S = 9689, sum(w) = 2S + 3M, so m and 3 - m tie.
    rng = Random(5)
    weights = tuple(2 * rng.randint(1, 1 << 15) for _ in range(12))
    total, M = sum(weights), 1 << 17
    assert total == 412_594
    for S in (12_345, 9689):
        last = (total - S) // M
        x, tried = guesses(weights, S, M)
        assert x is None and sorted(tried) == list(range(last + 1)) == [0, 1, 2, 3]
        keys = [(abs(2 * (S + m * M) - total), m) for m in tried]
        assert keys == sorted(keys)
        assert tried == [1, 2, 0, 3]
    # the cap still counts m from 0
    assert guesses(weights, 12_345, M, max_wraps=1) == (None, [1, 0])
    assert guesses(weights, 12_345, M, max_wraps=0) == (None, [0])
    # On planted 40-bit instances the planted guess m* is the one that solves,
    # after every guess ranked before it in middle-out order.
    for seed in range(10):
        weights, planted, S, M = planted_ssp_instance(20, 40, Random(seed))
        total = sum(weights)
        order = sorted(range((total - S) // M + 1), key=lambda m: (abs(2 * (S + m * M) - total), m))
        m_star = (sum(b * w for b, w in zip(planted, weights)) - S) // M
        x, tried = guesses(weights, S, M)
        assert x == planted
        assert tried == order[:order.index(m_star) + 1]


def test_lattice_attack_refuses_a_target_outside_the_modulus_before_reducing(monkeypatch):
    pub, _ = keygen(16, Random(1))
    weights, _ = expand_assp_to_ssp(pub)
    counts = count_reductions(monkeypatch)
    for S in (pub.M, -1):
        with pytest.raises(ParameterError, match=rf"^target {S} outside \[0, {pub.M}\)$"):
            lattice_attack(weights, S, pub.M)
    assert counts["base"] == 0


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


def test_lattice_attack_refuses_a_weight_outside_the_modulus():
    # 12 + 20 = 32 = 4 (mod 7) needs m = 4 wraps, past the clamp of
    # len(weights) - 1 that holds only for weights below M.
    with pytest.raises(ParameterError, match=r"^weight 0: 12 outside \[0, 7\)$"):
        lattice_attack((12, 9, 20), 4, 7)
    with pytest.raises(ParameterError, match=r"^weight 2: -1 outside \[0, 7\)$"):
        SubsetSumAttack((3, 4, -1, 9), 7)


def test_one_attack_object_answers_every_target_as_a_fresh_call():
    # The pinned n = 4 and n = 8 ASSP keys of test_lattice_attack_outputs_are_pinned
    # (its block first, then three more), every wrap guess: the calls share
    # one reduced base, so a call that changed it would change a later answer.
    from juoan2.encrypt import encrypt_block, extend_block, sample_noise

    for n, keys in ((4, 20), (8, 6)):
        for seed in range(keys):
            rng = Random(1000 * n + seed)
            pub, _ = keygen(n, rng)
            targets = []
            for _ in range(4):
                block = extend_block([rng.randint(0, 1) for _ in range(n)], rng)
                targets.append(encrypt_block(pub, block, sample_noise(block.n_total, rng)).S)
            weights, var_map = expand_assp_to_ssp(pub)
            fresh = [lattice_attack(weights, S, pub.M, assp_map=var_map) for S in targets]
            attack = SubsetSumAttack(weights, pub.M, assp_map=var_map)
            assert [attack(S) for S in targets] == fresh
            assert [attack(S) for S in reversed(targets)] == fresh[::-1]


def test_sparse_scan_reads_what_the_dense_scan_reads(monkeypatch):
    # Pinned instances of test_lattice_attack_outputs_are_pinned, every wrap
    # guess each attack tries: the scan of a guess's packed rows returns the
    # x that the entry-by-entry scan of its dense rows returns, hit or miss.
    from juoan2.encrypt import encrypt_block, extend_block, sample_noise

    scan, seen = lattice._scan_reduced, []

    def both(reduced, *args):
        x = scan(reduced, *args)
        assert x == dense_scan(reduced.lattice.rows, *args)
        seen.append(x is not None)
        return x

    monkeypatch.setattr(lattice, "_scan_reduced", both)
    for bits, seeds in ((40, range(10)), (22, range(100, 110))):
        for seed in seeds:
            weights, _, S, M = planted_ssp_instance(20, bits, Random(seed))
            lattice_attack(weights, S, M)
    for n, keys, max_wraps in ((4, 20, None), (8, 6, None), (16, 4, 8)):
        for seed in range(keys):
            rng = Random(1000 * n + seed)
            pub, _ = keygen(n, rng)
            block = extend_block([rng.randint(0, 1) for _ in range(n)], rng)
            ct = encrypt_block(pub, block, sample_noise(block.n_total, rng))
            weights, var_map = expand_assp_to_ssp(pub)
            lattice_attack(weights, ct.S, pub.M, assp_map=var_map, max_wraps=max_wraps)
    assert any(seen) and not all(seen)


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


@pytest.mark.parametrize("seed", [12, 28, 77, 130, 214])
def test_assp_attack_tries_both_signs_of_a_row(seed):
    # With an even weight sum and S = sum(w) / 2 mod M, x and its complement
    # both sum to S, so both signs of a reduced row pass the sum check; on
    # these keys the first sign does not decode to a block and the second does.
    pub, _ = keygen(4, Random(seed))
    weights, var_map = expand_assp_to_ssp(pub)
    S = sum(weights) // 2 % pub.M
    got = lattice_attack(weights, S, pub.M, assp_map=var_map)
    assert got is not None
    assert sum(b * w for b, w in zip(got, weights)) % pub.M == S
    block = block_from_kappa(kappa_from_assignment(got, var_map), pub.n_tilde)
    assert block in {bits for bits, _ in brute_force_assp(pub, S)}


def brute_force_target(pub):
    from juoan2.encrypt import BitBlock, NoiseVector, encrypt_block

    bits = tuple([1, 0, 1, 1] + [1, 0])
    return encrypt_block(pub, BitBlock(bits, 4), NoiseVector((0,) * 6)).S


def test_lattice_attack_outputs_are_pinned():
    # The return values on fixed instances, hashed: planted SSP at n = 20
    # with 40-bit weights (the SSP trial, every one recovered) and 22-bit
    # weights (14 of 20, the rest try every wrap guess up to (sum(w) - S) // M),
    # genuine ASSP blocks at n = 4 (16 of 20) and n = 8 with every wrap guess,
    # and the ASSP trial at n = 16 with max_wraps = 8.  The hash was taken
    # with every row incorporated by the general O(k^2) recurrence, so it
    # pins the fast paths to the same reductions.  Trying the wrap guesses
    # middle-out changed four outputs, all on instances with more than one
    # solution (22-bit seeds 101, 108 and 109, and the n = 4 key Random(4017));
    # the 40-bit outputs keep the digest they had with the guesses in order.
    from juoan2.encrypt import encrypt_block, extend_block, sample_noise

    out, cases = [], []
    for bits, seeds in ((40, range(40)), (22, range(100, 120))):
        for seed in seeds:
            weights, _, S, M = planted_ssp_instance(20, bits, Random(seed))
            out.append(lattice_attack(weights, S, M))
            cases.append((weights, S, M, None, None))
    for n, keys, max_wraps in ((4, 20, None), (8, 6, None), (16, 4, 8)):
        for seed in range(keys):
            rng = Random(1000 * n + seed)
            pub, _ = keygen(n, rng)
            block = extend_block([rng.randint(0, 1) for _ in range(n)], rng)
            ct = encrypt_block(pub, block, sample_noise(block.n_total, rng))
            weights, var_map = expand_assp_to_ssp(pub)
            out.append(lattice_attack(weights, ct.S, pub.M, assp_map=var_map, max_wraps=max_wraps))
            cases.append((weights, ct.S, pub.M, pub, block.bits))
    hits = [sum(x is not None for x in part) for part in (out[:40], out[40:60], out[60:80], out[80:])]
    assert hits == [40, 14, 16, 0]
    # every output is a verified solution, and every ASSP one decodes to a
    # block the oracle lists; on Random(4017) that is now the encrypted block,
    # where the guesses in order returned (1, 0, 0, 0, 0, 1)
    for x, (weights, S, M, pub, encrypted) in zip(out, cases):
        if x is None:
            continue
        assert sum(b * w for b, w in zip(x, weights)) % M == S
        if pub is not None:
            block = block_from_kappa(kappa_from_assignment(x, expand_assp_to_ssp(pub)[1]), pub.n_tilde)
            assert block in {bits for bits, _ in brute_force_assp(pub, S)}
            if pub is cases[77][3]:  # Random(4017)
                assert block == encrypted == (0, 1, 0, 1, 1, 1)
    digest_40 = hashlib.sha256(repr(out[:40]).encode()).hexdigest()
    assert digest_40 == "17725be41ed0277a477d948e02c7ec5860e24d224375f470b94cd97b9fe315ae"
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "78fdc512f99c8c9db48437a7ad6b8f847bb03d7dc4312f89b7fc352ad62768f9"
