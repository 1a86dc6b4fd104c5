"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Each test prints `CRITERION <k> [<name>]: PASS|FAIL (<elapsed>)` plus the
measured quantities, then asserts.  Tolerances and trial counts are pinned;
do not relax them to force a pass.
"""

import itertools
import math
import time
from random import Random

import pytest

from juoan2 import (
    BitBlock,
    NoiseVector,
    PrivateKey,
    decrypt_block,
    derive_public,
    encrypt_block,
    extend_block,
    keygen,
    sample_noise,
)
from juoan2.cryptanalysis import (
    assp_density,
    assp_density_from_bits,
    brute_force_assp,
    check_property2,
    ciphertext_multiplicity,
    is_size_reduced,
    lll_reduce,
    lovasz_holds,
    run_assp_attack_trial,
    run_planted_ssp_trial,
)
from juoan2.encrypt import anomalous_sum

from test_lll import is_unimodular_transform, random_basis

from conftest import (
    ALT_SEQ,
    REF_A,
    REF_BITS,
    REF_BRANCHES,
    REF_C,
    REF_DELTA,
    REF_INTERMEDIATE,
    REF_K,
    REF_LEVER,
    REF_M,
    REF_NOISE,
    REF_S,
    REF_S0,
    REF_W,
)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _uncaptured(capsys):
    """Let the per-criterion verdict lines bypass pytest's capture."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(number: int, name: str, ok: bool, started: float, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - started
    suffix = f" -- {detail}" if detail else ""
    line = f"\nCRITERION {number} [{name}]: {verdict} ({elapsed:.2f}s){suffix}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_reference_pipeline():
    t0 = time.perf_counter()
    pub = derive_public(REF_A, REF_W, REF_DELTA, REF_LEVER, REF_M, 8)
    prv = PrivateKey(REF_A, REF_M - REF_W, pow(REF_DELTA, -1, REF_M), REF_M, 8)
    checks = [pub.C == REF_C]
    ct = encrypt_block(pub, BitBlock(REF_BITS, 8), NoiseVector(REF_NOISE))
    checks.append(ct.S == REF_S)
    checks.append(ct.S * prv.delta_inv % prv.M == REF_S0)
    block, trace = decrypt_block(prv, ct, pub)
    checks.append(block.bits == REF_BITS)
    checks.append(trace.k == REF_K)
    checks.append((REF_S0 + trace.k * prv.neg_w) % prv.M == REF_INTERMEDIATE)
    checks.append(tuple(s.branch for s in trace.steps) == REF_BRANCHES)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    report(1, "reference golden pipeline", ok, t0,
           f"{sum(checks)}/7 values exact, runtime {elapsed:.3f}s (< 1s)")


def test_criterion_2_round_trip_rates():
    t0 = time.perf_counter()
    results = {}
    for n, trials in ((16, 1000), (64, 100)):
        rng = Random(1000 + n)
        good = 0
        for _ in range(trials):
            pub, prv = keygen(n, rng)
            block = extend_block([rng.randint(0, 1) for _ in range(n)], rng)
            ct = encrypt_block(pub, block, sample_noise(block.n_total, rng))
            try:
                got, _ = decrypt_block(prv, ct, pub)
            except Exception:
                continue
            good += got.bits == block.bits
        results[n] = good / trials
    elapsed = time.perf_counter() - t0
    ok = all(rate >= 0.99 for rate in results.values()) and elapsed < 300
    report(2, "round-trip success rate", ok, t0,
           f"n=16: {results[16]:.1%} of 1000, n=64: {results[64]:.1%} of 100 "
           f"(gate 99%), runtime {elapsed:.1f}s (< 5 min)")


def test_criterion_3_oracle_equivalence(ref_pub):
    t0 = time.perf_counter()
    n = 8
    by_sum: dict[int, set] = {}
    for bits in itertools.product((0, 1), repeat=n):
        if not any(bits):
            continue
        levels = [sum(bits[j] for j in range(i, n)) for i in range(n)]
        free = [i + 1 for i in range(n) if not bits[i] and levels[i] > 0]
        for r in range(len(free) + 1):
            for combo in itertools.combinations(free, r):
                s = anomalous_sum(ref_pub, bits, combo)
                by_sum.setdefault(s, set()).add((bits, frozenset(combo)))
    mismatches = 0
    for s, patterns in by_sum.items():
        oracle = {(b, f) for b, f in brute_force_assp(ref_pub, s) if any(b)}
        if oracle != patterns:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60
    report(3, "oracle equivalence", ok, t0,
           f"{len(by_sum)} distinct sums cross-checked exhaustively, "
           f"{mismatches} mismatches, runtime {elapsed:.1f}s (< 1 min)")


def test_criterion_4_property2_uniqueness():
    t0 = time.perf_counter()
    failures = [
        (tuple(raw), m)
        for raw in (ALT_SEQ, REF_A)
        for m in range(1, 9)
        if not check_property2(raw, m)
    ]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60
    report(4, "weighted-sum uniqueness", ok, t0,
           f"both reference sequences, all sizes m <= 8 exhaustive, "
           f"failures: {failures or 'none'}")


def test_criterion_5_density_formulas():
    t0 = time.perf_counter()
    got = assp_density(8, 3581).density
    want = math.log2(math.factorial(8)) / math.log2(3581)
    rel = abs(got - want) / want
    bound = assp_density_from_bits(10, 20).lower_bound
    ok = rel < 1e-9 and bound is not None and bound > 1
    report(5, "density formulas", ok, t0,
           f"assp_density(8, 3581) = {got:.9f} (rel err {rel:.1e}), "
           f"lower bound at n=10, lgM=20: {bound:.4f} (> 1)")


def test_criterion_6_lll_contract():
    t0 = time.perf_counter()
    rng = Random(600)
    bad = 0
    for _ in range(200):
        basis = random_basis(rng, rng.randint(2, 20), 1 << 30)
        reduced = lll_reduce(basis)
        if not (
            is_size_reduced(reduced.rows)
            and lovasz_holds(reduced.rows)
            and is_unimodular_transform(basis, reduced)
        ):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 120
    report(6, "LLL reduction contract", ok, t0,
           f"200 random bases (dim <= 20, entries <= 2^30): {200 - bad} clean, "
           f"runtime {elapsed:.1f}s (< 2 min)")


def test_criterion_7_attack_contrast():
    t0 = time.perf_counter()
    rng = Random(700)
    ssp_hits = sum(
        run_planted_ssp_trial(20, 40, rng).attack_outcome == "recovered"
        for _ in range(50)
    )
    assp_hits = sum(
        run_assp_attack_trial(16, rng, max_wraps=8).attack_outcome == "recovered"
        for _ in range(50)
    )
    elapsed = time.perf_counter() - t0
    ok = ssp_hits >= 35 and elapsed < 600
    report(7, "attack contrast", ok, t0,
           f"plain SSP n=20 d=0.5: {ssp_hits}/50 recovered (gate >= 35); "
           f"ASSP n=24 genuine keys: {assp_hits}/50 recovered (reported, "
           f"supercritical density predicts ~0); runtime {elapsed:.1f}s (< 10 min)")


def test_criterion_8_ciphertext_multiplicity(ref_pub):
    t0 = time.perf_counter()
    block = BitBlock(REF_BITS, 8)
    got = ciphertext_multiplicity(ref_pub, block)
    free = [i + 1 for i in range(8)
            if not REF_BITS[i] and sum(REF_BITS[i:]) > 0]
    sums = set()
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            sums.add(anomalous_sum(ref_pub, REF_BITS, combo))
    ones = ciphertext_multiplicity(ref_pub, BitBlock((1,) * 8, 8))
    ok = got == len(sums) and ones == 1
    report(8, "ciphertext multiplicity", ok, t0,
           f"reference block: {got} distinct sums over 2^{len(free)} patterns "
           f"(independent count {len(sums)}); all-ones block: {ones} (expected 1)")


def test_criterion_9_performance_targets():
    t0 = time.perf_counter()
    rng = Random(900)
    start = time.perf_counter()
    pub, prv = keygen(128, rng)
    keygen_s = time.perf_counter() - start

    block = extend_block([rng.randint(0, 1) for _ in range(128)], rng)
    start = time.perf_counter()
    ct = encrypt_block(pub, block, sample_noise(block.n_total, rng))
    encrypt_s = time.perf_counter() - start

    total = 0.0
    for _ in range(100):
        blk = extend_block([rng.randint(0, 1) for _ in range(128)], rng)
        c = encrypt_block(pub, blk, sample_noise(blk.n_total, rng))
        start = time.perf_counter()
        got, _ = decrypt_block(prv, c, pub)
        total += time.perf_counter() - start
        assert got.bits == blk.bits
    mean_decrypt = total / 100

    ok = keygen_s < 1.0 and encrypt_s < 0.010 and mean_decrypt < 10.0
    report(9, "performance targets", ok, t0,
           f"n=128: keygen {keygen_s * 1000:.1f}ms (< 1s), "
           f"encrypt {encrypt_s * 1000:.2f}ms (< 10ms), "
           f"decrypt mean {mean_decrypt:.3f}s over 100 blocks (< 10s)")
