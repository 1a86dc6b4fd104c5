"""Key generation: sequence structure, modulus window, transform, retries."""

import importlib
from math import gcd
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import juoan2.cli
from juoan2 import (
    DegeneratePublicElementError,
    ParameterError,
    PrivateKey,
    PublicKey,
    SequenceTooLargeError,
    default_k_max,
    derive_public,
    gen_extra_superincreasing,
    keygen,
)
from juoan2.keygen import (
    _below,
    capacity,
    ceil_lg,
    draws_below,
    first_violation,
    max_modulus_bits,
    min_modulus_bits,
    sample_lever,
    sample_units,
    select_modulus,
    weighted_sum,
)

from conftest import ALT_SEQ, REF_A, REF_C, REF_DELTA, REF_LEVER, REF_M, REF_W, property1_reference

keygen_module = importlib.import_module("juoan2.keygen")  # juoan2.keygen is the function


def test_reference_sequences_are_extra_superincreasing():
    assert first_violation(REF_A) == 0
    assert first_violation(ALT_SEQ) == 0


def test_validate_rejects_violations():
    assert first_violation((1, 2, 8)) == 2  # A_2 must exceed A_1 + 1
    assert first_violation((2, 4, 8)) == 3  # A_3 <= 2*A_1 + A_2
    assert first_violation((0, 3, 8)) == 1
    assert first_violation((1, 3, 8, 21, 54, 139, 367, 900)) == 8


def test_plain_superincreasing_is_not_enough():
    # Powers of two are superincreasing yet fail the weighted bound.
    assert first_violation((1, 2, 4, 8, 16)) == 2


def test_ceil_lg_and_modulus_floor():
    assert [ceil_lg(m) for m in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ParameterError):
        ceil_lg(0)
    assert min_modulus_bits(8) == 13  # ceil(1.585 * 8) = ceil(12.68)
    assert min_modulus_bits(12) == 20
    # The worked reference modulus actually sits one bit under the floor;
    # the codec loads such keys with a warning rather than rejecting them.
    assert ceil_lg(REF_M) == min_modulus_bits(8) - 1


def test_weighted_sum_reference():
    # sum of (9 - i) * A_i for the reference sequence, within the modulus.
    assert weighted_sum(REF_A) == 3570
    assert weighted_sum(REF_A) < REF_M


@given(st.lists(st.integers(min_value=1, max_value=1 << 80), max_size=40))
def test_weighted_sum_is_the_last_capacity_bound(seq):
    assert weighted_sum(seq) == capacity(seq)[1][-1]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n_tilde", [2, 3, 8, 24, 96])
def test_generated_sequences_validate(n_tilde, seed):
    seq = gen_extra_superincreasing(n_tilde, Random(seed))
    assert first_violation(seq) == 0
    assert property1_reference(seq, k=default_k_max(n_tilde))


def test_property1_reference_small_k():
    for k in (0, 1, 7, 115):
        assert property1_reference(REF_A, k)


def test_select_modulus_window():
    seq = gen_extra_superincreasing(8, Random(1))
    for seed in range(20):
        m = select_modulus(seq, Random(seed))
        assert m > weighted_sum(seq)
        assert ceil_lg(m) == 16
    with pytest.raises(SequenceTooLargeError):  # weighted sum 102 needs 7 bits, ceiling 4
        select_modulus((1, 100), Random(0))


def test_sample_units_invertible():
    for seed in range(20):
        w, delta, neg_w, delta_inv = sample_units(REF_M, Random(seed))
        assert (w + neg_w) % REF_M == 0
        assert delta * delta_inv % REF_M == 1


def test_sample_lever_is_injection():
    for seed in range(20):
        lever = sample_lever(8, Random(seed))
        assert len(set(lever)) == 8
        assert all(1 <= e <= 16 for e in lever)


def test_derive_public_reference_vector(ref_pub):
    assert ref_pub.C == REF_C
    assert ref_pub.M == REF_M


def test_derive_public_rejects_zero_element():
    # A_1 + W * ell(1) = M makes C_1 = 0.
    w = (REF_M - REF_A[0])  # with lever value 1: (A_1 + W) % M == 0
    with pytest.raises(DegeneratePublicElementError):
        derive_public(REF_A, w, 1, (1, 2, 3, 4, 5, 6, 7, 8), REF_M, 8)


def test_derive_public_rejects_mismatched_lever():
    with pytest.raises(ParameterError):
        derive_public(
            REF_A, REF_W, REF_DELTA, REF_LEVER[:4], REF_M, 8,
        )


@pytest.mark.parametrize("n", [4, 8, 16])
def test_keygen_produces_consistent_pair(n):
    pub, prv = keygen(n, Random(42))
    assert pub.n_tilde == prv.n_tilde == 3 * n // 2
    assert pub.M == prv.M
    assert first_violation(prv.A) == 0
    assert weighted_sum(prv.A) < prv.M
    assert all(0 < c < pub.M for c in pub.C)
    # The recorded units really invert the hidden transform domain.
    assert ceil_lg(pub.M) == 2 * pub.n_tilde


def test_keygen_deterministic_for_seed():
    a = keygen(8, Random(7))
    b = keygen(8, Random(7))
    assert a == b


@pytest.mark.parametrize("bad_n", [0, 2, 3, 5, 7])
def test_keygen_rejects_bad_sizes(bad_n):
    with pytest.raises(ParameterError):
        keygen(bad_n, Random(0))


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: gen_extra_superincreasing(1, Random(0)), "n_tilde must be >= 2, got 1"),
        (lambda: sample_units(2, Random(0)), "modulus must be >= 3, got 2"),
        (lambda: sample_lever(0, Random(0)), "n_tilde must be >= 1, got 0"),
        (lambda: derive_public((1, 3), 5, 2, (1, 2), 18, 2), "delta is not invertible mod M"),
        (lambda: select_modulus((), Random(0)), "empty sequence"),
        (lambda: derive_public((), 1, 1, (), 3, 0), "empty sequence"),
    ],
    ids=["sequence", "units", "lever", "delta", "modulus-empty", "public-empty"],
)
def test_key_parts_reject_bad_inputs(call, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


class TopDraws:
    """A stub rng whose one-off draws are at their maximum: randint(a, b) is b.

    The sequence's per-position draws go through keygen._below, which the
    test patches to n - 1, so the stub's getrandbits is never called.
    """

    def randint(self, a, b):
        return b

    def getrandbits(self, k):
        raise AssertionError("a per-position draw bypassed keygen._below")


def test_largest_generated_sequence_fits_the_modulus_ceiling(monkeypatch):
    monkeypatch.setattr(keygen_module, "_below", lambda n, getrandbits: n - 1)
    # keygen's n_tilde runs from 6 to 3/2 of the CLI's payload ceiling; only 2 and 3 overflow
    for n_tilde in [*range(4, 301), 3 * juoan2.cli._MAX_KEYGEN_N // 2]:
        seq = gen_extra_superincreasing(n_tilde, TopDraws())
        assert select_modulus(seq, TopDraws()) == 1 << max_modulus_bits(n_tilde), n_tilde
    for n_tilde in (2, 3):
        with pytest.raises(SequenceTooLargeError):
            select_modulus(gen_extra_superincreasing(n_tilde, TopDraws()), TopDraws())


# Reference bodies: keygen's draws and public transform in their plainest
# form.  keygen must return exactly what a pipeline built from them returns.


def reference_sequence(n_tilde, rng):
    a = [rng.randint(1, 4)]
    plain = a[0]
    bound = a[0]
    for i in range(1, n_tilde):
        lower = a[0] + 1 if i == 1 else bound
        a.append(lower + rng.randint(1, lower))
        plain += a[-1]
        bound += plain
    return tuple(a)


def reference_lever(n_tilde, rng):
    return tuple(rng.sample(range(1, 2 * n_tilde + 1), n_tilde))


def reference_public_element(a, w, e, delta, M):
    return (a + w * e) * delta % M


def reference_keygen(n, rng):
    """(pub, prv, number of unit and lever draws) from the reference bodies."""
    n_tilde = 3 * n // 2
    seq = reference_sequence(n_tilde, rng)
    M = select_modulus(seq, rng)
    draws = 0
    while True:
        draws += 1
        w, delta, neg_w, delta_inv = sample_units(M, rng)
        lever = reference_lever(n_tilde, rng)
        C = tuple(reference_public_element(a, w, e, delta, M) for a, e in zip(seq, lever))
        if all(C):
            return PublicKey(C, M, n), PrivateKey(seq, neg_w, delta_inv, M, n), draws


@pytest.mark.parametrize("n", [4, 6, 8, 16, 32, 128, 512])
def test_keygen_matches_the_reference_pipeline(n):
    for seed in range(20):
        pub, prv, _ = reference_keygen(n, Random(seed))
        assert keygen(n, Random(seed)) == (pub, prv), seed


def test_keygen_matches_the_reference_pipeline_after_a_zero_element():
    # Seed 489's first units and lever give a zero public element at n = 4.
    pub, prv, draws = reference_keygen(4, Random(489))
    assert draws == 2
    assert keygen(4, Random(489)) == (pub, prv)


@pytest.mark.parametrize("n_tilde", [2, 3])  # below keygen's n_tilde >= 6
def test_generated_sequence_matches_the_randint_draws(n_tilde):
    for seed in range(20):
        assert gen_extra_superincreasing(n_tilde, Random(seed)) == reference_sequence(
            n_tilde, Random(seed)
        )


# The per-position draws read rng.getrandbits directly; each must leave the
# same values and the same generator state as the stdlib call it replaces.

seeds = st.integers(min_value=0, max_value=1 << 64)
# Bounds from 1 to 2**4096, with 1, the powers of two and their neighbours
# (where the rejection rate is lowest and highest) drawn often.
bounds = st.one_of(
    st.integers(min_value=1, max_value=1 << 4096),
    st.integers(min_value=0, max_value=4096).flatmap(
        lambda k: st.sampled_from([(1 << k) - 1, 1 << k, (1 << k) + 1])
    ).filter(lambda n: n >= 1),
)


@settings(max_examples=300)
@given(seeds, bounds)
def test_below_is_the_randrange_stream(seed, n):
    rng, ref = Random(seed), Random(seed)
    assert [_below(n, rng.getrandbits) for _ in range(3)] == [ref.randrange(n) for _ in range(3)]
    assert rng.getstate() == ref.getstate()


@settings(max_examples=300)
@given(seeds, bounds, st.integers(min_value=0, max_value=40))
def test_draws_below_is_the_randrange_stream(seed, n, count):
    rng, ref = Random(seed), Random(seed)
    assert draws_below(n, count, rng) == [ref.randrange(n) for _ in range(count)]
    assert rng.getstate() == ref.getstate()


@given(seeds, st.integers(min_value=0, max_value=600))
def test_coin_flips_are_the_randint_stream(seed, count):
    rng, ref = Random(seed), Random(seed)
    assert draws_below(2, count, rng) == [ref.randint(0, 1) for _ in range(count)]
    assert rng.getstate() == ref.getstate()


@settings(deadline=None)
@given(seeds, st.one_of(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=6144)))
def test_sample_lever_is_the_sample_stream(seed, n_tilde):
    # 6144 is n_tilde at the CLI's payload ceiling
    rng, ref = Random(seed), Random(seed)
    assert sample_lever(n_tilde, rng) == reference_lever(n_tilde, ref)
    assert rng.getstate() == ref.getstate()


@given(
    st.integers(min_value=3, max_value=1 << 200).flatmap(
        lambda M: st.tuples(
            st.just(M),
            st.lists(st.integers(min_value=0, max_value=M), min_size=1, max_size=6),
            st.integers(min_value=0, max_value=M - 1),
            st.integers(min_value=1, max_value=M - 1),
        )
    )
)
def test_derive_public_equals_the_product_form(args):
    M, seq, w, delta = args
    assume(gcd(delta, M) == 1)
    lever = range(1, len(seq) + 1)
    C = tuple(reference_public_element(a, w, e, delta, M) for a, e in zip(seq, lever))
    if all(C):
        assert derive_public(seq, w, delta, lever, M, 0).C == C
    else:
        with pytest.raises(DegeneratePublicElementError):
            derive_public(seq, w, delta, lever, M, 0)
