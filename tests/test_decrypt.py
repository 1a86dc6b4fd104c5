"""Decryption: the -W scan, verified decomposition, framing."""

import time
from random import Random

import pytest

import juoan2
from juoan2 import (
    Ciphertext,
    FramingError,
    InvalidCiphertextError,
    ParameterError,
    PrivateKey,
    audit_decrypt_block,
    audit_message,
    decode_key,
    decrypt_block,
    decrypt_message,
    default_k_max,
    encode_key,
    encrypt_block,
    encrypt_message,
    derive_public,
    extend_block,
    gen_extra_superincreasing,
    keygen,
    sample_noise,
)
from juoan2.cryptanalysis import brute_force_assp
from juoan2.decrypt import GreedyStep, _shifted_targets, decompose_candidates, reencrypts_to
from juoan2.encrypt import compute_L
from juoan2.keygen import sample_lever, sample_units, select_modulus

from conftest import (
    BAD_FRAMINGS,
    NO_RESIDUE_PRV,
    NO_RESIDUE_PUB,
    NO_RESIDUE_S,
    REF_BITS,
    REF_BRANCHES,
    REF_INTERMEDIATE,
    REF_K,
    REF_S,
    REF_S0,
    encrypt_payloads,
)


def test_decrypt_block_reference_with_verification(ref_prv, ref_pub):
    block, trace = decrypt_block(ref_prv, Ciphertext(REF_S), ref_pub)
    assert block.bits == REF_BITS
    assert trace.k == REF_K
    assert tuple(s.branch for s in trace.steps) == REF_BRANCHES
    assert (REF_S * ref_prv.delta_inv) % ref_prv.M == REF_S0
    assert (REF_S0 + trace.k * ref_prv.neg_w) % ref_prv.M == REF_INTERMEDIATE


def test_literal_scan_closes_early_and_wrong(ref_prv, ref_pub):
    # The scheme's stated rule takes the first k whose greedy pass closes at
    # zero.  On the reference ciphertext that is k=12, far below the true
    # k=115, and its first (greedy-order) candidate has the wrong bits and
    # does not re-encrypt: the reason every candidate is verified against
    # the public key.
    t = (REF_S0 + 12 * ref_prv.neg_w) % ref_prv.M
    bits, noise_positions = next(decompose_candidates(ref_prv.A, t))
    assert bits == (0, 0, 0, 0, 0, 0, 0, 1)
    assert not reencrypts_to(ref_pub, bits, noise_positions, REF_S)


def test_trace_repr_shows_no_private_sequence():
    rng = Random(64)
    pub, prv = keygen(64, rng)
    block, trace = decrypt_block(prv, encrypt_message(pub, b"secret", rng)[0], pub)
    assert trace.bits == block.bits and trace.seq == prv.A
    assert repr(trace) == (
        f"DecryptTrace(k={trace.k}, bits={trace.bits}, "
        f"noise_positions={trace.noise_positions}, residue={trace.residue})"
    )


def test_another_keys_public_key_is_refused(ref_prv):
    other_pub, _ = keygen(8, Random(0))
    ct = Ciphertext(REF_S)
    for call in (decrypt_block, audit_decrypt_block):
        with pytest.raises(ParameterError, match="does not match the private key"):
            call(ref_prv, ct, other_pub)
    with pytest.raises(ParameterError, match="does not match the private key"):
        decrypt_message(ref_prv, [ct], other_pub)


def test_audit_lists_the_true_k(ref_prv, ref_pub):
    traces = audit_decrypt_block(ref_prv, Ciphertext(REF_S), ref_pub)
    assert any(t.k == REF_K for t in traces)


@pytest.mark.parametrize("n", [4, 6])
def test_audit_finds_every_verified_plaintext(n):
    # decrypt --audit judges ambiguity by the set audit_decrypt_block returns;
    # it must be exactly the nonzero bit patterns the brute-force oracle finds
    # (the forced padding bit rules out the all-zero block), for genuine
    # blocks and for uniform residues, which often have no preimage.
    rng = Random(1000 + n)
    for _ in range(10):
        pub, prv = keygen(n, rng)
        targets = []
        for _ in range(25):
            block = extend_block([rng.randint(0, 1) for _ in range(n)], rng)
            targets.append(encrypt_block(pub, block, sample_noise(block.n_total, rng)).S)
            targets.append(rng.randrange(pub.M))
        for S in targets:
            audited = {t.bits for t in audit_decrypt_block(prv, Ciphertext(S), pub)}
            assert audited == {bits for bits, _ in brute_force_assp(pub, S) if any(bits)}, S


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda prv, pub: decrypt_block(prv, Ciphertext(prv.M), pub), r"^ciphertext 3581 outside \[0, 3581\)$"),
        (lambda prv, pub: decrypt_block(prv, Ciphertext(-1), pub), r"^ciphertext -1 outside \[0, 3581\)$"),
        (lambda prv, pub: next(decompose_candidates(prv.A, -1)), "^target must be >= 0, got -1$"),
    ],
    ids=["S=M", "S=-1", "negative-target"],
)
def test_decryption_refuses_an_out_of_range_target(ref_prv, ref_pub, call, message):
    with pytest.raises(ParameterError, match=message):
        call(ref_prv, ref_pub)


def test_greedy_step_keeps_its_public_shape():
    assert GreedyStep._fields == ("i", "branch", "residual")
    step = GreedyStep(i=3, branch="one", residual=7)
    assert (step.i, step.branch, step.residual) == (3, "one", 7)
    with pytest.raises(AttributeError):
        step.residual = 0
    assert juoan2.GreedyStep is GreedyStep and "GreedyStep" in juoan2.__all__


def test_default_k_max():
    assert default_k_max(8) == 8 * 8 * 9


def test_invalid_ciphertext_raises(ref_prv, ref_pub):
    # S = 12 has no (block, noise) preimage under the reference key (checked
    # exhaustively by the brute-force oracle), so every scan must fail.
    with pytest.raises(InvalidCiphertextError):
        decrypt_block(ref_prv, Ciphertext(12), ref_pub)


@pytest.mark.parametrize(
    ("n", "minimum"),
    [
        # At n=4 and n=8 the modulus is small enough that distinct
        # (block, noise) patterns occasionally share a ciphertext; decryption
        # then returns a different genuine preimage.  n=16 has headroom.
        (4, 20),
        (8, 22),
        (16, 25),
    ],
)
def test_block_round_trip(n, minimum):
    rng = Random(n)
    ok = 0
    for _ in range(25):
        pub, prv = keygen(n, rng)
        block = extend_block([rng.randint(0, 1) for _ in range(n)], rng)
        ct = encrypt_block(pub, block, sample_noise(block.n_total, rng))
        got, trace = decrypt_block(prv, ct, pub)
        # Whatever comes back is a genuine preimage of the ciphertext.
        assert encrypt_block(
            pub, got, _noise_from_trace(got, trace)
        ).S == ct.S
        ok += got.bits == block.bits
    assert ok >= minimum


def _noise_from_trace(block, trace):
    from juoan2.encrypt import NoiseVector

    noise = [0] * len(block.bits)
    for step in trace.steps:
        if step.branch == "noise":
            noise[step.i - 1] = 1
    return NoiseVector(tuple(noise))


def test_message_round_trip():
    rng = Random(99)
    pub, prv = keygen(16, rng)
    for size in (0, 1, 2, 31):
        message = bytes(rng.randrange(256) for _ in range(size))
        cts = encrypt_message(pub, message, rng)
        assert decrypt_message(prv, cts, pub) == message


def test_decrypt_message_rejects_framing_mismatch():
    rng = Random(1)
    pub, prv = keygen(8, rng)
    cts = encrypt_message(pub, b"x", rng)
    with pytest.raises(FramingError):
        decrypt_message(prv, cts, pub, n_payload=16)


def test_block_errors_name_the_block():
    rng = Random(2)
    pub, prv = keygen(8, rng)
    cts = encrypt_message(pub, b"ab", rng)
    for S, message in [
        (0, "block 1"),
        (prv.M + 5, rf"^block 1: ciphertext {prv.M + 5} outside \[0, {prv.M}\)$"),
    ]:
        cts[1] = Ciphertext(S)
        with pytest.raises(InvalidCiphertextError, match=message):
            decrypt_message(prv, cts, pub)


@pytest.mark.parametrize("payloads, message", BAD_FRAMINGS.values(), ids=BAD_FRAMINGS)
def test_decrypt_message_rejects_bad_framing(payloads, message):
    rng = Random(3)
    pub, prv = keygen(8, rng)
    cts = encrypt_payloads(pub, payloads, rng)
    assert [decrypt_block(prv, ct, pub)[0].bits[:8] for ct in cts] == payloads
    with pytest.raises(FramingError, match=message):
        decrypt_message(prv, cts, pub)


def _outcome(call):
    """A call's result, or the type and text of the error it raised."""
    try:
        return call()
    except (FramingError, InvalidCiphertextError, ParameterError) as exc:
        return type(exc), str(exc)


def _decrypt_then_audit(prv, cts, pub):
    """The two scans `audit_message` replaces: decrypt_message, then every block again."""
    return decrypt_message(prv, cts, pub), [audit_decrypt_block(prv, ct, pub) for ct in cts]


def test_audit_message_matches_decryption_and_per_block_audits():
    rng = Random(24)
    cases = []
    for n in (4, 8, 16):
        for _ in range(3):
            pub, prv = keygen(n, rng)
            cases += [(prv, encrypt_message(pub, rng.randbytes(size), rng), pub)
                      for size in (0, 1, 5)]
    # Ambiguous n=4 keys: "hi" under seed 1 decrypts to b"bi" (blocks 1 and 2
    # have two verified plaintexts), and under seed 5 fails its framing.
    for seed in (1, 5):
        pub, prv = keygen(4, Random(seed))
        cases.append((prv, encrypt_message(pub, b"hi", Random(seed)), pub))
    ambiguous = refused = 0
    for prv, cts, pub in cases:
        got = _outcome(lambda: audit_message(prv, cts, pub))
        assert got == _outcome(lambda: _decrypt_then_audit(prv, cts, pub))
        if isinstance(got[0], bytes):
            ambiguous += any(len(traces) > 1 for traces in got[1])
        else:
            refused += 1
    assert ambiguous and refused  # both kinds of n=4 message were compared


def _three_blocks():
    rng = Random(2)
    pub, prv = keygen(8, rng)
    return prv, encrypt_message(pub, b"ab", rng), pub


def _with_block_1(S):
    prv, cts, pub = _three_blocks()
    cts[1] = Ciphertext(S(prv.M))
    return prv, cts, pub


def _framed(payloads):
    prv, _, pub = _three_blocks()
    return prv, encrypt_payloads(pub, payloads, Random(3)), pub


@pytest.mark.parametrize("case, error", [
    pytest.param(lambda: _with_block_1(lambda M: 0), InvalidCiphertextError, id="no-trace"),
    pytest.param(lambda: _with_block_1(lambda M: M + 5), InvalidCiphertextError, id="beyond-M"),
    pytest.param(lambda: _three_blocks()[:2] + (keygen(8, Random(3))[0],), ParameterError,
                 id="another-public-key"),
] + [
    pytest.param(lambda payloads=payloads: _framed(payloads), FramingError, id=name)
    for name, (payloads, _) in BAD_FRAMINGS.items()
])
def test_audit_message_refuses_what_decrypt_message_refuses(case, error):
    prv, cts, pub = case()
    got = _outcome(lambda: audit_message(prv, cts, pub))
    assert got[0] is error
    assert got == _outcome(lambda: _decrypt_then_audit(prv, cts, pub))


def test_a_retry_step_sharing_a_large_factor_with_M_reaches_no_residue():
    prv = decode_key(encode_key(NO_RESIDUE_PRV))
    ct = Ciphertext(NO_RESIDUE_S)
    assert list(_shifted_targets(prv, ct, prv.M)) == []  # k_max = M spans every residue
    with pytest.raises(InvalidCiphertextError, match="^no k <= 576 decomposes ciphertext 3999$"):
        decrypt_block(prv, ct, NO_RESIDUE_PUB)


def test_garbage_block_is_rejected_quickly_at_n128():
    rng = Random(128)
    pub, prv = keygen(128, rng)
    ct = Ciphertext(rng.randrange(prv.M))
    start = time.perf_counter()
    with pytest.raises(InvalidCiphertextError):
        decrypt_block(prv, ct, pub)
    # stepping through all 7.1e6 retry offsets one by one took about 0.9 s
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [512, 700])
def test_large_message_round_trip(n):
    rng = Random(n)
    pub, prv = keygen(n, rng)
    blocks = encrypt_message(pub, b"large keys", rng)
    assert decrypt_message(prv, blocks, pub) == b"large keys"


def test_audit_lists_the_true_k_at_n128():
    rng = Random(7)
    seq = gen_extra_superincreasing(192, rng)
    M = select_modulus(seq, rng)
    w, delta, neg_w, delta_inv = sample_units(M, rng)
    lever = sample_lever(192, rng)
    pub = derive_public(seq, w, delta, lever, M, 128)
    prv = PrivateKey(seq, neg_w, delta_inv, M, 128)
    block = extend_block([rng.randint(0, 1) for _ in range(128)], rng)
    noise = sample_noise(block.n_total, rng)
    # C_i = (A_i + W * ell(i)) * delta, so each term L_i * C_i of the sum
    # carries L_i * ell(i) multiples of W, and k is their total
    levels = compute_L(block.bits)
    true_k = sum(
        levels[i] * lever[i] for i in range(192) if block.bits[i] or noise.bits[i]
    )
    traces = audit_decrypt_block(prv, encrypt_block(pub, block, noise), pub)
    assert any(t.k == true_k and t.bits == block.bits for t in traces)
