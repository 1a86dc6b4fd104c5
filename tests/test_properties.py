"""Property checks of the single implementations against slow references."""

import math
import re
import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juoan2 import (
    Ciphertext,
    DecodeError,
    FramingError,
    audit_message,
    decode_key,
    decrypt_message,
    default_k_max,
    encrypt_message,
    gen_extra_superincreasing,
    keygen,
)
from juoan2 import decrypt
from juoan2.cryptanalysis import assp_density_from_bits
from juoan2.decrypt import (
    GreedyStep,
    audit_decrypt_block,
    _least_multiple_in,
    _shifted_targets,
    decompose_candidates,
    greedy_steps,
)
from juoan2.encrypt import BitBlock, NoiseVector, anomalous_sum, compute_L, encrypt_block
from juoan2.keygen import PublicKey, capacity, first_violation, weighted_sum


def first_violation_reference(a):
    """The O(n^2) check: recompute each weighted prefix sum from scratch."""
    if a[0] < 1:
        return 1
    if len(a) > 1 and a[1] <= a[0] + 1:
        return 2
    for i in range(2, len(a)):
        if a[i] <= sum((i - j) * a[j] for j in range(i)):
            return i + 1
    return 0


def threshold_reference(a, i):
    """Largest value the element at 0-based index i may not take."""
    if i == 0:
        return 0
    if i == 1:
        return a[0] + 1
    return sum((i - j) * a[j] for j in range(i))


@st.composite
def near_rule_sequences(draw):
    """Sequences whose every element sits a few units either side of its bound."""
    offsets = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=16))
    a = []
    for i, off in enumerate(offsets):
        a.append(threshold_reference(a, i) + off)
    return a


@given(near_rule_sequences())
def test_first_violation_matches_reference_near_the_bound(a):
    assert first_violation(a) == first_violation_reference(a)


@given(st.lists(st.integers(-3, 1 << 20), min_size=1, max_size=12))
def test_first_violation_matches_reference_on_arbitrary_lists(a):
    assert first_violation(a) == first_violation_reference(a)


@given(st.one_of(near_rule_sequences(), st.lists(st.integers(-3, 1 << 40), max_size=12)))
def test_capacity_matches_its_definition(a):
    plain, bound = capacity(a)
    assert plain == [sum(a[:i]) for i in range(len(a) + 1)]
    assert bound == [sum((i - j) * a[j] for j in range(i)) for i in range(len(a) + 1)]


@given(st.one_of(near_rule_sequences(), st.lists(st.integers(-3, 1 << 40), max_size=12)))
def test_weighted_sum_matches_its_definition(a):
    # 1-based: sum of (n+1-i) * A_i
    n = len(a)
    assert weighted_sum(a) == sum((n + 1 - i) * a[i - 1] for i in range(1, n + 1))


@st.composite
def keys_blocks_noise(draw):
    n = draw(st.integers(4, 32))
    M = draw(st.integers(3, 1 << 80))
    C = tuple(draw(st.lists(st.integers(1, M - 1), min_size=n, max_size=n)))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any))
    noise = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return PublicKey(C, M, n), tuple(bits), tuple(noise)


@given(keys_blocks_noise())
def test_anomalous_sum_matches_encrypt_block(case):
    pub, bits, noise = case
    positions = [i + 1 for i in range(len(noise)) if noise[i]]
    S = encrypt_block(pub, BitBlock(bits, len(bits)), NoiseVector(noise)).S
    assert anomalous_sum(pub, bits, positions) == S
    # the definition: L_i * C_i over set bits and noise at zero bits
    levels = compute_L(bits)
    terms = (levels[i] * pub.C[i] for i in range(len(bits)) if bits[i] or noise[i])
    assert sum(terms) % pub.M == S


def test_long_private_key_is_rejected_in_linear_time():
    a = gen_extra_superincreasing(3999, Random(4000))
    a += (weighted_sum(a),)  # the 4000th element equals its bound
    text = "\n".join([
        "JUOAN2 PRIVATE KEY v1",
        "n=4000",
        "np=4000",
        f"M={weighted_sum(a) + 1:x}",
        "A=" + ",".join(format(x, "x") for x in a),
        "NW=1",
        "DI=1",
    ])
    start = time.perf_counter()
    with pytest.raises(DecodeError, match="index 4000"):
        decode_key(text)
    # the quadratic check took over 3 s here; the linear one takes milliseconds
    assert time.perf_counter() - start < 1.0


def test_assp_density_matches_exact_factorial():
    for n in range(1, 201):
        exact = math.log2(math.factorial(n))
        report = assp_density_from_bits(n, 2 * n)
        assert report.density == pytest.approx(exact / (2 * n), rel=1e-12, abs=0)
        assert report.lower_bound == pytest.approx(exact / (2 * n), rel=1e-12, abs=0)


def least_multiple_reference(a, m, lo, hi):
    """Least x >= 0 with lo <= a*x mod m <= hi, by trying x = 0..m-1."""
    return next((x for x in range(m) if lo <= a * x % m <= hi), None)


@st.composite
def moduli_and_ranges(draw):
    m = draw(st.integers(1, 60))
    lo = draw(st.integers(0, m - 1))
    hi = draw(st.integers(lo, m - 1))
    return m, lo, hi


@given(moduli_and_ranges())
def test_least_multiple_matches_brute_force(case):
    m, lo, hi = case
    for a in range(m):
        assert _least_multiple_in(a, m, lo, hi) == least_multiple_reference(a, m, lo, hi)


def test_least_multiple_reflects_to_stay_logarithmic():
    # a = m - 1 (a key with W = 1): reducing on (-m mod a, a) without first
    # reflecting a to m - a drops the modulus by one per level, about a
    # second of work here; with the reflection the answer comes at once
    m = 1 << 20
    start = time.perf_counter()
    assert _least_multiple_in(m - 1, m, 1, 1) == m - 1
    assert time.perf_counter() - start < 0.25


def linear_shifted_targets(prv, ct, k_max):
    """The retry scan one offset at a time: the reference for the jump search."""
    budget = weighted_sum(prv.A)
    t = ct.S * prv.delta_inv % prv.M
    for k in range(1, k_max + 1):
        t = (t + prv.neg_w) % prv.M
        if t <= budget:
            yield k, t


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 8, 16, 32]), st.integers(0, 2**32), st.booleans(), st.data())
def test_shifted_targets_match_the_linear_scan(n, seed, genuine, data):
    rng = Random(seed)
    pub, prv = keygen(n, rng)
    if genuine:
        ct = encrypt_message(pub, b"", rng)[0]
    else:
        ct = Ciphertext(rng.randrange(prv.M))
    full = default_k_max(prv.n_tilde)
    hits = list(linear_shifted_targets(prv, ct, full))
    assert list(_shifted_targets(prv, ct, full)) == hits
    limits = {0, 1}
    if hits:
        k = data.draw(st.sampled_from(hits))[0]
        limits |= {k, k - 1}
    for k_max in sorted(limits):
        assert list(_shifted_targets(prv, ct, k_max)) == list(
            linear_shifted_targets(prv, ct, k_max)
        )


def recursive_decompose_candidates(a, target):
    """The recursive tree walk: the reference for the explicit-stack walk."""
    n = len(a)
    plain = [0] * n
    cap = [0] * n
    acc = 0
    for i, x in enumerate(a):
        acc += x
        plain[i] = acc
        cap[i] = (cap[i - 1] if i else 0) + acc
    bits = [0] * n
    noise = [0] * n
    steps = []

    def walk(i, s, level):
        if s == 0:
            yield tuple(bits), tuple(p + 1 for p in range(n) if noise[p]), tuple(steps)
            return
        if i < 0 or s > level * plain[i] + cap[i]:
            return
        x = a[i]
        if s >= (level + 1) * x:
            bits[i] = 1
            steps.append(GreedyStep(i + 1, "one", s - (level + 1) * x))
            yield from walk(i - 1, s - (level + 1) * x, level + 1)
            steps.pop()
            bits[i] = 0
        if level > 0 and s >= level * x:
            noise[i] = 1
            steps.append(GreedyStep(i + 1, "noise", s - level * x))
            yield from walk(i - 1, s - level * x, level)
            steps.pop()
            noise[i] = 0
        steps.append(GreedyStep(i + 1, "skip", s))
        yield from walk(i - 1, s, level)
        steps.pop()

    yield from walk(n - 1, target, 0)


def walk_with_steps(seq, target):
    """The walk's candidates, each with its rebuilt steps, in the recursive walk's shape."""
    return [
        (bits, noise, greedy_steps(seq, target, bits, noise))
        for bits, noise in decompose_candidates(seq, target)
    ]


@st.composite
def sequences_and_targets(draw):
    n = draw(st.integers(2, 16))
    seq = gen_extra_superincreasing(n, Random(draw(st.integers(0, 2**32))))
    if draw(st.booleans()):
        target = draw(st.integers(0, weighted_sum(seq)))
    else:  # an unreduced anomalous sum, which always decomposes
        bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        noise = draw(st.lists(st.integers(1, n), max_size=n))
        target = anomalous_sum(PublicKey(seq, weighted_sum(seq) + 1, n), bits, noise)
    return seq, target


@settings(deadline=None)
@given(sequences_and_targets())
def test_decompose_candidates_match_the_recursive_walk(case):
    seq, target = case
    assert walk_with_steps(seq, target) == list(recursive_decompose_candidates(seq, target))


@settings(deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.integers(0, 2**32))
def test_decompose_candidates_match_the_recursive_walk_on_any_positive_sequence(seq, seed):
    # Keys always satisfy the sequence rule, under which a set bit and a
    # skip are never both feasible; the walk's pruning holds for any
    # positive sequence, and so must its order.
    target = Random(seed).randint(0, weighted_sum(seq))
    assert walk_with_steps(seq, target) == list(recursive_decompose_candidates(seq, target))


@pytest.mark.parametrize("n", [64, 128])
def test_decompose_candidates_match_the_recursive_walk_on_real_residues(n):
    # The first (up to) three residues of the retry search on genuine
    # ciphertexts; uniform residues under the budget, which is where a
    # forged sum's residues land (a uniform forged sum at these sizes almost
    # never has one); and unreduced anomalous sums of random patterns, which
    # always decompose.  The recursion goes 3n/2 deep.
    rng = Random(7000 + n)
    for _ in range(8):
        pub, prv = keygen(n, rng)
        ct = encrypt_message(pub, rng.randbytes(3), rng)[0]
        genuine = [t for _, t in _shifted_targets(prv, ct, default_k_max(prv.n_tilde))][:3]
        assert genuine
        m = prv.n_tilde
        unreduced = PublicKey(prv.A, weighted_sum(prv.A) + 1, m)
        forged = [rng.randint(0, weighted_sum(prv.A)) for _ in range(3)] + [
            anomalous_sum(
                unreduced,
                [rng.randint(0, 1) for _ in range(m)],
                rng.sample(range(1, m + 1), rng.randint(0, m)),
            )
            for _ in range(3)
        ]
        for t in genuine + forged:
            assert walk_with_steps(prv.A, t) == list(recursive_decompose_candidates(prv.A, t))


def minimal_growth_sequence(n):
    """A_1 = 1, A_2 = 3, then each A_i one above the weighted sum of A_1..A_(i-1)."""
    a = [1, 3]
    for i in range(3, n + 1):
        a.append(weighted_sum(a[: i - 1]) + 1)
    return a


@pytest.mark.parametrize("n", [12, 18])
def test_decompose_candidates_match_the_recursive_walk_on_minimal_growth(n):
    # A sequence that grows as slowly as the bound allows decomposes most
    # targets many ways, so the walk backtracks deep and often, and each
    # yielded path is read back after many pops.
    seq = minimal_growth_sequence(n)
    rng = Random(n)
    yielded = 0
    for _ in range(6):
        target = rng.randint(0, weighted_sum(seq))
        candidates = walk_with_steps(seq, target)
        assert candidates == list(recursive_decompose_candidates(seq, target))
        yielded += len(candidates)
    assert yielded > 12


def oracle_steps(seq, trace):
    """The recursive walk's steps for the candidate a trace accepted."""
    for bits, noise, steps in recursive_decompose_candidates(seq, trace.residue):
        if (bits, noise) == (trace.bits, trace.noise_positions):
            return steps
    raise AssertionError("the trace's candidate is not a decomposition of its residue")


def test_decryption_builds_steps_only_when_a_trace_is_read(monkeypatch):
    rng = Random(128)
    pub, prv = keygen(128, rng)
    message = b"no step per node"
    blocks = encrypt_message(pub, message, rng)
    built = []

    def counting_step(*args):
        built.append(args)
        return GreedyStep(*args)

    monkeypatch.setattr(decrypt, "GreedyStep", counting_step)
    assert decrypt.decrypt_message(prv, blocks, pub) == message
    _, trace = decrypt.decrypt_block(prv, blocks[0], pub)
    assert built == []
    steps = trace.steps
    assert steps == oracle_steps(prv.A, trace)
    assert len(built) == len(steps) > 0


def test_audit_traces_stay_distinct_and_keep_their_steps():
    # A block with two verified decompositions, at k = 273 and k = 359.  Each
    # trace rebuilds its steps from its own residue t_k and pattern, not
    # from the last candidate the walk yielded.
    rng = Random(30)
    pub, prv = keygen(8, rng)
    ct = encrypt_message(pub, b"", rng)[0]
    traces = audit_decrypt_block(prv, ct, pub)
    assert [t.k for t in traces] == [273, 359] and traces[0] != traces[1]
    residues = dict(_shifted_targets(prv, ct, default_k_max(prv.n_tilde)))
    for trace in traces:
        assert trace.residue == residues[trace.k]
        assert trace.steps == oracle_steps(prv.A, trace)
        assert {s.i for s in trace.steps if s.branch == "noise"} == set(trace.noise_positions)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 128), st.binary(max_size=40), st.integers(0, 2**32))
def test_message_round_trip(half_n, message, seed):
    rng = Random(seed)
    pub, prv = keygen(2 * half_n, rng)
    blocks = encrypt_message(pub, message, rng)
    # Small keys have blocks with a second preimage that re-encrypts to the
    # same sum (about 1 in 6 blocks at n = 4, none seen from n = 12 on);
    # decryption may return that one, so only unambiguous messages must match.
    try:
        decrypted, traces = audit_message(prv, blocks, pub)
    except FramingError as exc:  # only a second preimage, taken first, breaks the framing
        assert any(len(audit_decrypt_block(prv, ct, pub)) > 1 for ct in blocks)
        with pytest.raises(FramingError, match=f"^{re.escape(str(exc))}$"):
            decrypt_message(prv, blocks, pub)
        return
    assert decrypt_message(prv, blocks, pub) == decrypted
    if all(len(found) == 1 for found in traces):
        assert decrypted == message
