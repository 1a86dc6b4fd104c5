"""Decryption: unit stripping, the -W retry search, and verified decomposition.

Each retry adds -W to the unit-stripped residue and decomposes it against
the private sequence.  Only residues under the sequence's weighted sum can
decompose, so the retry search jumps straight from one such residue to the
next with a Euclid-style reduction on (-W, M): O(log M) big-integer
operations per residue found, rather than one step per retry up to the
n_tilde^2 (n_tilde + 1) ceiling.  The scheme's own rule (take the first
greedy pass that closes at zero) is unsound: at realistic sizes that pass
closes with the wrong bits, or at a wrong retry count, far more often than
not.  Decryption therefore needs the public key: it walks the full
decomposition tree in greedy order and accepts only candidates that
re-encrypt to the original ciphertext.  The walk tests each child against
the capacity of the positions left below it (`keygen.capacity`) before
pushing it, so no dead branch reaches the stack.  Each stack entry links to
the entry it was pushed from, and the walk reads the path back through
those links, building GreedySteps, only for the candidates it yields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .codec import check_ciphertext
from .encrypt import BitBlock, Ciphertext, anomalous_sum, bits_to_bytes
from .errors import FramingError, InvalidCiphertextError, ParameterError
from .keygen import PrivateKey, PublicKey, capacity, weighted_sum

BRANCH_ONE = "one"
BRANCH_NOISE = "noise"
BRANCH_SKIP = "skip"


class GreedyStep(NamedTuple):
    i: int  # 1-based position
    branch: str
    residual: int


@dataclass(frozen=True)
class DecryptTrace:
    """Record of the verified decomposition accepted for a block."""

    k: int
    steps: tuple[GreedyStep, ...]
    bits: tuple[int, ...]


def decompose_candidates(
    seq: Sequence[int], target: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[GreedyStep, ...]]]:
    """Enumerate every structurally valid decomposition of target over seq.

    Yields (bits, noise positions, steps) in greedy-preference order: at each
    position a set bit, then a noise term, then a skip.  A child is pushed
    only if it can still close: its residual is zero, or the positions below
    it can absorb the residual.  That test is Property 1 at level L, the
    count of ones already claimed: the positions below i absorb at most
    L*plain[i] + cap[i], read from `capacity`.  Each stack entry links to
    its parent, and the path is read back through those links only for a
    yielded candidate, so steps are built for yielded candidates only.
    """
    if target < 0:
        raise ParameterError(f"target must be >= 0, got {target}")
    n = len(seq)
    plain, cap = capacity(seq)
    if target > cap[n]:
        return

    # Depth-first with an explicit stack, children pushed in reverse branch
    # order.  An entry (i, s, level, branch, parent) is reached by `branch`
    # at 0-based position i + 1 with residual s; `parent` is the entry it
    # was pushed from, and the root has neither.
    stack: list[tuple] = [(n - 1, target, 0, None, None)]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        i, s, level, _, _ = node
        if s == 0:
            # Read the path back up the parent links, from position i + 1
            # to the top: bits and noise positions in ascending order.
            bits = [0] * (i + 1)
            noise = []
            steps = []
            while node[4] is not None:
                j, r, _, branch, node = node
                bits.append(1 if branch == BRANCH_ONE else 0)
                if branch == BRANCH_NOISE:
                    noise.append(j + 2)
                steps.append(GreedyStep(j + 2, branch, r))
            steps.reverse()
            yield tuple(bits), tuple(noise), tuple(steps)
            continue
        x = seq[i]
        room = cap[i]
        if level:
            room += level * plain[i]
            if s <= room:
                push((i - 1, s, level, BRANCH_SKIP, node))
            r = s - level * x
            if r >= 0:
                if r <= room:
                    push((i - 1, r, level, BRANCH_NOISE, node))
                if r >= x and r - x <= room + plain[i]:
                    push((i - 1, r - x, level + 1, BRANCH_ONE, node))
        else:
            if s <= room:
                push((i - 1, s, 0, BRANCH_SKIP, node))
            if s >= x and s - x <= room + plain[i]:
                push((i - 1, s - x, 1, BRANCH_ONE, node))


def reencrypts_to(
    pub: PublicKey, bits: Sequence[int], noise_positions: Sequence[int], S: int
) -> bool:
    """Check that the candidate (bits, noise) pattern re-encrypts to S."""
    return anomalous_sum(pub, bits, noise_positions) == S


def default_k_max(n_tilde: int) -> int:
    """Analytic ceiling of the retry count: max of sum L_i * ell(i)."""
    return n_tilde * n_tilde * (n_tilde + 1)


def _least_multiple_in(a: int, m: int, lo: int, hi: int) -> int | None:
    """Least x >= 0 with lo <= a*x mod m <= hi, or None; needs 0 <= lo <= hi < m.

    Euclid-style reduction.  When [lo, hi] holds no multiple of a, the least
    x comes from the least y >= 0 for which some a*x - m*y lies in [lo, hi],
    and finding y is the same problem on (-m mod a, a) with the range taken
    mod a.  Reflecting a > m/2 to m - a first (and the range to
    [m - hi, m - lo]) makes the modulus at least halve per level, so the
    loop runs at most bit_length(m) levels; they are kept on a list, not
    the call stack.
    """
    levels = []
    while lo:
        a %= m
        if not a:
            return None
        if 2 * a > m:
            a, lo, hi = m - a, m - hi, m - lo
        x = -(-lo // a)
        if a * x <= hi:
            break
        levels.append((a, m, lo))
        a, m, lo, hi = -m % a, a, lo % a, hi % a
    else:
        x = 0
    for a, m, lo in reversed(levels):
        x = -(-(lo + m * x) // a)
    return x


def _shifted_targets(prv: PrivateKey, ct: Ciphertext, k_max: int) -> Iterator[tuple[int, int]]:
    """Yield (k, t_k) for k = 1..k_max with t_k <= weighted_sum(A), in order.

    t_k = (S * delta^-1 + k * (-W)) mod M is the residue after k retries,
    and no residue above the budget weighted_sum(A) decomposes.  Rather than
    stepping k one by one, each next hit is found directly: past a residue
    t above the budget, the next hit is j more steps on, for the least j
    with M - t <= j * (-W) mod M <= M - t + budget.  That costs O(log M)
    big-integer operations per hit, however far apart the hits lie.
    """
    if not 0 <= ct.S < prv.M:
        raise ParameterError(f"ciphertext {ct.S} outside [0, {prv.M})")
    M, neg_w = prv.M, prv.neg_w
    budget = weighted_sum(prv.A)  # no decomposable target can exceed this
    t = ct.S * prv.delta_inv % M
    k = 0
    while True:
        t = (t + neg_w) % M
        k += 1
        if t > budget:
            j = _least_multiple_in(neg_w, M, M - t, M - t + budget)
            if j is None:
                return
            t = (t + j * neg_w) % M
            k += j
        if k > k_max:
            return
        yield k, t


def _scan(prv: PrivateKey, ct: Ciphertext, k_max: int, pub: PublicKey) -> Iterator[DecryptTrace]:
    """Yield the decompositions that re-encrypt to the ciphertext, for k = 1..k_max in order."""
    if pub.M != prv.M or pub.n_tilde != prv.n_tilde:
        raise ParameterError("public key does not match the private key")
    for k, t in _shifted_targets(prv, ct, k_max):
        for bits, noise_positions, steps in decompose_candidates(prv.A, t):
            if any(bits) and reencrypts_to(pub, bits, noise_positions, ct.S):
                yield DecryptTrace(k, steps, bits)


def decrypt_block(
    prv: PrivateKey, ct: Ciphertext, pub: PublicKey
) -> tuple[BitBlock, DecryptTrace]:
    """First verified decomposition; raises InvalidCiphertextError if no k yields one."""
    k_max = default_k_max(prv.n_tilde)
    for trace in _scan(prv, ct, k_max, pub):
        return BitBlock(trace.bits, prv.n_payload), trace
    raise InvalidCiphertextError(f"no k <= {k_max} decomposes ciphertext {ct.S}")


def audit_decrypt_block(prv: PrivateKey, ct: Ciphertext, pub: PublicKey) -> list[DecryptTrace]:
    """Enumerate every verified decomposition over all k (ambiguity measurement)."""
    return list(_scan(prv, ct, default_k_max(prv.n_tilde), pub))


def decrypt_message(
    prv: PrivateKey,
    ciphertexts: Sequence[Ciphertext],
    pub: PublicKey,
    n_payload: int | None = None,
) -> bytes:
    """Decrypt blocks, drop per-block padding, strip the 10* terminator.

    The ciphertext is checked against the key (`codec.check_ciphertext`)
    before any block is decrypted, and a block that does not decrypt is
    named by its 0-based index.
    """
    n = prv.n_payload if n_payload is None else n_payload
    check_ciphertext(ciphertexts, n, prv)
    payload_bits: list[int] = []
    for idx, ct in enumerate(ciphertexts):
        try:
            block, _ = decrypt_block(prv, ct, pub)
        except InvalidCiphertextError as exc:
            raise InvalidCiphertextError(f"block {idx}: {exc}") from exc
        payload_bits += block.bits[:n]
    while payload_bits and payload_bits[-1] == 0:
        payload_bits.pop()
    if not payload_bits:
        raise FramingError("terminal padding marker missing")
    payload_bits.pop()  # the 1 terminator
    if len(payload_bits) % 8:
        raise FramingError("recovered payload is not a whole number of bytes")
    return bits_to_bytes(payload_bits)
