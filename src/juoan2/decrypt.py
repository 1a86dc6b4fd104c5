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
entering it, so no dead branch is entered or stacked.  It keeps the branch
taken at each position of the current path in one array, descends into
the first feasible child directly, and stacks only the siblings still to
try.  Nothing but (bits, noise positions) is built per candidate: a
DecryptTrace rebuilds its GreedySteps (`greedy_steps`) only when read.
"""

from __future__ import annotations

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


class DecryptTrace(NamedTuple):
    """Record of the verified decomposition accepted for a block.

    `residue` is t_k, the residue decomposed at retry count k, and `seq` the
    private sequence it was decomposed over; `seq` is left out of repr, so
    printing a trace shows no key material, but not out of comparison: a
    trace is compared and hashed as the tuple of all five fields.  The
    greedy steps are rebuilt from these on each read of `steps`.
    """

    k: int
    bits: tuple[int, ...]
    noise_positions: tuple[int, ...]
    residue: int
    seq: Sequence[int]

    def __repr__(self) -> str:
        return (
            f"DecryptTrace(k={self.k!r}, bits={self.bits!r}, "
            f"noise_positions={self.noise_positions!r}, residue={self.residue!r})"
        )

    @property
    def steps(self) -> tuple[GreedyStep, ...]:
        return greedy_steps(self.seq, self.residue, self.bits, self.noise_positions)


def decompose_candidates(
    seq: Sequence[int], target: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Enumerate every structurally valid decomposition of target over seq.

    Yields (bits, noise positions) in greedy-preference order: at each
    position a set bit, then a noise term, then a skip.  A child is entered
    only if it can still close: its residual is zero, or the positions below
    it can absorb the residual.  That test is Property 1 at level L, the
    count of ones already claimed: the positions below i absorb at most
    L*plain[i] + cap[i], read from `capacity`.  No steps are built;
    `greedy_steps` rebuilds them for one candidate.
    """
    if target < 0:
        raise ParameterError(f"target must be >= 0, got {target}")
    n = len(seq)
    plain, cap = capacity(seq)
    if target > cap[n]:
        return

    # Depth-first.  The walk stands at 0-based position i with residual s
    # and `level` ones above it; choice[j] is the branch taken at each
    # position j > i (0 skip, 1 one, 2 noise).  It enters the first feasible
    # child directly and stacks the others: an entry (i, s, level, code) is
    # branch `code` at i, leaving residual s and `level` ones below.
    table = list(zip(seq, cap, plain))
    choice = [0] * n
    stack: list[tuple[int, int, int, int]] = []
    pop, push = stack.pop, stack.append
    i, s, level = n - 1, target, 0
    while True:
        if s:
            x, room, p = table[i]
            if level:
                room += level * p
                r = s - level * x
                if r >= x and r - x <= room + p:
                    if s <= room:
                        push((i, s, level, 0))
                    if r <= room:
                        push((i, r, level, 2))
                    choice[i] = 1
                    i, s, level = i - 1, r - x, level + 1
                    continue
                if 0 <= r <= room:
                    if s <= room:
                        push((i, s, level, 0))
                    choice[i] = 2
                    i, s = i - 1, r
                    continue
            elif s >= x and s - x <= room + p:  # level 0 has no noise child
                if s <= room:
                    push((i, s, 0, 0))
                choice[i] = 1
                i, s, level = i - 1, s - x, 1
                continue
            if s <= room:
                choice[i] = 0
                i -= 1
                continue
        else:
            # Every position from i down is a skip.
            tail = choice[i + 1:]
            yield (0,) * (i + 1) + tuple(c & 1 for c in tail), tuple(
                j for j, c in enumerate(tail, i + 2) if c == 2
            )
        if not stack:
            return
        i, s, level, choice[i] = pop()  # i is bound before choice[i]
        i -= 1


def greedy_steps(
    seq: Sequence[int], target: int, bits: Sequence[int], noise_positions: Sequence[int]
) -> tuple[GreedyStep, ...]:
    """The greedy steps of one decomposition of target, from position n down.

    Replays (bits, noise positions), as `decompose_candidates` yields them,
    top-down: one step per position until the residual reaches zero, each
    with the residual it leaves.  O(n).
    """
    noise = set(noise_positions)
    steps = []
    s, level = target, 0
    for i in range(len(seq), 0, -1):
        if not s:
            break
        if bits[i - 1]:
            level += 1
            s -= level * seq[i - 1]
            branch = BRANCH_ONE
        elif i in noise:
            s -= level * seq[i - 1]
            branch = BRANCH_NOISE
        else:
            branch = BRANCH_SKIP
        steps.append(GreedyStep(i, branch, s))
    return tuple(steps)


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


def _scan(prv: PrivateKey, ct: Ciphertext, pub: PublicKey) -> Iterator[DecryptTrace]:
    """Yield the decompositions that re-encrypt to the ciphertext, k = 1..default_k_max in order."""
    if pub.M != prv.M or pub.n_tilde != prv.n_tilde:
        raise ParameterError("public key does not match the private key")
    for k, t in _shifted_targets(prv, ct, default_k_max(prv.n_tilde)):
        for bits, noise_positions in decompose_candidates(prv.A, t):
            if any(bits) and reencrypts_to(pub, bits, noise_positions, ct.S):
                yield DecryptTrace(k, bits, noise_positions, t, prv.A)


def _undecomposed(prv: PrivateKey, ct: Ciphertext) -> str:
    return f"no k <= {default_k_max(prv.n_tilde)} decomposes ciphertext {ct.S}"


def decrypt_block(
    prv: PrivateKey, ct: Ciphertext, pub: PublicKey
) -> tuple[BitBlock, DecryptTrace]:
    """First verified decomposition; raises InvalidCiphertextError if no k yields one."""
    for trace in _scan(prv, ct, pub):
        return BitBlock(trace.bits, prv.n_payload), trace
    raise InvalidCiphertextError(_undecomposed(prv, ct))


def audit_decrypt_block(prv: PrivateKey, ct: Ciphertext, pub: PublicKey) -> list[DecryptTrace]:
    """Enumerate every verified decomposition over all k (ambiguity measurement)."""
    return list(_scan(prv, ct, pub))


def _unframe(payload_bits: list[int]) -> bytes:
    """Strip the 10* terminator from the message's payload bits and pack them into bytes."""
    while payload_bits and payload_bits[-1] == 0:
        payload_bits.pop()
    if not payload_bits:
        raise FramingError("terminal padding marker missing")
    payload_bits.pop()  # the 1 terminator
    if len(payload_bits) % 8:
        raise FramingError("recovered payload is not a whole number of bytes")
    return bits_to_bytes(payload_bits)


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
    return _unframe(payload_bits)


def audit_message(
    prv: PrivateKey, ciphertexts: Sequence[Ciphertext], pub: PublicKey
) -> tuple[bytes, list[list[DecryptTrace]]]:
    """Decrypt like `decrypt_message`, and list every verified trace of each block.

    Each block is scanned once, by `audit_decrypt_block`; its first trace is
    the one `decrypt_block` returns, since both read the same `_scan`.  The
    message is unframed from those first traces, with `decrypt_message`'s
    checks and errors in the same order.
    """
    n = prv.n_payload
    check_ciphertext(ciphertexts, n, prv)
    traces = []
    for idx, ct in enumerate(ciphertexts):
        found = audit_decrypt_block(prv, ct, pub)
        if not found:
            raise InvalidCiphertextError(f"block {idx}: {_undecomposed(prv, ct)}")
        traces.append(found)
    return _unframe([bit for found in traces for bit in found[0].bits[:n]]), traces
