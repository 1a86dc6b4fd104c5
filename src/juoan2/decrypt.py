"""Decryption: unit stripping, the -W retry scan, and greedy decomposition.

The retry scan adds -W once per round and hands the shifted residue to a
greedy decomposition against the private sequence.  The plain greedy pass
(one subtraction choice per position) is what the scheme's algorithm states,
but at realistic sizes it frequently closes at zero with the wrong bits, and
wrong retry counts can close spuriously.  When the public key is supplied,
decryption therefore walks the full decomposition tree in greedy order and
accepts only candidates that re-encrypt to the original ciphertext; without
it, the literal first-closure behavior is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .encrypt import BitBlock, Ciphertext, anomalous_sum, bits_to_bytes
from .errors import FramingError, InvalidCiphertextError, ParameterError
from .keygen import ExtraSuperincreasingSeq, PrivateKey, PublicKey, weighted_sum

BRANCH_ONE = "one"
BRANCH_NOISE = "noise"
BRANCH_SKIP = "skip"


@dataclass(frozen=True)
class GreedyStep:
    i: int  # 1-based position
    branch: str
    residual: int


@dataclass(frozen=True)
class DecryptTrace:
    """Record of the decomposition pass accepted (or last attempted) for a block."""

    k: int
    steps: tuple[GreedyStep, ...]
    final_residual: int
    bits: tuple[int, ...]

    @property
    def success(self) -> bool:
        return self.final_residual == 0 and any(self.bits)


def greedy_decompose(
    seq: ExtraSuperincreasingSeq, target: int
) -> tuple[tuple[int, ...], tuple[GreedyStep, ...], int]:
    """Single descending pass; returns (bits, steps, final residual).

    At position i with multiplicity count L: a residual covering (L+1)*A_i
    claims a set bit; one covering L*A_i (L > 0) sheds a noise term; anything
    smaller is skipped.  Residual 0 ends the pass early.
    """
    if target < 0:
        raise ParameterError(f"target must be >= 0, got {target}")
    a = seq.A
    n = len(a)
    bits = [0] * n
    steps = []
    s = target
    level = 0
    for i in range(n - 1, -1, -1):
        if s == 0:
            break
        if s >= (level + 1) * a[i]:
            level += 1
            s -= level * a[i]
            bits[i] = 1
            branch = BRANCH_ONE
        elif level > 0 and s >= level * a[i]:
            s -= level * a[i]
            branch = BRANCH_NOISE
        else:
            branch = BRANCH_SKIP
        steps.append(GreedyStep(i + 1, branch, s))
    return tuple(bits), tuple(steps), s


def decompose_candidates(
    seq: ExtraSuperincreasingSeq, target: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[GreedyStep, ...]]]:
    """Enumerate every structurally valid decomposition of target.

    Yields (bits, noise positions, steps) in greedy-preference order (set bit,
    then noise, then skip), so the first candidate coincides with the plain
    greedy pass whenever that pass closes at zero.  Branches whose remaining
    positions cannot absorb the residual are pruned via prefix capacity sums.
    """
    if target < 0:
        raise ParameterError(f"target must be >= 0, got {target}")
    a = seq.A
    n = len(a)
    # plain[i] = sum of A_j for j <= i; cap[i] = sum of (i-j+1)*A_j for j <= i.
    # With L ones already claimed, positions 0..i can absorb at most
    # L*plain[i] + cap[i].
    plain = [0] * n
    cap = [0] * n
    acc = 0
    for i, x in enumerate(a):
        acc += x
        plain[i] = acc
        cap[i] = (cap[i - 1] if i else 0) + acc

    bits = [0] * n
    noise = [0] * n
    steps: list[GreedyStep] = []

    def walk(i: int, s: int, level: int):
        if s == 0:
            yield (
                tuple(bits),
                tuple(p + 1 for p in range(n) if noise[p]),
                tuple(steps),
            )
            return
        if i < 0 or s > level * plain[i] + cap[i]:
            return
        x = a[i]
        if s >= (level + 1) * x:
            bits[i] = 1
            steps.append(GreedyStep(i + 1, BRANCH_ONE, s - (level + 1) * x))
            yield from walk(i - 1, s - (level + 1) * x, level + 1)
            steps.pop()
            bits[i] = 0
        if level > 0 and s >= level * x:
            noise[i] = 1
            steps.append(GreedyStep(i + 1, BRANCH_NOISE, s - level * x))
            yield from walk(i - 1, s - level * x, level)
            steps.pop()
            noise[i] = 0
        steps.append(GreedyStep(i + 1, BRANCH_SKIP, s))
        yield from walk(i - 1, s, level)
        steps.pop()

    yield from walk(n - 1, target, 0)


def reencrypts_to(
    pub: PublicKey, bits: Sequence[int], noise_positions: Sequence[int], S: int
) -> bool:
    """Check that the candidate (bits, noise) pattern re-encrypts to S."""
    return anomalous_sum(pub, bits, noise_positions) == S


def default_k_max(n_tilde: int) -> int:
    """Analytic ceiling of the retry count: max of sum L_i * ell(i)."""
    return n_tilde * n_tilde * (n_tilde + 1)


def _shifted_targets(prv: PrivateKey, ct: Ciphertext, k_max: int) -> Iterator[tuple[int, int]]:
    """Yield (k, shifted residue) for residues small enough to be decomposable."""
    if not 0 <= ct.S < prv.M:
        raise ParameterError(f"ciphertext {ct.S} outside [0, {prv.M})")
    budget = weighted_sum(prv.A.A)  # no decomposable target can exceed this
    t = ct.S * prv.delta_inv % prv.M
    for k in range(1, k_max + 1):
        t = (t + prv.neg_w) % prv.M
        if t <= budget:
            yield k, t


def _scan(
    prv: PrivateKey, ct: Ciphertext, k_max: int, pub: PublicKey | None
) -> Iterator[DecryptTrace]:
    """Yield successful decompositions for k = 1..k_max in order.

    With a public key, every structurally valid decomposition is tried and
    only re-encryption matches survive; without one, a closing greedy pass
    with nonzero bits counts as success (the literal algorithm).
    """
    if pub is not None and (pub.M != prv.M or pub.n_tilde != prv.n_tilde):
        raise ParameterError("public key does not match the private key")
    for k, t in _shifted_targets(prv, ct, k_max):
        if pub is None:
            bits, steps, residual = greedy_decompose(prv.A, t)
            if residual == 0 and any(bits):
                yield DecryptTrace(k, steps, residual, bits)
        else:
            for bits, noise_positions, steps in decompose_candidates(prv.A, t):
                if any(bits) and reencrypts_to(pub, bits, noise_positions, ct.S):
                    yield DecryptTrace(k, steps, 0, bits)


def decrypt_block(
    prv: PrivateKey,
    ct: Ciphertext,
    pub: PublicKey | None = None,
    k_max: int | None = None,
) -> tuple[BitBlock, DecryptTrace]:
    """First-success scan; raises InvalidCiphertextError if no k terminates at zero."""
    if k_max is None:
        k_max = default_k_max(prv.n_tilde)
    for trace in _scan(prv, ct, k_max, pub):
        return BitBlock(trace.bits, prv.n_payload), trace
    raise InvalidCiphertextError(f"no k <= {k_max} decomposes ciphertext {ct.S}")


def audit_decrypt_block(
    prv: PrivateKey,
    ct: Ciphertext,
    pub: PublicKey | None = None,
    k_max: int | None = None,
) -> list[DecryptTrace]:
    """Enumerate every k whose scan succeeds (ambiguity measurement)."""
    if k_max is None:
        k_max = default_k_max(prv.n_tilde)
    return list(_scan(prv, ct, k_max, pub))


def decrypt_message(
    prv: PrivateKey,
    ciphertexts: Sequence[Ciphertext],
    pub: PublicKey | None = None,
    n_payload: int | None = None,
) -> bytes:
    """Decrypt blocks, drop per-block padding, strip the 10* terminator."""
    n = prv.n_payload if n_payload is None else n_payload
    if n != prv.n_payload:
        raise FramingError(
            f"ciphertext framing says n={n} but the key was built for n={prv.n_payload}"
        )
    if not ciphertexts:
        raise FramingError("empty ciphertext list")
    payload_bits: list[int] = []
    for idx, ct in enumerate(ciphertexts):
        try:
            block, _ = decrypt_block(prv, ct, pub)
        except InvalidCiphertextError as exc:
            raise InvalidCiphertextError(f"block {idx}: {exc}") from exc
        payload_bits.extend(block.bits[:n])
    while payload_bits and payload_bits[-1] == 0:
        payload_bits.pop()
    if not payload_bits:
        raise FramingError("terminal padding marker missing")
    payload_bits.pop()  # the 1 terminator
    if len(payload_bits) % 8:
        raise FramingError("recovered payload is not a whole number of bytes")
    return bits_to_bytes(payload_bits)
