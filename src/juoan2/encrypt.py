"""Randomized block encryption: padding, noise, and the anomalous-sum loop.

A block, its noise vector and its ciphertext are NamedTuples, like the keys
(see `keygen`), so tuple semantics apply: `Ciphertext(5) == (5,)`.
"""

from __future__ import annotations

from random import Random
from typing import Iterable, NamedTuple, Sequence

from .errors import ParameterError
from .keygen import PublicKey, draws_below

Bits = tuple[int, ...]


class BitBlock(NamedTuple):
    """Payload bits followed by padding; nonzero as a whole."""

    bits: Bits
    n_payload: int

    @property
    def n_total(self) -> int:
        return len(self.bits)


class NoiseVector(NamedTuple):
    bits: Bits


class Ciphertext(NamedTuple):
    S: int


def compute_L(bits: Sequence[int]) -> list[int]:
    """Running count of 1-bits at positions >= i (suffix popcount)."""
    out = [0] * len(bits)
    acc = 0
    for i in range(len(bits) - 1, -1, -1):
        acc += bits[i]
        out[i] = acc
    return out


def extend_block(payload: Sequence[int], rng: Random) -> BitBlock:
    """Append n/2 padding bits; the first padding bit is forced to 1.

    The forced bit keeps every extended block nonzero even when the payload
    is all zeros; the payload itself is untouched.
    """
    n = len(payload)
    if n < 2 or n % 2:
        raise ParameterError(f"payload length must be even and >= 2, got {n}")
    pad = [1, *draws_below(2, n // 2 - 1, rng)]
    return BitBlock(tuple(payload) + tuple(pad), n)


def sample_noise(n_total: int, rng: Random) -> NoiseVector:
    """n_total coin flips, the stream of as many rng.randint(0, 1) calls."""
    return NoiseVector(tuple(draws_below(2, n_total, rng)))


def anomalous_sum(pub: PublicKey, bits: Sequence[int], noise_positions: Iterable[int]) -> int:
    """Sum of L_i * C_i mod M over set bits and 1-based noise positions.

    Scanning i = n..1, a set bit first increments the multiplicity L; a noise
    position at a zero bit adds the current L.  Noise under a set bit is inert.
    """
    noise = set(noise_positions)
    C = pub.C  # one field read, not one per position
    s = 0
    level = 0
    for i in range(len(bits), 0, -1):
        if bits[i - 1]:
            level += 1
            s += level * C[i - 1]
        elif i in noise:
            s += level * C[i - 1]
    return s % pub.M


def encrypt_block(pub: PublicKey, block: BitBlock, noise: NoiseVector) -> Ciphertext:
    """The anomalous sum of the block with the noise vector's set positions."""
    n = pub.n_tilde
    if block.n_total != n or len(noise.bits) != n:
        raise ParameterError(
            f"block/noise length must be {n}, got {block.n_total}/{len(noise.bits)}"
        )
    if not any(block.bits):
        raise ParameterError("all-zero block cannot be encrypted")
    noise_positions = (i + 1 for i, r in enumerate(noise.bits) if r)
    return Ciphertext(anomalous_sum(pub, block.bits, noise_positions))


def bytes_to_bits(data: bytes) -> list[int]:
    return [(byte >> (7 - j)) & 1 for byte in data for j in range(8)]


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    if len(bits) % 8:
        raise ParameterError(f"bit count {len(bits)} is not a whole number of bytes")
    return bytes(
        sum(bits[i + j] << (7 - j) for j in range(8)) for i in range(0, len(bits), 8)
    )


def encrypt_message(pub: PublicKey, message: bytes, rng: Random) -> list[Ciphertext]:
    """Split into n-bit blocks with 10* terminal padding, encrypt each with fresh noise.

    A terminator bit is always appended, so a message that fills its blocks
    exactly gains one pure padding block.
    """
    n = pub.n_payload
    if pub.n_tilde == n:
        raise ParameterError(
            f"key has no padding positions (n_tilde = n = {n}); use encrypt_block"
        )
    bits = bytes_to_bits(message)
    bits.append(1)
    bits.extend([0] * (-len(bits) % n))
    out = []
    for i in range(0, len(bits), n):
        block = extend_block(bits[i : i + n], rng)
        out.append(encrypt_block(pub, block, sample_noise(block.n_total, rng)))
    return out
