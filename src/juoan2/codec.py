"""Bit-exact serialization of keys, ciphertexts, and framed messages."""

from __future__ import annotations

import struct
import warnings
from math import gcd
from typing import Sequence

from .encrypt import Ciphertext
from .errors import DecodeError, FramingError, InvalidCiphertextError, ParameterError
from .keygen import (
    PrivateKey,
    PublicKey,
    ceil_lg,
    first_violation,
    max_modulus_bits,
    min_modulus_bits,
    weighted_sum,
)

_PUBLIC_MAGIC = "JUOAN2 PUBLIC KEY v1"
_PRIVATE_MAGIC = "JUOAN2 PRIVATE KEY v1"
_CT_MAGIC = b"J2CT"
_CT_VERSION = 1
# Each block's magnitude is framed with a 2-byte length.
_MAX_BLOCK_BYTES = 0xFFFF


class BitRangeWarning(UserWarning):
    """The modulus bit length falls below the admissible window's floor, ceil(1.585 n)."""


def _hex(x: int) -> str:
    return format(x, "x")


def _parse_hex(text: str, what: str) -> int:
    try:
        value = int(text, 16)
    except ValueError:
        raise DecodeError(f"bad hex value for {what}: {text!r}") from None
    if value < 0:
        raise DecodeError(f"{what} must be nonnegative")
    return value


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DecodeError(f"bad integer for {what}: {text!r}") from None


def encode_key(key: PublicKey | PrivateKey) -> str:
    """Canonical ASCII form: header, n, np, M, then the key-specific fields."""
    if isinstance(key, PublicKey):
        lines = [
            _PUBLIC_MAGIC,
            f"n={key.n_tilde}",
            f"np={key.n_payload}",
            f"M={_hex(key.M)}",
            "C=" + ",".join(_hex(c) for c in key.C),
        ]
    elif isinstance(key, PrivateKey):
        lines = [
            _PRIVATE_MAGIC,
            f"n={key.n_tilde}",
            f"np={key.n_payload}",
            f"M={_hex(key.M)}",
            "A=" + ",".join(_hex(a) for a in key.A),
            f"NW={_hex(key.neg_w)}",
            f"DI={_hex(key.delta_inv)}",
        ]
    else:
        raise TypeError(f"not a key: {type(key).__name__}")
    return "\n".join(lines) + "\n"


def _check_bit_range(M: int, n_tilde: int) -> None:
    """Reject ceil(lg M) above the window or a block's frame; warn below the window's floor."""
    bits = ceil_lg(M)  # the bit length of M - 1, the largest residue
    ceiling = max_modulus_bits(n_tilde)
    if bits > ceiling:
        raise DecodeError(
            f"modulus with ceil(lg M) = {bits} is above the ceiling {ceiling} for n={n_tilde}"
        )
    if bits > 8 * _MAX_BLOCK_BYTES:
        raise DecodeError(
            f"modulus with ceil(lg M) = {bits} has residues longer than a ciphertext"
            f" block's {_MAX_BLOCK_BYTES}-byte frame"
        )
    floor = min_modulus_bits(n_tilde)
    if bits < floor:
        warnings.warn(
            f"modulus with ceil(lg M) = {bits} is below the window's"
            f" floor {floor} for n={n_tilde}",
            BitRangeWarning,
            stacklevel=3,
        )


def decode_key(text: str) -> PublicKey | PrivateKey:
    """Inverse of encode_key, with invariant validation.

    A modulus above the admissible window (ceil(lg M) > 2n, where keygen
    draws every modulus) is rejected, which bounds the work any later step
    spends on one key, and so is one whose residues overrun a ciphertext
    block's 65 535-byte frame.  A modulus below the window's floor only
    warns, so hand-built desk-scale keys still load.
    """
    lines = text.splitlines()
    if not lines:
        raise DecodeError("empty key file")
    magic = lines[0]
    if magic not in (_PUBLIC_MAGIC, _PRIVATE_MAGIC):
        raise DecodeError("unrecognized header")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition("=")
        if not sep or name in fields:
            raise DecodeError(f"malformed line: {line!r}")
        fields[name] = value

    want = {"n", "np", "M", "C"} if magic == _PUBLIC_MAGIC else {"n", "np", "M", "A", "NW", "DI"}
    if set(fields) != want:
        raise DecodeError(f"expected fields {sorted(want)}, got {sorted(fields)}")

    n_tilde = _parse_int(fields["n"], "n")
    n_payload = _parse_int(fields["np"], "np")
    # keygen pads np payload bits with np/2 padding bits; the worked reference
    # key carries no padding (n = np) and is used block by block.
    if n_payload < 4 or n_payload % 2 or n_tilde not in (3 * n_payload // 2, n_payload):
        raise DecodeError(
            f"np={n_payload} does not fit n={n_tilde}: np must be even and >= 4,"
            " and n must be 3*np/2 (or np)"
        )
    M = _parse_hex(fields["M"], "M")
    if M < 3:
        raise DecodeError(f"modulus too small: {M}")
    _check_bit_range(M, n_tilde)

    if magic == _PUBLIC_MAGIC:
        C = tuple(_parse_hex(x, "C") for x in fields["C"].split(","))
        if len(C) != n_tilde:
            raise DecodeError(f"expected {n_tilde} public elements, got {len(C)}")
        for i, c in enumerate(C):
            if not 1 <= c <= M - 1:
                raise DecodeError(f"public element {i + 1} out of range [1, M-1]: {c}")
        return PublicKey(C, M, n_payload)

    A = tuple(_parse_hex(x, "A") for x in fields["A"].split(","))
    if len(A) != n_tilde:
        raise DecodeError(f"expected {n_tilde} sequence elements, got {len(A)}")
    bad = first_violation(A)
    if bad:
        raise DecodeError(f"sequence is not extra superincreasing (first violation at index {bad})")
    if M <= weighted_sum(A):
        raise DecodeError("modulus does not exceed the weighted sequence sum")
    neg_w = _parse_hex(fields["NW"], "NW")
    delta_inv = _parse_hex(fields["DI"], "DI")
    for what, v in (("NW", neg_w), ("DI", delta_inv)):
        if not 1 <= v <= M - 1:
            raise DecodeError(f"{what} out of range [1, M-1]: {v}")
    # keygen draws delta coprime to M; W has no such test, so NW may share a factor.
    if gcd(delta_inv, M) != 1:
        raise DecodeError(f"DI shares a factor with M, so it is no delta^-1: {delta_inv}")
    return PrivateKey(A, neg_w, delta_inv, M, n_payload)


def encode_ciphertext(blocks: Sequence[Ciphertext], n_payload: int) -> bytes:
    """Binary framing: magic, version, n_payload, block count, length-prefixed magnitudes."""
    out = [_CT_MAGIC, struct.pack(">BII", _CT_VERSION, n_payload, len(blocks))]
    for idx, block in enumerate(blocks):
        mag = block.S.to_bytes((block.S.bit_length() + 7) // 8, "big") if block.S else b""
        if len(mag) > _MAX_BLOCK_BYTES:
            raise ParameterError(
                f"block {idx}: ciphertext is {len(mag)} bytes, above the frame's"
                f" {_MAX_BLOCK_BYTES}-byte limit"
            )
        out.append(struct.pack(">H", len(mag)))
        out.append(mag)
    return b"".join(out)


def decode_ciphertext(data: bytes) -> tuple[list[Ciphertext], int]:
    """Inverse of encode_ciphertext; returns (blocks, n_payload)."""
    if data[:4] != _CT_MAGIC:
        raise DecodeError("bad ciphertext magic")
    if len(data) < 13:
        raise DecodeError("truncated ciphertext header")
    version, n_payload, count = struct.unpack(">BII", data[4:13])
    if version != _CT_VERSION:
        raise DecodeError(f"unsupported ciphertext version {version}")
    pos = 13
    blocks = []
    for _ in range(count):
        if pos + 2 > len(data):
            raise DecodeError("truncated block length")
        (length,) = struct.unpack(">H", data[pos : pos + 2])
        pos += 2
        if pos + length > len(data):
            raise DecodeError("block length overruns the file")
        mag = data[pos : pos + length]
        if length and mag[0] == 0:
            raise DecodeError("non-canonical leading zero byte in block")
        blocks.append(Ciphertext(int.from_bytes(mag, "big")))
        pos += length
    if pos != len(data):
        raise DecodeError(f"{len(data) - pos} trailing bytes after last block")
    return blocks, n_payload


def check_ciphertext(
    blocks: Sequence[Ciphertext], n_payload: int, key: PublicKey | PrivateKey
) -> None:
    """Check that decoded ciphertext fits `key`, before any block is worked on.

    Raises FramingError unless the framing width is the key's and there is a
    block, and InvalidCiphertextError naming the first block outside [0, M).
    """
    if n_payload != key.n_payload:
        raise FramingError(
            f"ciphertext framing says n={n_payload} but the key was built for n={key.n_payload}"
        )
    if not blocks:
        raise FramingError("empty ciphertext list")
    for idx, block in enumerate(blocks):
        if not 0 <= block.S < key.M:
            raise InvalidCiphertextError(f"block {idx}: ciphertext {block.S} outside [0, {key.M})")
