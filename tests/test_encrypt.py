"""Encryption: multiplicity accumulation, padding, framing helpers."""

from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from juoan2 import (
    BitBlock,
    NoiseVector,
    ParameterError,
    compute_L,
    encrypt_block,
    encrypt_message,
    extend_block,
    keygen,
    sample_noise,
)
from juoan2.encrypt import bits_to_bytes, bytes_to_bits

from conftest import REF_BITS, REF_NOISE, REF_S


def test_compute_L_reference():
    assert compute_L(REF_BITS) == [4, 3, 3, 2, 2, 1, 1, 1]
    assert compute_L((0, 0, 0)) == [0, 0, 0]
    assert compute_L((1, 1, 1)) == [3, 2, 1]


def test_encrypt_block_reference_vector(ref_pub):
    ct = encrypt_block(ref_pub, BitBlock(REF_BITS, 8), NoiseVector(REF_NOISE))
    assert ct.S == REF_S


def test_noise_under_set_bits_is_inert(ref_pub):
    block = BitBlock(REF_BITS, 8)
    base = encrypt_block(ref_pub, block, NoiseVector((0,) * 8))
    # Raising noise only where bits are already set cannot change the sum.
    inert = NoiseVector(tuple(REF_BITS))
    assert encrypt_block(ref_pub, block, inert).S == base.S


def test_noise_after_last_set_bit_is_inert(ref_pub):
    # Zeros after the final set bit carry multiplicity 0, so noise there
    # contributes nothing.
    lead = BitBlock((1,) + (0,) * 7, 8)
    a = encrypt_block(ref_pub, lead, NoiseVector((0,) * 8))
    b = encrypt_block(ref_pub, lead, NoiseVector((0,) + (1,) * 7))
    assert a.S == b.S == ref_pub.C[0]
    late = encrypt_block(ref_pub, BitBlock((0,) * 7 + (1,), 8), NoiseVector((0,) * 8))
    assert late.S == ref_pub.C[7]


def test_encrypt_block_rejects_bad_shapes(ref_pub):
    with pytest.raises(ParameterError):
        encrypt_block(ref_pub, BitBlock((1, 0), 2), NoiseVector((0, 0)))
    with pytest.raises(ParameterError):
        encrypt_block(ref_pub, BitBlock((0,) * 8, 8), NoiseVector((0,) * 8))


def test_extend_block_shape_and_forced_bit():
    rng = Random(5)
    block = extend_block((0,) * 16, rng)
    assert block.n_total == 24
    assert block.n_payload == 16
    assert block.bits[:16] == (0,) * 16
    assert block.bits[16] == 1  # forced: the extended block is never all-zero
    with pytest.raises(ParameterError):
        extend_block((1, 0, 1), rng)


def test_sample_noise_length():
    assert len(sample_noise(24, Random(0)).bits) == 24


# Reference bodies: the padding and noise draws as stdlib coin flips.  The
# production draws read rng.getrandbits directly and must match them value
# for value and leave the same generator state.


def reference_extend_block(payload, rng):
    pad = [1] + [rng.randint(0, 1) for _ in range(len(payload) // 2 - 1)]
    return BitBlock(tuple(payload) + tuple(pad), len(payload))


def reference_noise(n_total, rng):
    return NoiseVector(tuple(rng.randint(0, 1) for _ in range(n_total)))


@given(st.integers(min_value=0, max_value=1 << 64), st.integers(min_value=1, max_value=300))
def test_padding_and_noise_are_the_randint_streams(seed, half):
    payload = [(seed >> i) & 1 for i in range(2 * half)]
    rng, ref = Random(seed), Random(seed)
    block = extend_block(payload, rng)
    assert block == reference_extend_block(payload, ref)
    assert sample_noise(block.n_total, rng) == reference_noise(block.n_total, ref)
    assert rng.getstate() == ref.getstate()


def test_bit_byte_round_trip():
    assert bytes_to_bits(b"\x80\x01") == [1] + [0] * 14 + [1]
    for seed in range(5):
        data = bytes(Random(seed).randrange(256) for _ in range(17))
        assert bits_to_bytes(bytes_to_bits(data)) == data
    with pytest.raises(ParameterError):
        bits_to_bytes([1, 0, 1])


def test_encrypt_message_block_count():
    pub, _ = keygen(16, Random(3))
    # 4 bytes = 32 bits + terminator -> 3 blocks of 16.
    assert len(encrypt_message(pub, b"\xde\xad\xbe\xef", Random(0))) == 3
    # exact fill (2 bytes = 16 bits) still gains a terminator block.
    assert len(encrypt_message(pub, b"\xde\xad", Random(0))) == 2
    assert len(encrypt_message(pub, b"", Random(0))) == 1
