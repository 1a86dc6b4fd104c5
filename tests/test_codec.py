"""Key and ciphertext serialization: round trips, validation, tamper rejection."""

import re
import tracemalloc
import warnings
from random import Random

import pytest

from juoan2 import (
    BitRangeWarning,
    Ciphertext,
    DecodeError,
    ParameterError,
    PublicKey,
    decode_ciphertext,
    decode_key,
    encode_ciphertext,
    encode_key,
    keygen,
)

from conftest import REFUSED_PRIVATE_KEYS


@pytest.fixture(scope="module")
def pair():
    return keygen(8, Random(11))


def test_public_key_round_trip(pair):
    pub, _ = pair
    text = encode_key(pub)
    assert text.startswith("JUOAN2 PUBLIC KEY v1\n")
    assert text.endswith("\n")
    assert decode_key(text) == pub


def test_private_key_round_trip(pair):
    _, prv = pair
    text = encode_key(prv)
    assert text.startswith("JUOAN2 PRIVATE KEY v1\n")
    assert decode_key(text) == prv


def test_reference_key_round_trip(ref_pub, ref_prv):
    # The reference modulus sits below the window's bit floor, so
    # loading warns (see test_small_modulus_warns_but_loads) but round-trips.
    with pytest.warns(BitRangeWarning):
        assert decode_key(encode_key(ref_pub)) == ref_pub
    with pytest.warns(BitRangeWarning):
        assert decode_key(encode_key(ref_prv)) == ref_prv


def test_encoding_is_deterministic(pair):
    pub, prv = pair
    assert encode_key(pub) == encode_key(pub)
    assert encode_key(prv) == encode_key(prv)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: "BOGUS HEADER\n" + t.partition("\n")[2],
        lambda t: t.replace("n=", "q=", 1),
        lambda t: t + "extra=1\n",
        lambda t: t.replace("M=", "M=zz", 1),
        lambda t: "",
        lambda t: t.replace("n=", "n=x", 1),
        lambda t: t.replace("np=", "np=x", 1),
        lambda t: re.sub("C=[0-9a-f]+", "C=0", t),
        lambda t: re.sub("C=[0-9a-f]+", "C=" + re.search("M=([0-9a-f]+)", t)[1], t),
    ],
)
def test_decode_rejects_tampered_keys(pair, mutate):
    text = encode_key(pair[0])
    with pytest.raises(DecodeError):
        decode_key(mutate(text))


def test_encode_key_refuses_a_non_key():
    with pytest.raises(TypeError, match="^not a key: Ciphertext$"):
        encode_key(Ciphertext(5))


def test_decode_rejects_broken_sequence(pair):
    _, prv = pair
    # Swap two sequence elements: no longer extra superincreasing.
    a = list(prv.A)
    a[0], a[-1] = a[-1], a[0]
    text = encode_key(prv).replace(
        "A=" + ",".join(format(x, "x") for x in prv.A),
        "A=" + ",".join(format(x, "x") for x in a),
    )
    with pytest.raises(DecodeError, match="extra superincreasing"):
        decode_key(text)


def test_decode_refuses_a_hostile_sequence_at_once():
    # Every element below M and M within the bit window, but A_2 = 1 breaks
    # the rule.  A check that built the whole prefix table first would hold
    # 2*n integers of about lg M bits each (about 19 MB here) before refusing.
    n = 6000
    M = (1 << (2 * n - 1)) + 1
    text = "\n".join([
        "JUOAN2 PRIVATE KEY v1",
        f"n={n}",
        f"np={2 * n // 3}",
        f"M={M:x}",
        "A=" + ",".join([format(M - 1, "x")] + ["1"] * (n - 1)),
        "NW=1",
        "DI=1",
    ])
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError, match="first violation at index 2"):
            decode_key(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("key, message", REFUSED_PRIVATE_KEYS.values(), ids=REFUSED_PRIVATE_KEYS)
def test_decode_refuses_hand_built_private_keys(key, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # each is refused before or without a BitRangeWarning
        with pytest.raises(DecodeError, match=message):
            decode_key(encode_key(key))


def test_decode_rejects_out_of_range_element(pair):
    pub, _ = pair
    text = encode_key(pub).replace("C=", "C=0,", 1)
    with pytest.raises(DecodeError):
        decode_key(text)


def test_small_modulus_warns_but_loads(ref_pub):
    # The reference modulus (12 bits) sits below the 13-bit window floor
    # for n=8; loading succeeds with a warning.
    with pytest.warns(BitRangeWarning):
        key = decode_key(encode_key(ref_pub))
    assert key == ref_pub


def test_modulus_above_the_window_is_rejected():
    # n = 6: keygen draws ceil(lg M) = 12, the top of the window
    top = PublicKey((1, 2, 3, 4, 5, 6), 1 << 12, 4)
    assert decode_key(encode_key(top)) == top
    with pytest.raises(DecodeError, match="above the ceiling 12"):
        decode_key(encode_key(PublicKey(top.C, top.M + 1, 4)))


def test_modulus_longer_than_a_block_frame_is_rejected():
    # n = 262200 allows ceil(lg M) up to 524400 bits, but a block's 2-byte
    # length frames at most 65535 bytes (524280 bits); refused before C is read.
    header = f"JUOAN2 PUBLIC KEY v1\nn=262200\nnp=174800\nM={(1 << 524_400) - 1:x}\nC=1\n"
    with pytest.raises(DecodeError, match="65535-byte frame"):
        decode_key(header)


def test_encoding_refuses_a_block_longer_than_its_frame():
    with pytest.raises(ParameterError, match="block 1: ciphertext is 65536 bytes"):
        encode_ciphertext([Ciphertext(7), Ciphertext(1 << 524_280)], 4)


def test_generated_keys_load_silently(pair):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decode_key(encode_key(pair[0]))
        decode_key(encode_key(pair[1]))


def test_ciphertext_round_trip():
    blocks = [Ciphertext(0), Ciphertext(1), Ciphertext(3204), Ciphertext(1 << 200)]
    data = encode_ciphertext(blocks, 16)
    assert data[:4] == b"J2CT"
    decoded, n_payload = decode_ciphertext(data)
    assert decoded == blocks
    assert n_payload == 16


def test_ciphertext_rejects_trailing_data():
    data = encode_ciphertext([Ciphertext(7)], 8) + b"\x00"
    with pytest.raises(DecodeError):
        decode_ciphertext(data)


def test_ciphertext_rejects_noncanonical_magnitude():
    import struct

    # 7 encoded with a gratuitous leading zero byte.
    data = b"J2CT" + struct.pack(">BII", 1, 8, 1) + struct.pack(">H", 2) + b"\x00\x07"
    with pytest.raises(DecodeError):
        decode_ciphertext(data)


def test_ciphertext_rejects_bad_magic_and_truncation():
    with pytest.raises(DecodeError):
        decode_ciphertext(b"\x00bad")
    with pytest.raises(DecodeError):
        decode_ciphertext(encode_ciphertext([Ciphertext(7)], 8)[:-1])
