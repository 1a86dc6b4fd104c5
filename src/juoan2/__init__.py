"""JUOAN2: a knapsack-style asymmetric cryptosystem built on anomalous subset sums.

Key generation hides an extra superincreasing sequence behind a modular
affine transform with a discarded lever injection; encryption randomizes
each block with a noise vector; decryption strips the units and, over a
bounded retry count, jumps straight from one residue under the sequence's
weighted sum to the next (a Euclid-style search on -W and M) until a
decomposition of the residue re-encrypts to the ciphertext under the
public key.

The :mod:`juoan2.cryptanalysis` subpackage is the other side of the desk:
density metrics, exact LLL reduction, subset-sum attack lattices, and
brute-force oracles for testing the scheme's claims at small scale.
"""

from .codec import (
    BitRangeWarning,
    decode_ciphertext,
    decode_key,
    encode_ciphertext,
    encode_key,
)
from .decrypt import (
    DecryptTrace,
    GreedyStep,
    audit_decrypt_block,
    audit_message,
    decrypt_block,
    decrypt_message,
    default_k_max,
)
from .encrypt import (
    BitBlock,
    Ciphertext,
    NoiseVector,
    compute_L,
    encrypt_block,
    encrypt_message,
    extend_block,
    sample_noise,
)
from .errors import (
    DecodeError,
    DegeneratePublicElementError,
    FramingError,
    InvalidCiphertextError,
    ParameterError,
    SequenceTooLargeError,
)
from .keygen import (
    PrivateKey,
    PublicKey,
    derive_public,
    gen_extra_superincreasing,
    keygen,
)

__version__ = "1.0.0"

__all__ = [
    "BitBlock",
    "BitRangeWarning",
    "Ciphertext",
    "DecodeError",
    "DecryptTrace",
    "DegeneratePublicElementError",
    "FramingError",
    "GreedyStep",
    "InvalidCiphertextError",
    "NoiseVector",
    "ParameterError",
    "PrivateKey",
    "PublicKey",
    "SequenceTooLargeError",
    "audit_decrypt_block",
    "audit_message",
    "compute_L",
    "decode_ciphertext",
    "decode_key",
    "decrypt_block",
    "decrypt_message",
    "default_k_max",
    "derive_public",
    "encode_ciphertext",
    "encode_key",
    "encrypt_block",
    "encrypt_message",
    "extend_block",
    "gen_extra_superincreasing",
    "keygen",
    "sample_noise",
]
