"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a precondition."""


class SequenceTooLargeError(Exception):
    """The weighted sum of the sequence leaves no admissible modulus bit length.

    keygen's own sequences always fit; only a caller-supplied sequence raises this.
    """


class DegeneratePublicElementError(Exception):
    """A derived public element came out zero; resample W, delta, or the lever."""


class InvalidCiphertextError(Exception):
    """No retry count within the scan bound yields a valid decomposition."""


class DecodeError(ValueError):
    """A key or ciphertext file is malformed."""


class FramingError(ValueError):
    """Message-level framing (block list or terminal padding) is inconsistent."""
