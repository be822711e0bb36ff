"""Exception types shared across the library.

Every error raised by this package derives from NttError so callers can
catch the whole family at an API boundary (the CLI maps subclasses to
exit codes).
"""


class NttError(Exception):
    """Base class for all errors raised by this package."""


class ModulusTooSmall(NttError):
    """Modulus below 2; residue arithmetic is undefined."""


class NotInvertible(NttError):
    """Element has no multiplicative inverse for the given modulus.

    For spectral division the offending frequency bin is carried in
    ``bin_index`` (None for plain scalar inversion failures).
    """

    def __init__(self, message: str, bin_index: int | None = None):
        super().__init__(message)
        self.bin_index = bin_index


class ModuliNotCoprime(NttError):
    """A pair of combination moduli shares a factor."""


class IndexTooLarge(NttError):
    """Fermat/Rader number index outside the supported exact range."""


class VerificationFailed(NttError):
    """A claimed modulus property failed an executable check.

    ``clause`` names the failing check ("divisibility", "order", "length").
    """

    def __init__(self, message: str, clause: str):
        super().__init__(message)
        self.clause = clause


class InvalidLength(NttError):
    """Transform length does not divide the modulus's root-2 order."""


class LengthMismatch(NttError):
    """Sequence length disagrees with the plan or partner sequence."""


class ModulusMismatch(NttError):
    """Sequence modulus disagrees with the plan modulus."""


def number_text(n: int) -> str:
    """str(n), or n's bit length where str() would pass the digit cap."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit integer>"


class BoundExceeded(NttError):
    """Exact-recovery bound violated; result would only be correct mod m.

    ``need`` is the recovery bound the data requires and ``capacity`` the
    modulus, or product of moduli, that fell short (None when unknown),
    both exact; messages write them through number_text.
    """

    def __init__(self, message: str, need: int | None = None, capacity: int | None = None):
        super().__init__(message)
        self.need = need
        self.capacity = capacity


class HeadroomViolation(NttError):
    """Truncation word size too small for exact shift-based normalization."""


class InputOutOfRange(NttError):
    """Input value outside the range declared for the plan."""


class NormalizationWrap(NttError):
    """Unnormalized value not divisible by the transform length.

    Signals that an intermediate wrapped past the truncation width; the
    result would be silently wrong, so the operation aborts.
    """


class BadInput(NttError):
    """Argument violates a structural precondition (parity, emptiness, ...)."""
