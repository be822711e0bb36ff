"""Exact circular convolution, spectral filtering, and big-integer products.

The transform-based paths recover plain integers, not residues: a bound
check guarantees every true coefficient is identifiable inside the
residue range, so results equal the direct formula exactly.  When one
prime is too small, work is spread over several and recombined by the
Chinese Remainder Theorem.
"""

import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, log2, prod

import numpy as np

from . import modular
from .errors import (
    BadInput,
    BoundExceeded,
    LengthMismatch,
    ModuliNotCoprime,
    NotInvertible,
)
from .registry import RaderModulus, builtin_rader_primes
from .transform import (
    INT64_LIMIT,
    ResidueSequence,
    _mod,
    build_plan,
    forward_fast,
    int_array,
    inverse_fast,
)

_NP_EXACT_LIMIT = 2**62


@lru_cache(maxsize=32)
def _plan(length: int, modulus):
    return build_plan(length, modulus)


def _equal_length(f, g) -> tuple[np.ndarray, np.ndarray]:
    f, g = int_array(f), int_array(g)
    if len(f) != len(g):
        raise LengthMismatch(f"lengths differ: {len(f)} vs {len(g)}")
    return f, g


def _scan(arr: np.ndarray) -> tuple[int, bool]:
    """Magnitude bound of ``arr`` and whether any entry is negative."""
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    return max(hi, -lo), lo < 0


def recovery_bound(n: int, bf: int, bg: int, signed: bool) -> int:
    """The exactness rule: the modulus, or product of moduli, must exceed this.

    A length-n cyclic convolution of entries bounded by bf and bg in
    magnitude has coefficients of magnitude at most n*bf*bg.  They are
    recovered exactly from residues when N*Bf*Bg < m for nonnegative
    data, or 2*N*Bf*Bg < m for signed data lifted to (-m/2, m/2].
    """
    return (2 if signed else 1) * n * bf * bg


def _requirement(f: np.ndarray, g: np.ndarray) -> tuple[int, bool]:
    """(need, signed): the recovery bound of the data and whether it is signed.

    The one computation of the requirement: _convolve checks it against
    the capacity of its moduli, the CLI chooses and audits moduli by it.
    """
    (bf, f_negative), (bg, g_negative) = _scan(f), _scan(g)
    signed = f_negative or g_negative
    return recovery_bound(len(f), bf, bg, signed), signed


def convolve_direct(f, g) -> list[int]:
    """Cyclic convolution by direct summation: h(j) = sum_k f(k) g(j-k).

    Exact integers in, exact integers out; this is the reference the
    transform paths are measured against.  One linear convolution folded
    to cyclic, on int64 when the coefficient bound provably fits it,
    else on object arrays of Python ints (exact at any size).
    """
    f, g = _equal_length(f, g)
    n = len(f)
    if n == 0:
        return []
    (bf, _), (bg, _) = _scan(f), _scan(g)
    dtype = np.int64 if max(bf, bg, n * bf * bg) < _NP_EXACT_LIMIT else object
    lin = np.convolve(f.astype(dtype, copy=False), g.astype(dtype, copy=False))
    out = lin[:n].copy()
    out[: n - 1] += lin[n:]
    return out.tolist()


def _forward(values, plan) -> np.ndarray:
    return np.asarray(forward_fast(ResidueSequence.reduce(values, plan.modulus), plan))


def _crt_product(moduli: list[int]) -> int:
    """Product of the moduli, after checking they are pairwise coprime."""
    product = prod(moduli)
    for mi in moduli:
        shared = gcd(mi, product // mi)
        if shared != 1:
            raise ModuliNotCoprime(f"modulus {mi} shares factor {shared} with another modulus")
    return product


def _garner(residues: list[np.ndarray], moduli: list[int]) -> np.ndarray:
    """The unique x in [0, prod(moduli)) with x == residues[i] mod moduli[i].

    Garner's mixed-radix digits a_i < m_i, then x = a_0 + m_0*(a_1 + m_1*(...)).
    The digits are int64, their arithmetic below m_i * max(m_j) < 2**62;
    x is int64 when the product of the moduli is below 2**63, Python
    ints (object dtype) otherwise.
    """
    dtype = np.int64 if prod(moduli) < INT64_LIMIT else object
    digits = []
    for t, mi in zip(residues, moduli):
        for a, mj in zip(digits, moduli):
            t = _mod(_mod(t - a, mi) * modular.mod_inverse(mj, mi), mi)
        digits.append(t)
    x = digits[-1].astype(dtype, copy=False)
    for a, mj in zip(digits[-2::-1], moduli[-2::-1]):
        x = x * mj + a
    return x


def _convolve(f, g, moduli) -> list[int]:
    """The one pipeline behind convolve_ntt and convolve_crt.

    Length check and the data's recovery requirement (_requirement)
    against the product of the moduli; then per prime reduce -> forward
    -> pointwise product -> inverse; then the CRT combine (for one prime
    the residues themselves) and a symmetric lift when an input is
    negative.  Data stays in int64 arrays throughout, or object arrays
    of Python ints where a value does not fit int64.
    """
    if not moduli:
        raise BadInput("convolve_crt needs at least one modulus")
    f, g = _equal_length(f, g)
    n = len(f)
    plans = [_plan(n, mod) for mod in moduli]
    primes = [plan.modulus for plan in plans]
    product = _crt_product(primes)
    need, signed = _requirement(f, g)
    if need >= product:
        raise BoundExceeded(
            f"recovery bound {need} >= capacity {product} of moduli "
            f"{primes}; add moduli or lower the data bound",
            need=need,
            capacity=product,
        )
    per_prime = []
    for plan in plans:
        m = plan.modulus
        spectrum = _mod(_forward(f, plan) * _forward(g, plan), m)
        per_prime.append(np.asarray(inverse_fast(ResidueSequence._wrap(spectrum, m), plan)))
    values = _garner(per_prime, primes)
    if signed:  # representatives in (-product/2, product/2]
        values = np.where(values > product // 2, values - product, values)
    return values.tolist()


def convolve_ntt(f, g, modulus) -> list[int]:
    """Exact cyclic convolution through a single-prime transform.

    The one-prime case of convolve_crt: equals convolve_direct (as plain
    integers, not merely mod m) when m exceeds recovery_bound, i.e.
    N*Bf*Bg < m for nonnegative input and 2*N*Bf*Bg < m when either
    input has negative entries (the result is then lifted
    symmetrically).  Raises BoundExceeded otherwise.
    """
    return _convolve(f, g, [modulus])


def convolve_crt(f, g, moduli) -> list[int]:
    """Exact cyclic convolution reconstructed from several prime moduli.

    The rule of convolve_ntt with the product of the moduli in place of
    m: prod(m_i) > N*Bf*Bg for nonnegative input, > 2*N*Bf*Bg when
    either input has negative entries.  Each output coefficient is
    combined from its per-prime residues, then lifted to
    (-prod/2, prod/2] when an input is negative.
    """
    return _convolve(f, g, list(moduli))


def deconvolve(h, g, modulus) -> list[int]:
    """Spectral division: recover f (mod m) with f * g == h (mod m).

    Every spectral bin of g must be invertible; the first zero bin
    raises NotInvertible carrying its index (the filter has a null at
    that digital frequency, so division is impossible there).
    Output is the canonical residue sequence of f.
    """
    h, g = _equal_length(h, g)
    plan = _plan(len(h), modulus)
    m = plan.modulus
    H, G = _forward(h, plan), _forward(g, plan)
    zeros = np.flatnonzero(G == 0)
    if zeros.size:
        u = int(zeros[0])
        raise NotInvertible(
            f"filter spectrum vanishes at bin {u}; cannot deconvolve",
            bin_index=u,
        )
    out = inverse_fast(ResidueSequence._wrap(_mod(H * _inverse_mod(G, m), m), m), plan)
    return np.asarray(out).tolist()


def _inverse_mod(x: np.ndarray, m: int) -> np.ndarray:
    """Elementwise x**(m-2) mod prime m < 2**31 by square-and-multiply.

    The inverse of every nonzero residue (Fermat); products of two
    residues stay below 2**62.
    """
    result = np.ones_like(x)
    base = x.copy()
    e = m - 2
    while e:
        if e & 1:
            result = _mod(result * base, m)
        base = _mod(base * base, m)
        e >>= 1
    return result


# -- big-integer multiplication ----------------------------------------

DEFAULT_BASE = 256

# In base 256 a digit vector is the integer's little-endian byte string,
# so splitting, joining and carrying go through int.to_bytes and
# int.from_bytes; other bases use the divide-and-conquer code and the
# carry loop below.
_BYTE_BASE = 256

# CPython caps int<->str conversion at sys.get_int_max_str_digits()
# digits (0: no cap).  Decimal I/O converts longer operands in pieces
# under the cap rather than raising it for the whole process.


def _str_digit_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _parse_digits(text: str, limit: int) -> int:
    """int(text) for a string of decimal digits, in pieces of at most ``limit``."""
    if not limit or len(text) <= limit:
        return int(text)
    k = len(text) // 2
    return _parse_digits(text[:-k], limit) * 10**k + _parse_digits(text[-k:], limit)


def _format_digits(value: int, limit: int) -> str:
    """str(value) for value >= 0, in pieces of at most ``limit`` digits."""
    # never below the true digit count, and at most one above it
    digits = int(value.bit_length() * 0.30103) + 1
    if not limit or digits <= limit:
        return str(value)
    k = digits // 2
    high, low = divmod(value, 10**k)
    return _format_digits(high, limit) + _format_digits(low, limit).zfill(k)


# Digit vectors up to this many digits convert one digit at a time; longer
# ones split in halves on base**k, so the big-int divmod and multiply work
# on balanced operands (subquadratic, like _format_digits).
_SPLIT_DIGITS = 64


def _int_to_digits(value: int, base: int, width: int) -> list[int]:
    """Little-endian digits of value >= 0, zero-padded to at least ``width``."""
    count = int(value.bit_length() / log2(base)) + 1
    if count <= _SPLIT_DIGITS:
        digits = []
        while value:
            value, d = divmod(value, base)
            digits.append(d)
        return digits + [0] * (width - len(digits))
    k = count // 2
    high, low = divmod(value, base**k)
    return _int_to_digits(low, base, k) + _int_to_digits(high, base, width - k)


def _digits_to_int(digits, base: int) -> int:
    """Value of the little-endian digit sequence ``digits``."""
    if len(digits) <= _SPLIT_DIGITS:
        value = 0
        for d in reversed(digits):
            value = value * base + d
        return value
    k = len(digits) // 2
    return _digits_to_int(digits[:k], base) + _digits_to_int(digits[k:], base) * base**k


def _int_to_bytes(value: int) -> bytes:
    """Base-256 digits of value >= 0: its little-endian bytes, at least one."""
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "little")


@dataclass(frozen=True)
class BigDigits:
    """Arbitrary-precision integer as little-endian digits in [0, base).

    Canonical form: no trailing zero digits except the single-digit
    zero, which is nonnegative.
    """

    digits: tuple[int, ...]
    base: int = DEFAULT_BASE
    negative: bool = False

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))
        if self.base < 2:
            raise BadInput(f"digit base must be >= 2, got {self.base}")
        if not self.digits:
            raise BadInput("digit vector must not be empty (zero is (0,))")
        if min(self.digits) < 0 or max(self.digits) >= self.base:
            raise BadInput(f"digits must lie in [0, {self.base})")
        if len(self.digits) > 1 and self.digits[-1] == 0:
            raise BadInput("non-canonical digit vector: trailing zero digit")
        if self.is_zero() and self.negative:
            raise BadInput("zero must be nonnegative")

    def is_zero(self) -> bool:
        return self.digits == (0,)

    @classmethod
    def from_int(cls, value: int, base: int = DEFAULT_BASE) -> "BigDigits":
        if base < 2:
            raise BadInput(f"digit base must be >= 2, got {base}")
        value = operator.index(value)
        if base == _BYTE_BASE:
            digits = _int_to_bytes(abs(value))
        else:
            digits = _int_to_digits(abs(value), base, 1)
        return cls(tuple(digits), base, value < 0)

    def to_int(self) -> int:
        if self.base == _BYTE_BASE:
            value = int.from_bytes(bytes(self.digits), "little")
        else:
            value = _digits_to_int(self.digits, self.base)
        return -value if self.negative else value

    @classmethod
    def from_decimal(cls, text: str, base: int = DEFAULT_BASE) -> "BigDigits":
        text = text.strip()
        sign = 1
        if text.startswith(("+", "-")):
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
        if not (text.isascii() and text.isdigit()):
            raise BadInput(f"not a decimal integer: {text!r}")
        return cls.from_int(sign * _parse_digits(text, _str_digit_limit()), base)

    def to_decimal(self) -> str:
        text = _format_digits(abs(self.to_int()), _str_digit_limit())
        return "-" + text if self.negative else text


def _carry_bytes(raw) -> bytes:
    """_carry_propagate(raw, 256) for nonnegative coefficients below 2**63.

    The carried value is sum(raw[i] * 256**i).  Split each coefficient
    into its bytes: lane j holds byte j of every coefficient, and read as
    one little-endian integer it is sum(byte_j(raw[i]) * 256**i), so the
    value is the sum of the lanes shifted by 8*j bits; CPython does the
    carrying inside the additions.
    """
    raw = np.asarray(raw, dtype=np.int64)
    value = 0
    top = int(raw.max())
    for j in range((top.bit_length() + 7) // 8):
        lane = ((raw >> 8 * j) & 255).astype(np.uint8)
        value += int.from_bytes(lane.tobytes(), "little") << 8 * j
    return _int_to_bytes(value)


def _carry_propagate(raw, base: int) -> tuple[int, ...]:
    digits = []
    carry = 0
    for coeff in raw:
        carry, d = divmod(coeff + carry, base)
        digits.append(d)
    while carry:
        carry, d = divmod(carry, base)
        digits.append(d)
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
    return tuple(digits)


def schoolbook_multiply(a: BigDigits, b: BigDigits) -> BigDigits:
    """Positional digit-product multiplication: the independent oracle.

    Every digit pair is multiplied and accumulated at its position
    (O(n^2) work), then carries are resolved; no transform is involved.
    """
    if a.base != b.base:
        raise BadInput("operands must share a digit base")
    if a.is_zero() or b.is_zero():
        return BigDigits((0,), a.base)
    bound = min(len(a.digits), len(b.digits)) * (a.base - 1) ** 2
    # Python ints (object arrays) once the sums could leave int64
    dtype = np.int64 if bound < _NP_EXACT_LIMIT else object
    raw = np.convolve(
        np.array(a.digits, dtype=dtype), np.array(b.digits, dtype=dtype)
    ).tolist()
    return BigDigits(
        _carry_propagate(raw, a.base), a.base, a.negative != b.negative
    )


def select_moduli(length: int, bound: int, registry=None) -> list[RaderModulus]:
    """Registry primes admitting ``length`` whose product exceeds ``bound``.

    Prefers the single smallest adequate prime; otherwise accumulates
    primes smallest-first.  Raises BoundExceeded when the whole registry
    is not enough.  ``registry`` None means the built-in table; an empty
    registry admits nothing.
    """
    if registry is None:
        registry = builtin_rader_primes()
    candidates = sorted(
        (entry for entry in registry if entry.admits_length(length)),
        key=lambda entry: entry.prime,
    )
    for entry in candidates:
        if entry.prime > bound:
            return [entry]
    chosen: list[RaderModulus] = []
    product = 1
    for entry in candidates:
        chosen.append(entry)
        product *= entry.prime
        if product > bound:
            return chosen
    raise BoundExceeded(
        f"registry primes admitting length {length} reach only {product} "
        f"<= required {bound}; use a smaller digit base or supply more moduli",
        need=bound,
        capacity=product,
    )


def bigint_multiply(a: BigDigits, b: BigDigits, moduli=None, registry=None) -> BigDigits:
    """Exact product via transform convolution of the digit vectors.

    Digits are zero-padded to a power of two at least len(a)+len(b) so
    the cyclic convolution equals the linear one, convolved over enough
    primes to recover every coefficient, then carried back to canonical
    digits.
    """
    if a.base != b.base:
        raise BadInput("operands must share a digit base")
    if a.is_zero() or b.is_zero():
        return BigDigits((0,), a.base)
    n = modular.next_power_of_two(len(a.digits) + len(b.digits))
    if moduli is None:
        need = recovery_bound(n, a.base - 1, a.base - 1, signed=False)
        moduli = select_moduli(n, need, registry)
    dtype = np.int64 if a.base <= INT64_LIMIT else object  # digits < base
    fa, fb = np.zeros(n, dtype=dtype), np.zeros(n, dtype=dtype)
    fa[: len(a.digits)] = a.digits
    fb[: len(b.digits)] = b.digits
    raw = convolve_crt(fa, fb, moduli)
    if a.base == _BYTE_BASE:  # coefficients are below n * 255**2 < 2**63
        digits = tuple(_carry_bytes(raw))
    else:
        digits = _carry_propagate(raw, a.base)
    return BigDigits(digits, a.base, a.negative != b.negative)
