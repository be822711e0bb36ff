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
from math import gcd, prod

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


@dataclass(frozen=True)
class BigDigits:
    """Arbitrary-precision integer, held as its Python int.

    Every int is canonical, so the one check is that ``value`` is an
    integer.  ``digits`` are the magnitude's little-endian bytes, lowest
    first: the digit vector bigint_multiply convolves.
    """

    value: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "value", operator.index(self.value))
        except TypeError:
            raise BadInput(f"not an integer: {self.value!r}") from None

    def __repr__(self) -> str:
        # hex, because repr(int) raises above sys.get_int_max_str_digits()
        return f"BigDigits({self.value:#x})"

    @property
    def digits(self) -> bytes:
        magnitude = abs(self.value)
        return magnitude.to_bytes(max(1, (magnitude.bit_length() + 7) // 8), "little")

    @property
    def negative(self) -> bool:
        return self.value < 0

    def is_zero(self) -> bool:
        return self.value == 0

    @classmethod
    def from_int(cls, value: int) -> "BigDigits":
        return cls(value)

    def to_int(self) -> int:
        return self.value

    @classmethod
    def from_decimal(cls, text: str) -> "BigDigits":
        text = text.strip()
        sign = -1 if text.startswith("-") else 1
        if text.startswith(("+", "-")):
            text = text[1:]
        if not (text.isascii() and text.isdigit()):
            raise BadInput(f"not a decimal integer: {text!r}")
        return cls.from_int(sign * _parse_digits(text, _str_digit_limit()))

    def to_decimal(self) -> str:
        text = _format_digits(abs(self.value), _str_digit_limit())
        return "-" + text if self.negative else text


def _carry_bytes(raw: np.ndarray) -> int:
    """sum(raw[i] * 256**i) for nonnegative int64 coefficients.

    The value of _carry_propagate's bytes.  Split each coefficient into
    its bytes: lane j holds byte j of every coefficient, and read as one
    little-endian integer it is sum(byte_j(raw[i]) * 256**i), so the
    value is the sum of the lanes shifted by 8*j bits; CPython does the
    carrying inside the additions.
    """
    value = 0
    top = int(raw.max())
    for j in range((top.bit_length() + 7) // 8):
        lane = ((raw >> 8 * j) & 255).astype(np.uint8)
        value += int.from_bytes(lane.tobytes(), "little") << 8 * j
    return value


def _carry_propagate(raw) -> tuple[int, ...]:
    """Canonical bytes of sum(raw[i] * 256**i), one coefficient at a time."""
    digits = []
    carry = 0
    for coeff in raw:
        carry, d = divmod(coeff + carry, 256)
        digits.append(d)
    while carry:
        carry, d = divmod(carry, 256)
        digits.append(d)
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
    return tuple(digits)


def schoolbook_multiply(a: BigDigits, b: BigDigits) -> BigDigits:
    """Positional digit-product multiplication: the independent oracle.

    Every byte pair is multiplied and accumulated at its position
    (O(n^2) work, sums below len * 255**2), then carries are resolved
    one coefficient at a time; no transform is involved.
    """
    da, db = (np.frombuffer(x.digits, dtype=np.uint8).astype(np.int64) for x in (a, b))
    value = int.from_bytes(bytes(_carry_propagate(np.convolve(da, db).tolist())), "little")
    return BigDigits(-value if a.negative != b.negative else value)


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
    if not candidates:
        message = f"no registry prime admits length {length} (required bound {bound})"
    else:
        message = (
            f"registry primes admitting length {length} reach only {product} "
            f"<= required {bound}; supply more moduli"
        )
    raise BoundExceeded(message, need=bound, capacity=product)


def _fields(digits: bytes, bits: int, n: int) -> np.ndarray:
    """Little-endian ``digits`` as n fields of ``bits`` bits, zero-padded.

    ``bits`` divides 8: field j of byte i is field i*(8//bits) + j.
    """
    lanes = np.frombuffer(digits, dtype=np.uint8)[:, None]
    fields = (lanes >> np.arange(0, 8, bits, dtype=np.uint8)) & (2**bits - 1)
    out = np.zeros(n, dtype=np.int64)
    out[: fields.size] = fields.reshape(-1)
    return out


def bigint_multiply(a: BigDigits, b: BigDigits, registry=None) -> BigDigits:
    """Exact product via transform convolution of the operands' bit fields.

    The bytes are cut into fields of 8, 4 or 2 bits, the widest for
    which select_moduli finds moduli; narrower fields double the length
    but shrink the coefficient bound about fourfold.  The fields are
    zero-padded to a power of two at least the sum of both field counts,
    so the cyclic convolution equals the linear one.  Its coefficients
    are regrouped per byte and carried into the product.
    """
    if a.is_zero() or b.is_zero():
        return BigDigits(0)
    da, db = a.digits, b.digits
    for bits in (8, 4, 2):
        per_byte = 8 // bits
        n = modular.next_power_of_two(per_byte * (len(da) + len(db)))
        fa, fb = _fields(da, bits, n), _fields(db, bits, n)
        try:
            moduli = select_moduli(n, _requirement(fa, fb)[0], registry)
            break
        except BoundExceeded:
            if bits == 2:
                raise
    raw = np.asarray(convolve_crt(fa, fb, moduli), dtype=np.int64)
    # per-byte coefficients: each below 2**8 * n * (2**bits - 1)**2 < 2**63
    raw = raw.reshape(-1, per_byte) @ (1 << bits * np.arange(per_byte, dtype=np.int64))
    value = _carry_bytes(raw)
    return BigDigits(-value if a.negative != b.negative else value)
