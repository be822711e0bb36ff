"""Exact residue arithmetic kernels.

All functions work on plain Python integers, so every product is exact
for moduli of any size; the 2**31 bound on moduli belongs to the int64
transform paths, not to these functions.  Results are always canonical
residues in [0, m).
"""

import operator
from dataclasses import dataclass
from math import gcd, lcm

from .errors import BadInput, ModuliNotCoprime, ModulusTooSmall, NotInvertible


@dataclass(frozen=True)
class ExtGcdResult:
    """gcd with Bezout coefficients: a*x + b*y == g."""

    g: int
    x: int
    y: int


def _integer(value, what: str) -> int:
    """value as an int, taken through __index__: a float or str raises BadInput.

    numpy integers and bools pass as the ints they are.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise BadInput(f"{what} must be an integer, got {value!r}") from None


def _modulus(m) -> int:
    """m as an int >= 2, taken through __index__: a float or str raises BadInput."""
    m = _integer(m, "modulus")
    if m < 2:
        raise ModulusTooSmall(f"modulus must be >= 2, got {m}")
    return m


def mod_reduce(a: int, m: int) -> int:
    """Canonical residue of a modulo m, nonnegative for any signed a."""
    return _integer(a, "residue") % _modulus(m)


def ext_gcd(a: int, b: int) -> ExtGcdResult:
    """Extended Euclidean algorithm.

    Returns (g, x, y) with a*x + b*y == g == gcd(a, b). Inputs must not
    both be zero.
    """
    a, b = _integer(a, "a"), _integer(b, "b")
    if a == 0 and b == 0:
        raise BadInput("ext_gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return ExtGcdResult(old_r, old_s, old_t)


def mod_inverse(b: int, m: int) -> int:
    """Inverse of b modulo m, i.e. the residue i with b*i == 1 (mod m)."""
    m = _modulus(m)
    b = _integer(b, "residue") % m
    res = ext_gcd(b, m)
    if res.g != 1:
        raise NotInvertible(f"{b} is not invertible mod {m} (gcd = {res.g})")
    return res.x % m


def mod_pow(base: int, exp: int, m: int) -> int:
    """base**exp mod m in O(log exp) multiplications."""
    m = _modulus(m)
    base, exp = _integer(base, "base"), _integer(exp, "exponent")
    if exp < 0:
        raise BadInput("negative exponent; invert the base explicitly")
    return pow(base, exp, m)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division up to sqrt(n)."""
    n = _integer(n, "n")
    if n < 1:
        raise BadInput(f"cannot factorize {n}")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (intended for n < 2**31)."""
    n = _integer(n, "n")
    return n >= 2 and factorize(n) == {n: 1}


def totient(m: int) -> int:
    """Euler's totient: count of integers in [1, m] coprime to m."""
    m = _integer(m, "m")
    if m < 1:
        raise BadInput(f"totient undefined for {m}")
    result = m
    for p in factorize(m):
        result -= result // p
    return result


def carmichael_lambda(m: int) -> int:
    """Carmichael function: exponent of the multiplicative group mod m.

    Prime-power rule: p**k -> its totient p**(k-1) * (p-1), halved for
    p = 2 and k >= 3.  Combined by lcm.
    """
    m = _integer(m, "m")
    if m < 1:
        raise BadInput(f"carmichael_lambda undefined for {m}")
    parts = ((p - 1) * p ** (k - 1 - (p == 2 and k >= 3)) for p, k in factorize(m).items())
    return lcm(*parts)  # lcm() of nothing, for m = 1, is 1


def multiplicative_order(a: int, m: int) -> int:
    """Smallest v >= 1 with a**v == 1 (mod m).

    Carmichael-divisor search: factor lambda(m), then peel primes off it
    while the power stays 1.
    """
    m = _modulus(m)
    a = _integer(a, "residue") % m
    if gcd(a, m) != 1:
        raise NotInvertible(f"order undefined: gcd({a}, {m}) != 1")
    order = carmichael_lambda(m)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def crt_combine(residues: list[tuple[int, int]]) -> int:
    """Unique x in [0, prod(m_i)) with x == r_i (mod m_i) for all i.

    ``residues`` is a non-empty list of (r, m) pairs with pairwise
    coprime moduli.
    """
    if not residues:
        raise BadInput("crt_combine needs at least one (residue, modulus) pair")
    x, m = 0, 1
    for r, mi in residues:
        mi = _modulus(mi)
        g = gcd(m, mi)
        if g != 1:
            raise ModuliNotCoprime(f"moduli share factor {g}")
        r = _integer(r, "residue") % mi
        # lift: x + m*t == r (mod mi)  =>  t == (r - x) * m^-1 (mod mi)
        t = (r - x) * mod_inverse(m, mi) % mi
        x += m * t
        m *= mi
    return x


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (and >= 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0
