"""The base-256 byte path of BigDigits: digit split and join through
int.to_bytes/int.from_bytes and the byte-lane carry, each checked against
the divide-and-conquer conversions and the carry loop kept for the other
bases; big-integer products against int.__mul__."""

import random
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactntt import registry
from exactntt.convolution import (
    BigDigits,
    _carry_bytes,
    _carry_propagate,
    _digits_to_int,
    _int_to_digits,
    bigint_multiply,
)
from exactntt.errors import BadInput

# the longest transform a registry prime admits
MAX_LENGTH = 2**19


def byte_edge_values():
    values = [0, 1, 255, 256, 65535, 65536]
    for k in (1, 2, 7, 8, 9, 64, 65, 500, 4999):
        values += [256 ** k - 1, 256 ** k, 256 ** k + 1]
    return values


def random_values(count, max_bytes, seed):
    rnd = random.Random(seed)
    return [rnd.getrandbits(8 * rnd.randint(1, max_bytes)) for _ in range(count)]


@pytest.mark.parametrize(
    "value",
    byte_edge_values() + random_values(40, 5000, 1),
    ids=lambda v: f"{v.bit_length()}bits",
)
@pytest.mark.parametrize("sign", [1, -1])
def test_byte_split_and_join_match_reference(value, sign):
    digits = BigDigits.from_int(sign * value)
    assert digits.base == 256
    assert list(digits.digits) == _int_to_digits(value, 256, 1)
    assert digits.negative == (sign < 0 and value != 0)
    assert digits.to_int() == sign * value
    assert _digits_to_int(digits.digits, 256) == value


@given(st.integers(-(2**4000), 2**4000))
def test_byte_round_trip(value):
    assert BigDigits.from_int(value).to_int() == value


def test_byte_digits_are_ints_and_validated():
    digits = BigDigits.from_int(2**70 + 5).digits
    assert type(digits) is tuple and all(type(d) is int for d in digits)
    assert BigDigits.from_int(np.int64(-300)).to_int() == -300
    for bad in [(256,), (-1, 1), (1, 300, 2)]:
        with pytest.raises(BadInput):
            BigDigits(bad)


@pytest.mark.parametrize("digits", [1, 9, 4300, 4301, 5000, 12000])
def test_decimal_round_trip_under_default_limit(digits):
    limit = sys.get_int_max_str_digits()
    rnd = random.Random(digits)
    text = str(rnd.randint(1, 9)) + "".join(rnd.choice("0123456789") for _ in range(digits - 1))
    for signed in (text, "-" + text):
        value = BigDigits.from_decimal(signed)
        assert value.to_decimal() == signed
        assert sys.get_int_max_str_digits() == limit


def carried_digits(raw):
    return tuple(_carry_bytes(raw))


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1024, 4096])
def test_byte_carry_matches_loop_on_random_coefficients(n):
    rng = np.random.default_rng(n)
    for top in (1, 256, 255 * 255, n * 255 * 255):
        raw = rng.integers(0, top, size=n, endpoint=True)
        assert carried_digits(raw) == _carry_propagate(raw.tolist(), 256)
    zeros = [0] * n
    assert carried_digits(zeros) == _carry_propagate(zeros, 256) == (0,)


def test_byte_carry_matches_loop_at_the_coefficient_ceiling():
    top = MAX_LENGTH * 255 * 255
    assert top < 2**35  # five byte lanes
    raw = np.full(MAX_LENGTH, top, dtype=np.int64)
    digits = carried_digits(raw)
    assert digits == _carry_propagate(raw.tolist(), 256)
    assert int.from_bytes(bytes(digits), "little") == top * (256**MAX_LENGTH - 1) // 255


@pytest.mark.parametrize("n", [1, 2, 1000, 2**16])
def test_byte_carry_matches_loop_on_the_longest_ripple(n):
    # raw linear square of 256**n - 1 (n digits of 255): every carry
    # runs from the lowest coefficient to the top
    k = np.arange(2 * n - 1)
    raw = (np.minimum(k, 2 * n - 2 - k) + 1) * 255 * 255
    digits = carried_digits(raw)
    assert digits == _carry_propagate(raw.tolist(), 256)
    assert int.from_bytes(bytes(digits), "little") == (256**n - 1) ** 2


def decimal_operand(rnd, digits):
    return rnd.randrange(10 ** (digits - 1), 10**digits)


@pytest.mark.parametrize(
    "da, db",
    [(1, 1), (1, 4900), (3, 17), (100, 2500), (500, 500), (1500, 4800), (4900, 4900)],
)
def test_bigint_multiply_base_256_matches_int_mul(da, db):
    rnd = random.Random(da * 10007 + db)
    for sa, sb in [(1, 1), (-1, 1), (1, -1), (-1, -1)]:
        a, b = sa * decimal_operand(rnd, da), sb * decimal_operand(rnd, db)
        product = bigint_multiply(BigDigits.from_int(a), BigDigits.from_int(b))
        assert product.to_int() == a * b
        assert product == BigDigits.from_int(a * b)


def test_bigint_multiply_base_256_zero_and_all_ones():
    x = 256**2000 - 1
    assert bigint_multiply(BigDigits.from_int(x), BigDigits.from_int(x)).to_int() == x * x
    for a, b in [(0, x), (-x, 0), (0, 0)]:
        product = bigint_multiply(BigDigits.from_int(a), BigDigits.from_int(b))
        assert product == BigDigits.from_int(0)


@pytest.mark.parametrize("base", [2, 3, 10, 2**16])
def test_other_bases_match_int_mul(base):
    rnd = random.Random(base)
    for da, db in [(1, 1), (5, 300), (300, 300)]:
        for sa, sb in [(1, 1), (-1, 1), (1, -1)]:
            a, b = sa * decimal_operand(rnd, da), sb * decimal_operand(rnd, db)
            product = bigint_multiply(BigDigits.from_int(a, base), BigDigits.from_int(b, base))
            assert product.base == base
            assert product.to_int() == a * b
            assert list(product.digits) == _int_to_digits(abs(a * b), base, 1)
        assert bigint_multiply(BigDigits.from_int(0, base), BigDigits.from_int(a, base)).is_zero()


def test_digits_beyond_int64_still_multiply():
    # base 2**64 needs more capacity than the registry has; registry
    # primes plus two plain Fermat-factor primes reach ~2**132
    moduli = [entry.prime for entry in registry.builtin_rader_primes()]
    moduli += [1214251009, 825753601]
    base = 2**64
    a, b = BigDigits((base - 1,), base), BigDigits((base - 2, 3), base, negative=True)
    assert bigint_multiply(a, a, moduli=moduli).to_int() == (base - 1) ** 2
    assert bigint_multiply(a, b, moduli=moduli).to_int() == a.to_int() * b.to_int()
