"""The bytes of a big integer's magnitude through int.to_bytes, checked
against a divmod loop; the byte-lane carry, checked against the
schoolbook oracle's carry loop; big-integer products at every field
width, checked against int.__mul__."""

import random
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactntt import convolution
from exactntt.convolution import (
    BigDigits,
    _carry_bytes,
    _carry_propagate,
    _magnitude_bytes,
    bigint_multiply,
    schoolbook_multiply,
)
from exactntt.errors import BadInput, BoundExceeded

# the longest transform a registry prime admits
MAX_LENGTH = 2**19


def byte_edge_values():
    values = [0, 1, 255, 256, 65535, 65536]
    for k in (1, 2, 7, 8, 9, 64, 65, 500, 4999):
        values += [256 ** k - 1, 256 ** k, 256 ** k + 1]
    return values


def divmod_bytes(value):
    """Little-endian bytes of value >= 0, one divmod per byte."""
    digits = [value % 256]
    while value >= 256:
        value //= 256
        digits.append(value % 256)
    return digits


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
    digits = _magnitude_bytes(sign * value)
    assert list(digits) == divmod_bytes(value)
    assert int.from_bytes(digits, "little") == value


@given(st.integers(-(2**4000), 2**4000))
def test_byte_round_trip(value):
    assert int.from_bytes(_magnitude_bytes(value), "little") == abs(value)
    assert BigDigits(value) == value


def test_byte_digits_are_ints_and_validated():
    value = BigDigits(np.int64(-300))
    assert isinstance(value, int) and value == -300
    assert _magnitude_bytes(value) == b"\x2c\x01"
    assert _magnitude_bytes(2**70 + 5) == (2**70 + 5).to_bytes(9, "little")
    for bad in [2.5, "5", (256,), None]:
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


def loop_value(raw):
    """The value of the oracle's carry loop, read back from its bytes."""
    return int.from_bytes(bytes(_carry_propagate(raw.tolist())), "little")


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1024, 4096])
def test_byte_carry_matches_loop_on_random_coefficients(n):
    rng = np.random.default_rng(n)
    for top in (1, 256, 255 * 255, n * 255 * 255):
        raw = rng.integers(0, top, size=n, endpoint=True)
        assert _carry_bytes(raw) == loop_value(raw)
    zeros = np.zeros(n, dtype=np.int64)
    assert _carry_bytes(zeros) == loop_value(zeros) == 0
    assert _carry_propagate(zeros.tolist()) == (0,)


def test_byte_carry_matches_loop_at_the_coefficient_ceiling():
    top = MAX_LENGTH * 255 * 255
    assert top < 2**35  # five byte lanes
    raw = np.full(MAX_LENGTH, top, dtype=np.int64)
    value = _carry_bytes(raw)
    assert value == loop_value(raw)
    assert value == top * (256**MAX_LENGTH - 1) // 255


@pytest.mark.parametrize("n", [1, 2, 1000, 2**16])
def test_byte_carry_matches_loop_on_the_longest_ripple(n):
    # raw linear square of 256**n - 1 (n digits of 255): every carry
    # runs from the lowest coefficient to the top
    k = np.arange(2 * n - 1)
    raw = (np.minimum(k, 2 * n - 2 - k) + 1) * 255 * 255
    value = _carry_bytes(raw)
    assert value == loop_value(raw)
    assert value == (256**n - 1) ** 2


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
        product = bigint_multiply(a, b)
        assert product == a * b
        assert type(product) is BigDigits


def test_bigint_multiply_base_256_zero_and_all_ones():
    x = 256**2000 - 1
    assert bigint_multiply(x, x) == x * x
    for a, b in [(0, x), (-x, 0), (0, 0)]:
        product = bigint_multiply(a, b)
        assert product == 0 and type(product) is BigDigits


@pytest.fixture
def widths_tried(monkeypatch):
    """Lengths bigint_multiply asks select_moduli for, one per field width tried."""
    lengths = []
    select = convolution.select_moduli

    def recording(length, bound, registry=None):
        lengths.append(length)
        return select(length, bound, registry)

    monkeypatch.setattr(convolution, "select_moduli", recording)
    return lengths


# On the built-in table bytes reach 4900 decimal digits, 4-bit fields
# 19000 and 2-bit fields 1.5*10**5: 13631489 is the only prime admitting
# lengths above 4096.
@pytest.mark.parametrize(
    "digits, widths",
    [(4900, 1), (5000, 2), (19000, 2), (21000, 3), (150000, 3)],
)
def test_products_on_both_sides_of_each_width_change(widths_tried, digits, widths):
    rnd = random.Random(digits)
    signs = [(1, 1), (-1, 1), (1, -1), (-1, -1)] if digits < 10**5 else [(-1, 1)]
    for sa, sb in signs:
        a, b = sa * decimal_operand(rnd, digits), sb * decimal_operand(rnd, digits)
        widths_tried.clear()
        assert bigint_multiply(a, b) == a * b
        assert len(widths_tried) == widths
    if digits <= 5000:
        assert bigint_multiply(a, b) == schoolbook_multiply(a, b)


def test_products_beyond_every_width_raise_bound_exceeded(widths_tried):
    a = 10**200000 - 1
    with pytest.raises(BoundExceeded) as info:
        bigint_multiply(a, a)
    assert widths_tried == [2**18, 2**19, 2**20]
    assert info.value.need is not None and info.value.capacity is not None
    assert info.value.capacity <= info.value.need
