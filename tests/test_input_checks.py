"""Sequence entries must be integers (no silent truncation of floats),
sequences must be one-dimensional, a big integer is an int, and an
empty registry holds no modulus (no fallback to the built-in table)."""

from fractions import Fraction

import numpy as np
import pytest

from exactntt import registry
from exactntt.convolution import (
    BigDigits,
    bigint_multiply,
    convolve_crt,
    convolve_direct,
    convolve_ntt,
    deconvolve,
    select_moduli,
)
from exactntt.errors import BadInput, BoundExceeded
from exactntt.transform import ResidueSequence, int_array

REG = registry.builtin_rader_primes()
PRIMES = [entry.prime for entry in REG]


@pytest.mark.parametrize(
    "call",
    [
        lambda: convolve_ntt([1.5, 0, 0], [1, 0, 0], 7),
        lambda: convolve_ntt([1, 0, 0], [1, 0, 2.0], 7),
        lambda: convolve_direct(np.array([1.9, 0.0]), [1, 0]),
        lambda: convolve_direct([1, 0], [Fraction(1, 2), 0]),
        lambda: ResidueSequence.reduce([3.7, 1], 7),
        lambda: ResidueSequence([3.7, 1], 7),
        lambda: ResidueSequence(np.array([1.0, 2.0]), 7),
        lambda: convolve_crt([2**70 + 0.5, 0], [1, 0], PRIMES),
        lambda: convolve_crt([2**70, 0.5], [1, 0], PRIMES),
        lambda: deconvolve([1, 2, 3, 4], [1, 0, 0, np.float64(0)], 17),
        lambda: convolve_direct(["1", 2], [1, 0]),
        lambda: int_array(5),
    ],
    ids=[
        "ntt-float", "ntt-integral-float", "direct-float-array", "direct-fraction",
        "reduce-float", "residues-float", "residues-float-array", "crt-big-float",
        "crt-float-after-big-int", "deconvolve-numpy-float", "direct-string", "scalar",
    ],
)
def test_non_integral_entries_raise_bad_input(call):
    with pytest.raises(BadInput):
        call()


@pytest.mark.parametrize(
    "call, rank",
    [
        (lambda: convolve_direct(np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64)), 2),
        (lambda: convolve_ntt(np.ones((4, 4), dtype=np.int64), np.ones((4, 4), dtype=np.int64), 641), 2),
        (lambda: ResidueSequence(np.zeros((2, 2), dtype=np.int64), 7), 2),
        (lambda: ResidueSequence.reduce(np.array(5), 7), 0),
    ],
    ids=["direct", "ntt", "residues", "reduce-scalar-array"],
)
def test_integer_arrays_of_other_rank_raise_bad_input(call, rank):
    with pytest.raises(BadInput, match=f"rank {rank}"):
        call()


def test_big_digits_hold_an_int():
    assert type(BigDigits(np.int64(5)).value) is int
    assert BigDigits(np.int64(5)) == BigDigits(5)
    assert hash(BigDigits(np.int64(5))) == hash(BigDigits(5))
    for bad in [2.5, Fraction(5), "5", [5]]:
        with pytest.raises(BadInput, match="not an integer"):
            BigDigits(bad)


def test_big_digits_repr_evals_back_beyond_the_str_digit_limit():
    value = -(10**4999 + 7)  # 5000 digits
    got = repr(BigDigits(value))
    assert got.startswith("BigDigits(-0x")
    assert eval(got, {"BigDigits": BigDigits}) == BigDigits(value)


def test_integer_entries_are_still_accepted():
    assert convolve_direct([True, np.int8(2)], [np.uint64(3), 1]) == [5, 7]
    assert convolve_ntt(np.array([1, 2, 0, 0], dtype=np.uint16), [1, 1, 0, 0], 17) == [1, 3, 2, 0]
    assert ResidueSequence.reduce([np.int64(-1), 2**64 + 3], 7).values == (6, 5)
    assert int_array([2**63, np.int32(-1)]).tolist() == [2**63, -1]
    assert int_array(np.array([2**64 - 1], dtype=np.uint64)).tolist() == [2**64 - 1]
    assert int_array(iter([1, 2])).dtype == np.int64
    assert int_array([]).tolist() == []


def test_empty_registry_selects_nothing():
    with pytest.raises(BoundExceeded) as info:
        select_moduli(64, 10, registry=())
    assert (info.value.need, info.value.capacity) == (10, 1)
    with pytest.raises(BoundExceeded):
        bigint_multiply(BigDigits.from_int(5), BigDigits.from_int(7), registry=())
    assert select_moduli(64, 10) == select_moduli(64, 10, registry=REG) == [REG[0]]


def test_empty_registry_finds_nothing():
    with pytest.raises(BadInput):
        registry.find_modulus(641, ())
    assert registry.find_modulus(641).prime == 641
    assert registry.find_modulus(641, REG).prime == 641
