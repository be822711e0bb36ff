"""Sequence entries, moduli and every other integer argument must be
integers (no silent truncation of floats), sequences must be
one-dimensional, transforms take a ResidueSequence, a big integer is an
int, and an empty registry holds no modulus (no fallback to the built-in
table)."""

from fractions import Fraction

import numpy as np
import pytest

from exactntt import cli, modular, registry
from exactntt.convolution import (
    BigDigits,
    bigint_multiply,
    convolve_crt,
    convolve_direct,
    convolve_ntt,
    deconvolve,
    recovery_bound,
    select_moduli,
)
from exactntt.dyadic import (
    build_dyadic_plan,
    dyadic_convolve,
    dyadic_forward,
    dyadic_inverse,
    verify_carmichael_dyadic,
)
from exactntt.errors import BadInput, BoundExceeded
from exactntt.transform import (
    ResidueSequence,
    build_plan,
    forward_direct,
    forward_fast,
    int_array,
    inverse_direct,
    inverse_fast,
    shift_mul,
)

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
        # the pack fails only at the last entry
        lambda: int_array([7] * 65535 + [1.0]),
        lambda: int_array([7] * 65535 + [None]),
        lambda: int_array([7] * 65535 + ["7"]),
    ],
    ids=[
        "ntt-float", "ntt-integral-float", "direct-float-array", "direct-fraction",
        "reduce-float", "residues-float", "residues-float-array", "crt-big-float",
        "crt-float-after-big-int", "deconvolve-numpy-float", "direct-string", "scalar",
        "last-of-65536-float", "last-of-65536-none", "last-of-65536-string",
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
    assert isinstance(BigDigits(np.int64(5)), int)
    assert BigDigits(np.int64(5)) == BigDigits(5) == 5
    assert hash(BigDigits(np.int64(5))) == hash(BigDigits(5)) == hash(5)
    for bad in [2.5, Fraction(5), "5", "12", [5]]:
        with pytest.raises(BadInput, match="must be an integer"):
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


@pytest.mark.parametrize(
    "values, dtype",
    [
        ([2**63 - 1, -(2**63)], np.int64),
        ([2**63, 0], object),
        ([-(2**63) - 1, 0], object),
        ([True, np.int32(-3), np.uint64(2**63 - 1)], np.int64),
        ((5, 6), np.int64),
        (np.array([2**63], dtype=np.uint64), object),
    ],
    ids=["int64-ends", "above-int64", "below-int64", "bool-and-numpy", "tuple", "uint64-array"],
)
def test_int_array_keeps_values_and_is_writable(values, dtype):
    arr = int_array(values)
    assert arr.dtype == dtype
    assert arr.tolist() == [int(v) for v in values]
    assert all(type(v) is int for v in arr.tolist())
    assert arr.flags.writeable


def test_empty_registry_selects_nothing():
    with pytest.raises(BoundExceeded) as info:
        select_moduli(64, 10, registry=())
    assert (info.value.need, info.value.capacity) == (10, 1)
    with pytest.raises(BoundExceeded):
        bigint_multiply(5, 7, registry=())
    assert select_moduli(64, 10) == select_moduli(64, 10, registry=REG) == [REG[0]]


def test_empty_registry_finds_nothing():
    with pytest.raises(BadInput):
        registry.find_modulus(641, ())
    assert registry.find_modulus(641).prime == 641
    assert registry.find_modulus(641, REG).prime == 641


@pytest.mark.parametrize("modulus", [641.5, 17.9, "641", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: convolve_ntt([1, 2, 0, 0], [3, 4, 0, 0], m),
        lambda m: convolve_crt([1, 2, 0, 0], [3, 4, 0, 0], [m]),
        lambda m: deconvolve([1, 2, 3, 4], [1, 0, 0, 0], m),
        lambda m: ResidueSequence([5, 7], m),
        lambda m: ResidueSequence.reduce([5, 700], m),
        lambda m: build_plan(4, m),
        lambda m: modular.mod_reduce(5, m),
        lambda m: modular.mod_inverse(5, m),
        lambda m: modular.mod_pow(5, 3, m),
        lambda m: modular.multiplicative_order(2, m),
        lambda m: modular.crt_combine([(1, 3), (5, m)]),
        lambda m: shift_mul(5, 3, m),
    ],
    ids=[
        "ntt", "crt", "deconvolve", "residues", "reduce", "plan",
        "mod-reduce", "mod-inverse", "mod-pow", "order", "crt-combine", "shift-mul",
    ],
)
def test_non_integer_moduli_raise_bad_input(call, modulus):
    with pytest.raises(BadInput, match="modulus must be an integer"):
        call(modulus)


def test_numpy_integer_moduli_act_as_ints():
    f, g, h = [1, 2, 0, 0], [3, 4, 0, 0], [3, 10, 8, 0]
    assert convolve_ntt(f, g, np.int64(641)) == convolve_ntt(f, g, 641) == h
    assert deconvolve(h, g, np.int64(17)) == deconvolve(h, g, 17) == f
    seq = ResidueSequence.reduce([5, 700], np.int32(641))
    assert seq == ResidueSequence([5, 59], np.int64(641)) and seq.values == (5, 59)
    assert type(seq.modulus) is int and type(ResidueSequence([5], np.int64(641)).modulus) is int
    assert build_plan(4, np.int64(641)) == build_plan(4, 641)
    assert type(build_plan(4, np.int64(641)).modulus) is int


def test_plan_length_is_an_integer():
    plan = build_plan(np.int64(4), 641)
    assert plan == build_plan(4, 641) and type(plan.length) is int
    for bad in (4.0, "4", None):
        with pytest.raises(BadInput, match="length must be an integer"):
            build_plan(bad, 641)


# residues, exponents and Fermat indices follow the integer rule of moduli


def test_mod_reduce_takes_an_integer_residue():
    with pytest.raises(BadInput, match="residue must be an integer, got 5.5"):
        modular.mod_reduce(5.5, 7)
    assert modular.mod_reduce(np.int64(-5), 7) == 2


def test_crt_combine_takes_integer_residues():
    with pytest.raises(BadInput, match="residue must be an integer, got 1.5"):
        modular.crt_combine([(1.5, 3), (2, 5)])
    assert modular.crt_combine([(np.int64(1), 3), (np.int32(2), 5)]) == 7


def test_mod_inverse_takes_an_integer_residue():
    with pytest.raises(BadInput, match="residue must be an integer, got 2.5"):
        modular.mod_inverse(2.5, 7)
    assert modular.mod_inverse(np.int64(3), 7) == 5
    with pytest.raises(BadInput, match="exponent must be an integer"):
        modular.mod_pow(2, 3.0, 7)
    with pytest.raises(BadInput, match="residue must be an integer"):
        modular.multiplicative_order(2.0, 7)


def test_fermat_number_takes_an_integer_index():
    for call in (registry.fermat_number, registry.rader_number, registry.verify_fermat_product_identity):
        with pytest.raises(BadInput, match="Fermat index must be an integer, got 2.0"):
            call(2.0)
    assert registry.fermat_number(np.int64(2)) == 17


# the dyadic module's lengths, bit depths, roots and entries follow the same rule

DYADIC = build_dyadic_plan(2, 8, 2, 255)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: build_dyadic_plan(4.0, 8, 2, 255), "length"),
        (lambda: build_dyadic_plan(2, 8.0, 2, 255), "alpha"),
        (lambda: build_dyadic_plan(2, 8, "2", 255), "data bit depth"),
        (lambda: build_dyadic_plan(2, 8, 2, 255.0), "root"),
        (lambda: verify_carmichael_dyadic(3.0, 8), "root"),
        (lambda: verify_carmichael_dyadic(3, None), "alpha"),
        (lambda: dyadic_forward([1.5, 0], DYADIC), "sequence entry"),
        (lambda: dyadic_forward(["a", 0], DYADIC), "sequence entry"),
        (lambda: dyadic_inverse([1.5, 0], DYADIC), "sequence entry"),
        (lambda: dyadic_convolve([1, 0], [0.5, 0], DYADIC), "sequence entry"),
    ],
    ids=[
        "plan-length", "plan-alpha", "plan-beta", "plan-root", "carmichael-a",
        "carmichael-alpha", "forward-float", "forward-str", "inverse-float", "convolve-float",
    ],
)
def test_dyadic_arguments_are_integers(call, name):
    with pytest.raises(BadInput, match=f"{name} must be an integer"):
        call()


def test_dyadic_takes_numpy_integers_as_ints():
    plan = build_dyadic_plan(np.int64(2), np.int64(8), np.int32(2), np.int64(255))
    assert plan == DYADIC and all(type(v) is int for v in (plan.length, plan.alpha, plan.root))
    assert dyadic_forward([np.int64(1), True], DYADIC) == dyadic_forward([1, 1], DYADIC)
    assert verify_carmichael_dyadic(np.int64(3), np.int64(8))


# registry fields, select_moduli's arguments and convolve_crt's moduli follow the same rule


@pytest.mark.parametrize(
    "fields,name",
    [((641, 5, 64.0), "n_max"), ((641, 5.0, 64), "fermat_index"), ((641.0, 5, 64), "prime"),
     (("641", 5, 64), "prime")],
)
def test_rader_modulus_fields_are_integers(fields, name):
    with pytest.raises(BadInput, match=f"{name} must be an integer"):
        registry.RaderModulus(*fields)


def test_rader_modulus_takes_numpy_integers_as_ints():
    entry = registry.RaderModulus(np.int64(641), np.int32(5), np.int64(64))
    assert entry == registry.RaderModulus(641, 5, 64) == REG[0]
    assert all(type(v) is int for v in (entry.prime, entry.fermat_index, entry.n_max))
    assert convolve_ntt([1, 2, 0, 0], [3, 4, 0, 0], entry) == [3, 10, 8, 0]
    assert registry.verify_fermat_factor(entry)


@pytest.mark.parametrize(
    "length,bound,name",
    [
        (4.5, 10, "length"), ("64", 10, "length"), (64.0, 10, "length"),
        (64, 10.0, "bound"), (64, None, "bound"),
    ],
)
def test_select_moduli_arguments_are_integers(length, bound, name):
    with pytest.raises(BadInput, match=f"{name} must be an integer"):
        select_moduli(length, bound)
    if name == "length":  # a registry row asks the same of a length
        with pytest.raises(BadInput, match="length must be an integer"):
            REG[0].admits_length(length)


def test_select_moduli_takes_numpy_integers():
    assert select_moduli(np.int64(64), np.int64(10)) == select_moduli(64, 10) == [REG[0]]


@pytest.mark.parametrize("moduli", [641, 641.0, None])
def test_convolve_crt_needs_an_iterable_of_moduli(moduli):
    with pytest.raises(BadInput, match="moduli must be iterable, got"):
        convolve_crt([1, 2, 0, 0], [3, 4, 0, 0], moduli)


# transforms take a ResidueSequence; anything else is pointed to ResidueSequence.reduce


@pytest.mark.parametrize("values", [[1, 2, 3, 4], np.array([1, 2, 3, 4]), (1, 2, 3, 4)])
@pytest.mark.parametrize(
    "transform_fn", [forward_fast, inverse_fast, forward_direct, inverse_direct]
)
def test_transforms_of_a_non_residue_sequence_raise_bad_input(transform_fn, values):
    plan = build_plan(4, 641)
    with pytest.raises(BadInput, match=r"got (list|ndarray|tuple); build one with ResidueSequence\.reduce"):
        transform_fn(values, plan)
    seq = ResidueSequence.reduce(values, 641)
    assert transform_fn(seq, plan) == transform_fn(ResidueSequence([1, 2, 3, 4], 641), plan)


@pytest.mark.parametrize("modulus", [[641], np.array([641]), {641: 1}])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: convolve_ntt([1, 0], [1, 0], m),
        lambda m: deconvolve([1, 0], [1, 0], m),
        lambda m: convolve_crt([1, 0], [1, 0], [m]),
    ],
    ids=["ntt", "deconvolve", "crt"],
)
def test_unhashable_moduli_raise_bad_input_before_the_plan_cache(call, modulus):
    with pytest.raises(BadInput, match="modulus must be an integer"):
        call(modulus)
    assert call(np.array(641)) == call(641) == [1, 0]


@pytest.mark.parametrize(
    "call",
    [
        lambda: recovery_bound(2, "ab", 2, False),
        lambda: recovery_bound(4, 1.5, 2, False),
        lambda: recovery_bound(4.0, 1, 2, True),
        lambda: modular.factorize(12.5),
        lambda: modular.is_prime(7.0),
        lambda: modular.is_prime(1.5),
        lambda: modular.totient(10.0),
        lambda: modular.ext_gcd(2.5, 4),
        lambda: modular.ext_gcd(4, "2"),
        lambda: modular.carmichael_lambda(10.0),
        lambda: registry.mersenne_factor_table(5.0),
        lambda: shift_mul(3, 1.5, 7),
        lambda: shift_mul(3.0, 1, 7),
    ],
    ids=[
        "bound-str", "bound-float", "bound-length", "factorize", "is-prime", "is-prime-below-2",
        "totient", "ext-gcd", "ext-gcd-str", "lambda", "mersenne-table", "shift", "shift-residue",
    ],
)
def test_number_theory_arguments_are_integers(call):
    with pytest.raises(BadInput, match="must be an integer"):
        call()


def test_number_theory_takes_numpy_integers():
    assert recovery_bound(np.int64(4), np.int32(3), True, False) == 12
    assert modular.factorize(np.int64(12)) == {2: 2, 3: 1}
    assert modular.is_prime(np.int64(7)) and modular.totient(np.int64(10)) == 4
    assert modular.carmichael_lambda(np.int16(10)) == 4
    assert modular.ext_gcd(np.int64(4), 6).g == 2
    assert registry.mersenne_factor_table(np.int64(3)) == [(2, {3: 1}), (3, {7: 1})]
    assert shift_mul(np.int64(3), np.int64(2), 7) == 5


# a BoundExceeded whose numbers str() may not write still formats


def test_bound_exceeded_past_the_digit_cap_writes_bit_lengths(digit_cap):
    big = 10 ** (digit_cap + 1)
    bits = (2 * big).bit_length()
    with pytest.raises(BoundExceeded, match=rf"bound <{bits}-bit integer> >= capacity 641") as info:
        convolve_ntt([big, 0], [1, 0], 641)
    assert (info.value.need, info.value.capacity) == (2 * big, 641)
    with pytest.raises(BoundExceeded, match=rf"<= required <{big.bit_length()}-bit integer>") as info:
        select_moduli(2, big)
    assert info.value.need == big
    with pytest.raises(BoundExceeded, match=rf"required bound <{big.bit_length()}-bit integer>"):
        select_moduli(2, big, registry=())


@pytest.mark.parametrize("moduli", [[], ["--modulus", "641"]], ids=["auto", "explicit"])
def test_cli_bound_past_the_digit_cap_exits_3(digit_cap, moduli, tmp_path, capsys):
    # entries str() can write, whose recovery bound it cannot
    entry = 10 ** (digit_cap * 2 // 3)
    path = tmp_path / "f.txt"
    with path.open("w") as fh:
        cli.write_sequence(fh, [entry, 1])
    assert cli.main(["convolve", str(path), str(path), *moduli]) == cli.EXIT_BOUND
    need = 2 * entry * entry
    assert f"bound: need <{need.bit_length()}-bit integer>, capacity " in capsys.readouterr().err
