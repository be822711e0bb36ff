import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactntt import modular
from exactntt.errors import (
    BadInput,
    ModuliNotCoprime,
    ModulusTooSmall,
    NotInvertible,
)


# -- mod_reduce ----------------------------------------------------------


def test_mod_reduce_examples():
    assert modular.mod_reduce(100, 7) == 2
    assert modular.mod_reduce(0, 13) == 0
    assert modular.mod_reduce(-1, 16) == 15


def test_mod_reduce_rejects_small_modulus():
    with pytest.raises(ModulusTooSmall):
        modular.mod_reduce(3, 1)
    with pytest.raises(ModulusTooSmall):
        modular.mod_reduce(3, 0)


@given(st.integers(-(2**40), 2**40), st.integers(2, 2**20))
def test_mod_reduce_canonical_and_congruent(a, m):
    r = modular.mod_reduce(a, m)
    assert 0 <= r < m
    assert (a - r) % m == 0


# -- ext_gcd ---------------------------------------------------------------


def test_ext_gcd_examples():
    res = modular.ext_gcd(3, 7)
    assert res.g == 1 and 3 * res.x + 7 * res.y == 1
    res = modular.ext_gcd(12, 12)
    assert res.g == 12
    # the two prime factors of the fifth Fermat number are coprime
    assert modular.ext_gcd(641, 6700417).g == 1


def test_ext_gcd_negative_inputs_give_a_positive_gcd():
    res = modular.ext_gcd(-4, -6)
    assert res.g == 2 and -4 * res.x + -6 * res.y == 2


def test_ext_gcd_zero_pair_rejected():
    with pytest.raises(BadInput):
        modular.ext_gcd(0, 0)


@given(st.integers(0, 2**30), st.integers(0, 2**30))
def test_ext_gcd_identity(a, b):
    if a == 0 and b == 0:
        return
    res = modular.ext_gcd(a, b)
    assert res.g == math.gcd(a, b)
    assert a * res.x + b * res.y == res.g


# -- mod_inverse -------------------------------------------------------------


def test_mod_inverse_examples():
    assert modular.mod_inverse(3, 7) == 5
    assert modular.mod_inverse(1, 97) == 1
    with pytest.raises(NotInvertible):
        modular.mod_inverse(2, 16)


@given(st.integers(2, 10**4), st.integers(1, 10**4))
@settings(max_examples=200)
def test_mod_inverse_matches_exhaustive_search(m, b):
    b %= m
    if math.gcd(b, m) != 1:
        with pytest.raises(NotInvertible):
            modular.mod_inverse(b, m)
        return
    inv = modular.mod_inverse(b, m)
    assert 0 <= inv < m
    assert b * inv % m == 1
    # the exhaustive oracle: unique inverse among all residues
    assert inv == next(i for i in range(m) if b * i % m == 1)


# -- mod_pow -----------------------------------------------------------------


def test_mod_pow_examples():
    assert modular.mod_pow(2, 340, 341) == 1
    assert modular.mod_pow(2, 10, 341) == 1
    assert modular.mod_pow(7, 0, 13) == 1
    assert modular.mod_pow(3, 4, 16) == 1


def test_mod_pow_rejects_negative_exponent():
    with pytest.raises(BadInput):
        modular.mod_pow(2, -1, 7)


@given(st.integers(0, 2**20), st.integers(0, 2**12), st.integers(2, 2**20))
@settings(max_examples=100)
def test_mod_pow_matches_iterated_multiplication(base, exp, m):
    acc = 1
    for _ in range(exp):
        acc = acc * base % m
    assert modular.mod_pow(base, exp, m) == acc


# -- multiplicative_order -----------------------------------------------------


def test_order_digital_circle_examples():
    # successive powers of 2 mod 7 cycle through {1,2,4}
    assert modular.multiplicative_order(2, 7) == 3
    # successive powers of 3 mod 7 cycle through all six residues
    assert modular.multiplicative_order(3, 7) == 6
    # smallest composite with 2^(m-1) == 1: cycle length 10
    assert modular.multiplicative_order(2, 341) == 10


def test_order_requires_coprime():
    with pytest.raises(NotInvertible):
        modular.multiplicative_order(6, 16)


def test_order_divisor_search_path():
    assert modular.multiplicative_order(2, 13631489) == 524288
    assert modular.multiplicative_order(2, 2424833) == 1024
    # the order is minimal: no prime factor of it can be peeled off
    m = 2**20 + 7  # prime
    order = modular.multiplicative_order(3, m)
    assert pow(3, order, m) == 1
    assert all(pow(3, order // p, m) != 1 for p in modular.factorize(order))


def test_order_matches_linear_scan():
    for m in range(2, 400):
        for a in range(1, 40):
            if math.gcd(a, m) != 1:
                continue
            v, x = 1, a % m
            while x != 1 % m:
                x, v = x * a % m, v + 1
            assert modular.multiplicative_order(a, m) == v, (a, m)


@given(st.integers(2, 3000), st.integers(2, 3000))
@settings(max_examples=150)
def test_order_divides_lambda(a, m):
    if math.gcd(a, m) != 1:
        return
    order = modular.multiplicative_order(a, m)
    assert pow(a, order, m) == 1
    assert modular.carmichael_lambda(m) % order == 0


# -- totient / carmichael ------------------------------------------------------


def test_totient_examples():
    assert modular.totient(13) == 12
    assert modular.totient(1) == 1
    assert modular.totient(16) == 8


@given(st.integers(1, 2000))
@settings(max_examples=100)
def test_totient_matches_coprime_count(m):
    count = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
    assert modular.totient(m) == count


def test_lambda_examples():
    assert modular.carmichael_lambda(341) == 30
    assert modular.carmichael_lambda(16) == 4
    for p in (3, 7, 13, 31, 641):
        assert modular.carmichael_lambda(p) == p - 1
    assert modular.carmichael_lambda(1) == 1
    assert modular.carmichael_lambda(2) == 1


@pytest.mark.parametrize("function", [modular.factorize, modular.totient, modular.carmichael_lambda])
@pytest.mark.parametrize("n", [0, -6])
def test_number_theoretic_functions_reject_arguments_below_1(function, n):
    with pytest.raises(BadInput):
        function(n)


def test_lambda_four_is_two():
    # the even prime-power edge case: 3*3 == 9 == 1 (mod 4)
    assert modular.carmichael_lambda(4) == 2
    assert pow(3, 2, 4) == 1


def test_lambda_341_by_brute_force():
    # independent oracle: smallest e with a**e == 1 for all coprime a
    m = 341
    coprime = [a for a in range(1, m) if math.gcd(a, m) == 1]
    e = 1
    while not all(pow(a, e, m) == 1 for a in coprime):
        e += 1
    assert e == 30
    assert modular.carmichael_lambda(m) == e


def test_lambda_universal_exponent_exhaustive_small():
    for m in range(1, 513):
        lam = modular.carmichael_lambda(m)
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert pow(a, lam, m) == 1


@given(st.integers(2, 10**4))
@settings(max_examples=100)
def test_lambda_universal_exponent_sampled(m):
    lam = modular.carmichael_lambda(m)
    for a in range(1, min(m, 50)):
        if math.gcd(a, m) == 1:
            assert pow(a, lam, m) == 1


# -- crt_combine ---------------------------------------------------------------


def test_crt_examples():
    # oracle: scan 0..76 for the simultaneous congruence
    expected = next(x for x in range(77) if x % 7 == 2 and x % 11 == 1)
    assert expected == 23
    assert modular.crt_combine([(2, 7), (1, 11)]) == 23
    assert modular.crt_combine([(5, 9)]) == 5
    assert modular.crt_combine([(0, 7), (0, 11)]) == 0


def test_crt_rejects_shared_factor():
    with pytest.raises(ModuliNotCoprime):
        modular.crt_combine([(1, 6), (2, 9)])


def test_crt_rejects_empty():
    with pytest.raises(BadInput):
        modular.crt_combine([])


@given(
    st.lists(
        st.tuples(st.integers(0, 2**20), st.sampled_from([3, 5, 7, 11, 13, 16, 17, 19])),
        min_size=1,
        max_size=5,
        unique_by=lambda t: t[1],
    )
)
def test_crt_round_trip(pairs):
    moduli = [m for _, m in pairs]
    if any(math.gcd(moduli[i], moduli[j]) != 1 for i in range(len(moduli)) for j in range(i + 1, len(moduli))):
        return
    x = modular.crt_combine(pairs)
    product = math.prod(moduli)
    assert 0 <= x < product
    for r, m in pairs:
        assert x % m == r % m


# -- helpers --------------------------------------------------------------------


def test_factorize_and_primality():
    assert modular.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert modular.factorize(1) == {}
    assert modular.is_prime(2) and modular.is_prime(13631489)
    assert not modular.is_prime(1) and not modular.is_prime(341)


def test_power_of_two_helpers():
    assert modular.next_power_of_two(1) == 1
    assert modular.next_power_of_two(5) == 8
    assert modular.next_power_of_two(8) == 8
    assert modular.is_power_of_two(1024)
    assert not modular.is_power_of_two(0)
    assert not modular.is_power_of_two(12)
