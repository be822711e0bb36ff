import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactntt import convolution, modular, registry
from exactntt.convolution import (
    BigDigits,
    bigint_multiply,
    convolve_crt,
    convolve_direct,
    convolve_ntt,
    deconvolve,
    schoolbook_multiply,
    select_moduli,
)
from exactntt.errors import (
    BadInput,
    BoundExceeded,
    InvalidLength,
    LengthMismatch,
    ModuliNotCoprime,
    NotInvertible,
    VerificationFailed,
)

REG = registry.builtin_rader_primes()


def pure_cyclic_convolve(f, g):
    """Literal defining-sum oracle, independent of the library internals."""
    n = len(f)
    return [
        sum(f[k] * g[(j - k) % n] for k in range(n)) for j in range(n)
    ]


def random_ints(n, bound, seed, signed=False):
    rnd = random.Random(seed)
    lo = -bound if signed else 0
    return [rnd.randint(lo, bound) for _ in range(n)]


# -- direct oracle ------------------------------------------------------------


def test_convolve_direct_examples():
    assert convolve_direct([1, 1, 0], [1, 0, 1]) == [2, 1, 1]
    g = [4, 7, -2, 9]
    delta = [1, 0, 0, 0]
    assert convolve_direct(delta, g) == g
    assert convolve_direct([1, 1], [1, -1]) == [0, 0]
    assert convolve_direct([], []) == []


def test_convolve_direct_matches_pure_loop():
    for seed in range(5):
        f = random_ints(17, 50, seed, signed=True)
        g = random_ints(17, 50, seed + 50, signed=True)
        assert convolve_direct(f, g) == pure_cyclic_convolve(f, g)


def test_convolve_direct_huge_values_fall_back_exactly():
    # magnitudes force the arbitrary-precision path
    f = [10**12, -(10**12), 3]
    g = [7, 10**12, -5]
    assert convolve_direct(f, g) == pure_cyclic_convolve(f, g)
    # a zero partner must not lure huge values onto the int64 path
    assert convolve_direct([10**20, 1], [0, 0]) == [0, 0]


@pytest.mark.parametrize("a, b", [(2**31, 2**31 - 1), (2**31, 2**31)])
def test_convolve_direct_on_both_sides_of_the_int64_limit(a, b):
    # N*Bf*Bg = 2*a*b is 2**63 - 2**32 (int64 path), then 2**63 (Python
    # ints), where int64 sums would wrap to -2**63
    f, g = [a, -a], [b, -b]
    assert convolve_direct(f, g) == pure_cyclic_convolve(f, g) == [2 * a * b, -2 * a * b]


def test_convolve_direct_length_mismatch():
    with pytest.raises(LengthMismatch):
        convolve_direct([1, 2], [1, 2, 3])


# -- single-prime transform path -------------------------------------------------


def test_convolve_ntt_examples():
    assert convolve_ntt([1, 1, 0], [1, 0, 1], 7) == [2, 1, 1]
    g = [3, 1, 4, 1, 5, 9, 2, 6]
    delta = [1] + [0] * 7
    assert convolve_ntt(delta, g, REG[0]) == g


def test_convolve_ntt_matches_direct():
    for n, mod, bound in (
        (16, REG[0], 6),
        (64, REG[0], 3),
        (256, REG[1], 90),
        (64, REG[3], 15),
    ):
        for seed in range(5):
            f = random_ints(n, bound, seed)
            g = random_ints(n, bound, seed + 1000)
            assert convolve_ntt(f, g, mod) == convolve_direct(f, g)


def test_convolve_ntt_signed_lift():
    f = random_ints(16, 4, 7, signed=True)
    g = random_ints(16, 4, 8, signed=True)
    assert convolve_ntt(f, g, REG[0]) == convolve_direct(f, g)
    assert convolve_ntt([1, 1], [1, -1], REG[0]) == [0, 0]


def test_convolve_ntt_bound_exceeded():
    f = [20] * 64
    g = [20] * 64
    # 64 * 20 * 20 = 25600 >= 641
    with pytest.raises(BoundExceeded):
        convolve_ntt(f, g, REG[0])
    assert convolve_ntt(f, g, REG[3]) == convolve_direct(f, g)


def test_convolve_ntt_signed_bound_is_tighter():
    # N*Bf*Bg = 320 < 641 passes unsigned but 2*320 = 640 < 641 passes too;
    # push to the edge: 4 * 10 * 16 = 640 < 641, signed needs 1280
    f = [10, 0, 0, -10]
    g = [16, 0, 0, 0]
    with pytest.raises(BoundExceeded):
        convolve_ntt(f, g, REG[0])
    unsigned_f = [10, 0, 0, 10]
    assert convolve_ntt(unsigned_f, g, REG[0]) == convolve_direct(unsigned_f, g)


def test_convolve_ntt_invalid_length():
    with pytest.raises(InvalidLength):
        convolve_ntt([1, 1, 0], [1, 0, 1], REG[0])


# -- CRT path ----------------------------------------------------------------------


def test_convolve_crt_consistent_with_single_prime():
    f = random_ints(32, 3, 1)
    g = random_ints(32, 3, 2)
    assert convolve_crt(f, g, [REG[0]]) == convolve_ntt(f, g, REG[0])


def test_convolve_crt_wide_entries():
    # entries up to 10**6 at length 1024 need all three length-1024 primes:
    # 2*1024*10**12 exceeds the two-prime product 2424833 * 13631489
    f = random_ints(1024, 10**6, 3, signed=True)
    g = random_ints(1024, 10**6, 4, signed=True)
    with pytest.raises(BoundExceeded):
        convolve_crt(f, g, [REG[1], REG[3]])
    got = convolve_crt(f, g, [REG[1], REG[2], REG[3]])
    assert got == convolve_direct(f, g)


def test_convolve_crt_two_primes_modest_entries():
    f = random_ints(1024, 1000, 5, signed=True)
    g = random_ints(1024, 1000, 6, signed=True)
    got = convolve_crt(f, g, [REG[1], REG[3]])
    assert got == convolve_direct(f, g)


def test_convolve_crt_errors():
    with pytest.raises(BadInput):
        convolve_crt([1], [1], [])
    with pytest.raises(ModuliNotCoprime):
        convolve_crt([1, 0], [1, 0], [REG[0], REG[0]])
    with pytest.raises(InvalidLength):
        convolve_crt([1] * 128, [1] * 128, [REG[0], REG[1]])


# -- algebraic properties -----------------------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_convolution_commutes_and_sums(seed):
    f = random_ints(64, 12, seed, signed=True)
    g = random_ints(64, 12, seed + 1, signed=True)
    h_ntt = convolve_ntt(f, g, REG[1])
    assert h_ntt == convolve_ntt(g, f, REG[1])
    assert h_ntt == convolve_direct(f, g)
    # cyclic convolution preserves total mass exactly on every path
    assert sum(h_ntt) == sum(f) * sum(g)
    h_crt = convolve_crt(f, g, [REG[0], REG[1]])
    assert h_crt == h_ntt
    assert sum(convolve_direct(f, g)) == sum(f) * sum(g)


def test_convolution_scaling_bilinear():
    f = random_ints(16, 5, 11, signed=True)
    g = random_ints(16, 5, 12, signed=True)
    scaled = [3 * v for v in f]
    assert convolve_ntt(scaled, g, REG[1]) == [3 * v for v in convolve_ntt(f, g, REG[1])]


# -- deconvolution --------------------------------------------------------------------


def test_deconvolve_round_trip():
    m = REG[1]
    rnd = random.Random(9)
    for _ in range(5):
        f = [rnd.randrange(50) for _ in range(64)]
        g = [rnd.randrange(50) for _ in range(64)]
        h = convolve_ntt(f, g, m)
        recovered = deconvolve(h, g, m)
        assert recovered == [v % m.prime for v in f]


def test_deconvolve_identity_filter():
    m = REG[0]
    h = [5, 4, 3, 2, 1, 0, 0, 0]
    delta = [1] + [0] * 7
    assert deconvolve(h, delta, m) == h


def test_deconvolve_all_ones_filter_not_invertible():
    m = REG[0]
    g = [1] * 16
    with pytest.raises(NotInvertible) as exc:
        deconvolve([1] * 16, g, m)
    # the all-ones spectrum is N*delta: every bin except u=0 vanishes
    assert exc.value.bin_index == 1


def test_deconvolve_reports_first_bad_bin():
    m = REG[0]
    plan_len = 8
    # craft g whose spectrum vanishes exactly at bin 3: subtract the
    # component that bin sees
    from exactntt.transform import ResidueSequence, build_plan, inverse_fast

    plan = build_plan(plan_len, m)
    spectrum = [random.Random(5).randrange(1, m.prime) for _ in range(plan_len)]
    spectrum[3] = 0
    g = inverse_fast(ResidueSequence(tuple(spectrum), m.prime), plan)
    with pytest.raises(NotInvertible) as exc:
        deconvolve([1] * plan_len, list(g.values), m)
    assert exc.value.bin_index == 3


@pytest.mark.parametrize("m,n", [(7, 3), (13, 12), (641, 64), (2424833, 1), (13631489, 1024)])
def test_inverse_mod_is_the_inverse_of_every_entry(m, n):
    # any length, not only powers of two: the product tree pads with 1s
    rnd = random.Random(m + n)
    x = [1, m - 1][:n] + [rnd.randrange(1, m) for _ in range(n - 2)]
    inverse = convolution._inverse_mod(np.array(x, dtype=np.int64), m)
    assert inverse.tolist() == [pow(v, -1, m) for v in x]


def test_deconvolve_at_a_length_that_is_not_a_power_of_two():
    # 2 has order 3 mod 7 and 12 mod 13; the spectra of these filters,
    # 1 + z and 5 + z + z**2 at z = w**u, have no zero there
    for m, g in ((7, [1, 1, 0]), (13, [5, 1, 1] + [0] * 9)):
        n = len(g)
        rnd = random.Random(n)
        f = [rnd.randrange(m) for _ in range(n)]
        h = [v % m for v in pure_cyclic_convolve(f, g)]
        assert deconvolve(h, g, m) == f
    # g = (1, 1, 1) has spectrum (3, 0, 0): bin 1 is the first zero
    with pytest.raises(NotInvertible) as exc:
        deconvolve([1, 2, 3], [1, 1, 1], 7)
    assert exc.value.bin_index == 1


# -- plan cache ------------------------------------------------------------------------


@pytest.fixture
def plan_cache():
    convolution._plan.cache_clear()
    convolution._plan_key.cache_clear()
    yield convolution._plan.cache_info
    convolution._plan.cache_clear()
    convolution._plan_key.cache_clear()


DELTA = [1] + [0] * 63


def test_every_form_of_a_modulus_shares_one_plan(plan_cache):
    for modulus in (641, registry.find_modulus(641), np.int64(641), 641):
        assert convolve_ntt(DELTA, DELTA, modulus) == DELTA
    info = plan_cache()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


def test_a_cached_plan_skips_the_primality_test_and_the_order(plan_cache, monkeypatch):
    for modulus in (13631489, registry.find_modulus(13631489)):
        convolve_ntt(DELTA, DELTA, modulus)

    def forbidden(*args):
        raise AssertionError("recomputed on a cache hit")

    monkeypatch.setattr(modular, "is_prime", forbidden)
    monkeypatch.setattr(modular, "multiplicative_order", forbidden)
    for modulus in (13631489, registry.find_modulus(13631489)):
        assert convolve_ntt(DELTA, DELTA, modulus) == DELTA
    assert plan_cache().hits == 3


def test_a_wrong_order_claim_raises_after_the_right_plan_is_cached(plan_cache):
    assert convolve_ntt(DELTA, DELTA, 641) == DELTA
    for claim in (registry.RaderModulus(641, 5, 128), registry.RaderModulus(641, 6, 128)):
        with pytest.raises(VerificationFailed, match="has order 32 < 64"):
            convolve_ntt(DELTA, DELTA, claim)
    with pytest.raises(InvalidLength):
        convolve_ntt(DELTA, DELTA, registry.RaderModulus(641, 4, 32))
    info = plan_cache()
    assert (info.misses, info.hits, info.currsize) == (4, 0, 1)


# -- big digits ------------------------------------------------------------------------


def test_bigdigits_canonical_forms():
    # every int is canonical: zero has one byte and no sign
    assert convolution._magnitude_bytes(0) == b"\x00"
    assert BigDigits(-0) == BigDigits(0) == 0
    assert convolution._magnitude_bytes(-5) == b"\x05"
    assert convolution._magnitude_bytes(0x040008) == bytes((8, 0, 4))
    for bad in [(1, 0), (256,), (), 1.0]:
        with pytest.raises(BadInput):
            BigDigits(bad)


@given(st.integers(-(10**30), 10**30))
def test_bigdigits_int_round_trip(value):
    assert BigDigits(value) == value
    assert BigDigits.from_decimal(BigDigits(value).to_decimal()) == value


def test_bigdigits_decimal_parsing():
    assert BigDigits.from_decimal("  -00123 ") == -123
    assert BigDigits.from_decimal("+7") == 7
    with pytest.raises(BadInput):
        BigDigits.from_decimal("12x3")
    with pytest.raises(BadInput):
        BigDigits.from_decimal("")


# -- multiplication ------------------------------------------------------------------------


def test_carry_propagation_steps():
    # raw positional products of 0x0c0c * 0x2222 in base 256:
    # [0x198, 0x330, 0x198] -> 0x019b3198
    assert convolution._carry_propagate([0x198, 0x330, 0x198]) == (0x98, 0x31, 0x9B, 0x01)


def test_schoolbook_examples():
    assert schoolbook_multiply(12, 34) == 408
    assert schoolbook_multiply(BigDigits(12), 0) == 0
    rnd = random.Random(9)
    for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        x, y = sa * rnd.getrandbits(1000), sb * rnd.getrandbits(700)
        assert schoolbook_multiply(x, y) == x * y


def test_bigint_multiply_examples():
    assert bigint_multiply(BigDigits.from_decimal("12"), BigDigits.from_decimal("34")).to_decimal() == "408"
    a = BigDigits.from_decimal("999999999999")
    assert bigint_multiply(a, 1) == a
    assert bigint_multiply(a, BigDigits.from_decimal("0")).to_decimal() == "0"
    assert (
        bigint_multiply(BigDigits.from_decimal("-25"), BigDigits.from_decimal("4")).to_decimal()
        == "-100"
    )


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_bigint_multiply_random_digits(seed):
    rnd = random.Random(seed)
    a = rnd.randrange(10 ** rnd.randint(1, 600))
    b = -rnd.randrange(10 ** rnd.randint(1, 600))
    product = bigint_multiply(a, b)
    assert product == a * b
    assert product == schoolbook_multiply(a, b)
    assert bigint_multiply(b, a) == product


def test_bigint_multiply_thousand_digits():
    rnd = random.Random(42)
    a = rnd.randrange(10**999, 10**1000)
    b = rnd.randrange(10**999, 10**1000)
    assert bigint_multiply(a, b) == a * b


def test_select_moduli():
    chosen = select_moduli(64, 2 * 64 * 255 * 255)
    assert [c.prime for c in chosen] == [13631489]
    chosen = select_moduli(4096, 2 * 4096 * 255 * 255)
    assert [c.prime for c in chosen] == [319489, 13631489]
    with pytest.raises(BoundExceeded):
        select_moduli(8192, 2 * 8192 * 255 * 255)
    with pytest.raises(BoundExceeded):
        select_moduli(2**20, 2)  # nothing admits lengths beyond 2^19


def test_bigint_base_fallback_hint():
    # bytes exceed the registry's capacity at 12000 digits; bigint_multiply
    # falls back to narrower fields by itself
    a = 10 ** 12000
    n = modular.next_power_of_two(2 * len(convolution._magnitude_bytes(a)))
    with pytest.raises(BoundExceeded):
        select_moduli(n, n * 255 * 255)
    assert bigint_multiply(a, a) == 10 ** 24000
    b = -(3 ** 25000)
    assert bigint_multiply(a, b) == -(10 ** 12000) * 3 ** 25000
