"""Radix-2 Stockham stages at the int64 edge, residues in [0, m) between
stages, the array-backed ResidueSequence, the Garner CRT combine on
both sides of 2**63, vectorized spectral division and the byte
conversions of big integers."""

import pickle
import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from exactntt import cli, modular, registry
from exactntt.convolution import (
    BigDigits,
    _magnitude_bytes,
    convolve_crt,
    convolve_direct,
    deconvolve,
)
from exactntt.errors import BadInput, NotInvertible
from exactntt.transform import (
    ResidueSequence,
    build_plan,
    forward_direct,
    forward_fast,
    inverse_direct,
    inverse_fast,
)

REG = registry.builtin_rader_primes()

# Fermat-factor primes near 2**30: 2 has order 2**16 mod the first
# (a factor of F15) and 2**17 mod the second (a factor of F16).
EDGE_PRIMES = (1214251009, 825753601)
EDGE_LENGTHS = [2**k for k in range(1, 11)]


def edge_inputs(n, m):
    rnd = random.Random(n * 7 + m)
    return {
        "all m-1": ResidueSequence([m - 1] * n, m),
        "random": ResidueSequence([rnd.randrange(m) for _ in range(n)], m),
    }


# -- radix-2 stages at the int64 edge ------------------------------------------


# mod 1214251009 one int64 sum holds only six products of two residues
@pytest.mark.parametrize(
    "n, m", [(n, m) for m in EDGE_PRIMES for n in EDGE_LENGTHS] + [(2**13, EDGE_PRIMES[0])]
)
def test_edge_prime_fast_equals_direct_and_round_trips(n, m):
    plan = build_plan(n, m)
    for x in edge_inputs(n, m).values():
        assert forward_fast(x, plan) == forward_direct(x, plan)
        assert inverse_fast(x, plan) == inverse_direct(x, plan)
        assert inverse_fast(forward_fast(x, plan), plan) == x


def test_edge_prime_fast_round_trip_at_2_16():
    m = EDGE_PRIMES[0]
    plan = build_plan(2**16, m)
    for x in edge_inputs(2**16, m).values():
        assert inverse_fast(forward_fast(x, plan), plan) == x


# every power-of-two length up to 1024 that each registry and edge prime admits
SHIFT_CASES = [
    (n, m)
    for m in [e.prime for e in REG] + list(EDGE_PRIMES)
    for n in (2**k for k in range(1, 11))
    if modular.multiplicative_order(2, m) % n == 0
]


@pytest.mark.parametrize("n, m", SHIFT_CASES)
def test_edge_prime_shift_kernel_matches_mul(n, m):
    mul, shift = build_plan(n, m), build_plan(n, m, kernel="shift")
    for x in edge_inputs(n, m).values():
        assert forward_fast(x, shift) == forward_fast(x, mul)
        assert inverse_fast(x, shift) == inverse_fast(x, mul)
        if n <= 64:
            assert forward_direct(x, shift) == forward_direct(x, mul)
            assert inverse_direct(x, shift) == inverse_direct(x, mul)


# -- residues in [0, m) between stages -------------------------------------------


@pytest.mark.parametrize("m", [e.prime for e in REG] + list(EDGE_PRIMES))
def test_every_stockham_stage_starts_from_residues(m, with_tables):
    # the fast transform of a plan cut to its first j stage tables returns
    # the state that stage j + 1 starts from, and every one lies in [0, m):
    # so each twiddle product is below m**2 < 2**63 and no stage needs
    # int64 headroom beyond that
    order = modular.multiplicative_order(2, m)
    for kernel, top in (("mul", 19), ("shift", 10)):
        for k in range(1, top + 1):
            n = 1 << k
            if order % n:
                continue
            plan = build_plan(n, m, kernel)
            for x in edge_inputs(n, m).values():
                for j in range(1, len(plan.radix_tables) + 1):
                    cut = with_tables(plan, plan.radix_tables[:j])
                    state = np.asarray(forward_fast(x, cut))
                    assert 0 <= state.min() and state.max() < m, (kernel, n, j)


# -- Garner CRT combine on both sides of 2**63 ---------------------------------------


@pytest.mark.parametrize(
    "moduli",
    [
        (641, 13631489, 825753601),  # product ~2**62.6: int64 combine
        (641, 13631489, 1214251009),  # product ~2**63.2: object combine
    ],
)
def test_crt_edge_of_int64_matches_direct(moduli):
    n = 64
    product = moduli[0] * moduli[1] * moduli[2]
    bound = int((product / (2 * n)) ** 0.5) - 1
    rnd = random.Random(sum(moduli))
    f = [rnd.randint(-bound, bound) for _ in range(n)]
    g = [rnd.randint(-bound, bound) for _ in range(n)]
    f[0], g[0] = bound, -bound
    assert convolve_crt(f, g, list(moduli)) == convolve_direct(f, g)
    assert convolve_crt(np.abs(f), np.abs(g), list(moduli)) == convolve_direct(
        [abs(v) for v in f], [abs(v) for v in g]
    )


@pytest.mark.parametrize("big", [2**64, -(2**64)])
def test_crt_all_registry_primes_entries_beyond_int64(big):
    # product of the four primes is ~2**72.5 > 2 * 2 * 2**64 * 7
    f = [big, 3]
    g = [-7, 5]
    assert convolve_crt(f, g, REG) == convolve_direct(f, g)
    assert convolve_crt(g, f, REG) == convolve_direct(g, f)


# -- array-backed ResidueSequence ----------------------------------------------------


def test_residue_sequence_contract():
    m = 13631489
    seq = ResidueSequence([5, 0, m - 1], m)
    assert isinstance(seq.values, tuple)
    assert seq.values == (5, 0, m - 1)
    assert all(type(v) is int for v in seq.values)
    assert list(seq) == [5, 0, m - 1]
    assert seq[2] == m - 1 and len(seq) == 3
    twin = ResidueSequence((5, 0, m - 1), m)
    assert seq == twin and hash(seq) == hash(twin)
    assert hash(seq) == hash(((5, 0, m - 1), m))
    assert seq != ResidueSequence((5, 0, m - 1), m + 2)
    assert seq != ResidueSequence((5, 0, m - 2), m)
    assert seq != (5, 0, m - 1)
    assert pickle.loads(pickle.dumps(seq)) == seq


def test_residue_sequence_is_immutable():
    source = np.array([1, 2, 3], dtype=np.int64)
    seq = ResidueSequence(source, 5)
    backing = np.asarray(seq)
    assert not backing.flags.writeable
    with pytest.raises(ValueError):
        backing[0] = 4
    source[0] = 4  # the caller's array is not shared
    assert seq.values == (1, 2, 3)
    with pytest.raises(FrozenInstanceError):
        seq.modulus = 7
    with pytest.raises(FrozenInstanceError):
        del seq.modulus


def test_residue_sequence_rejects_non_residues():
    for bad in ((5,), (-1,), (2**64,)):
        with pytest.raises(BadInput):
            ResidueSequence(bad, 5)


def test_reduce_is_exact_beyond_int64():
    m = 13631489
    values = [2**70 - 3, -(2**65)]
    seq = ResidueSequence.reduce(values, m)
    assert seq.values == tuple(v % m for v in values)
    huge = 2**89 - 1
    assert ResidueSequence.reduce(values, huge).values == tuple(v % huge for v in values)


# -- vectorized spectral division ----------------------------------------------------


@pytest.mark.parametrize("m", [REG[3].prime, *EDGE_PRIMES])
def test_deconvolve_edge_primes(m):
    n = 256
    rnd = random.Random(m)
    g = [rnd.randrange(m) for _ in range(n)]
    f = [rnd.randrange(m) for _ in range(n)]
    plan = build_plan(n, m)
    G = forward_fast(ResidueSequence(g, m), plan)
    F = forward_fast(ResidueSequence(f, m), plan)
    h = inverse_fast(ResidueSequence([a * b % m for a, b in zip(F, G)], m), plan)
    assert all(G)  # a random filter has no spectral null here
    assert deconvolve(list(h), g, m) == f


def test_deconvolve_reports_first_of_several_null_bins():
    m = REG[3].prime
    n = 16
    plan = build_plan(n, m)
    spectrum = [random.Random(1).randrange(1, m) for _ in range(n)]
    spectrum[5] = spectrum[11] = spectrum[12] = 0
    g = inverse_fast(ResidueSequence(spectrum, m), plan)
    with pytest.raises(NotInvertible) as exc:
        deconvolve([1] * n, list(g), m)
    assert exc.value.bin_index == 5


# -- big-integer byte conversions ---------------------------------------------------------


def loop_from_int(value):
    """Little-endian bytes of |value|, one divmod per byte."""
    digits = []
    value = abs(value)
    while True:
        value, d = divmod(value, 256)
        digits.append(d)
        if value == 0:
            return tuple(digits)


def loop_to_int(digits):
    value = 0
    for d in reversed(digits):
        value = value * 256 + d
    return value


# sample values are powers of ``radix`` and their neighbours: byte-aligned
# edges for 2, 256 and 2**16, unaligned ones for 3 and 10
@pytest.mark.parametrize("radix", [2, 3, 10, 256, 2**16])
@pytest.mark.parametrize("count", [0, 1, 33, 63, 64, 65, 200, 1500])
def test_bigdigits_split_conversion_matches_loop(radix, count):
    rnd = random.Random(radix * 10007 + count)
    samples = [0, radix**count - 1, radix**count, rnd.randrange(radix**count) if count else 0]
    for value in samples:
        for signed in (value, -value):
            got = _magnitude_bytes(signed)
            assert tuple(got) == loop_from_int(signed)
            assert BigDigits(signed) == signed
            assert loop_to_int(got) == abs(signed)


def test_bigdigits_from_numpy_integer():
    assert BigDigits(np.int64(-300)) == BigDigits(-300) == -300
    assert _magnitude_bytes(BigDigits(np.int64(10**18))) == (10**18).to_bytes(8, "little")


def test_from_decimal_accepts_only_ascii_digits():
    for text in ("²", "١٢٣", "1²", "-١"):
        with pytest.raises(BadInput):
            BigDigits.from_decimal(text)
    assert BigDigits.from_decimal(" -0123 ") == -123


def test_cli_mul_rejects_superscript_digit(capsys):
    assert cli.main(["mul", "2", "²"]) == cli.EXIT_PARSE
    assert "not a decimal integer" in capsys.readouterr().err
