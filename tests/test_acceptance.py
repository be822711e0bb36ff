"""Acceptance suite: one test per release criterion.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
PASS lines.  Criterion 4's largest length lives behind the ``long``
marker: ``pytest -m long tests/test_acceptance.py``.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from exactntt import modular, registry
from exactntt.convolution import (
    bigint_multiply,
    convolve_crt,
    convolve_direct,
    convolve_ntt,
    deconvolve,
    schoolbook_multiply,
)
from exactntt.dyadic import (
    build_dyadic_plan,
    dyadic_convolve,
    dyadic_forward,
    dyadic_inverse,
    verify_carmichael_dyadic,
)
from exactntt.errors import NotInvertible
from exactntt.transform import (
    ResidueSequence,
    build_plan,
    forward_direct,
    forward_fast,
    inverse_direct,
    inverse_fast,
    shift_mul,
)

REG = registry.builtin_rader_primes()
BY_PRIME = {e.prime: e for e in REG}

TABLE1 = {641: 64, 2424833: 1024, 319489: 4096, 13631489: 524288}


def report(number: int, name: str, detail: str, elapsed: float) -> None:
    print(f"PASS criterion {number} ({name}): {detail} [{elapsed:.3f} s]")


def random_residue_batch(n: int, m: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        row = rng.integers(0, m, size=n, dtype=np.int64)
        yield ResidueSequence(tuple(row.tolist()), m)


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    for prime, n_max in TABLE1.items():
        entry = BY_PRIME[prime]
        assert entry.n_max == n_max
        assert modular.multiplicative_order(2, prime) == n_max
        # divisibility by the claimed Fermat number via 2^(2^j) == -1
        assert modular.mod_pow(2, 1 << entry.fermat_index, prime) == prime - 1
        assert registry.verify_fermat_factor(entry)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "moduli table reproduction", f"{len(TABLE1)} rows, orders and divisibility exact", elapsed)


def test_criterion_2_fermat_product_identity():
    registry.fermat_number(6)  # warm any lazy setup before timing
    t0 = time.perf_counter()
    for n in range(1, 7):
        product = 1
        for j in range(n):
            product *= registry.fermat_number(j)
        assert product == registry.fermat_number(n) - 2
        assert registry.verify_fermat_product_identity(n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-3
    report(2, "product identity", "exact for n = 1..6", elapsed)


def test_criterion_3_poulet_composite():
    t0 = time.perf_counter()
    m = 341
    assert modular.multiplicative_order(2, m) == 10
    assert modular.mod_pow(2, 340, m) == 1
    lam = modular.carmichael_lambda(m)
    assert lam == 30
    coprime = [a for a in range(1, m) if math.gcd(a, m) == 1]
    assert all(pow(a, 30, m) == 1 for a in coprime)
    # 30 is minimal among universal exponents
    for d in (1, 2, 3, 5, 6, 10, 15):
        assert not all(pow(a, d, m) == 1 for a in coprime)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, "composite modulus example", "order 10, universal exponent 30, exhaustive", elapsed)


def _round_trip_grid(max_log2: int):
    checked = 0
    for entry in REG:
        lengths = [1 << k for k in range(1, max_log2 + 1) if entry.admits_length(1 << k)]
        for n in lengths:
            plan = build_plan(n, entry)
            for x in random_residue_batch(n, entry.prime, 100, seed=n ^ entry.prime):
                assert inverse_direct(forward_direct(x, plan), plan) == x
                assert inverse_fast(forward_fast(x, plan), plan) == x
                checked += 1
    return checked


def test_criterion_4_round_trip_grid():
    t0 = time.perf_counter()
    checked = _round_trip_grid(max_log2=12)
    elapsed = time.perf_counter() - t0
    report(
        4, "round-trip identity",
        f"{checked} sequences, direct and fast paths, all moduli, N <= 2^12, exact",
        elapsed,
    )


@pytest.mark.long
def test_criterion_4_long_transform_length():
    entry = BY_PRIME[13631489]
    n = 1 << 19
    t0 = time.perf_counter()
    plan = build_plan(n, entry)
    # the direct path is Theta(N^2) and out of reach at this length on any
    # implementation; the fast path carries the full-length check
    for x in random_residue_batch(n, entry.prime, 100, seed=19):
        assert inverse_fast(forward_fast(x, plan), plan) == x
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, "round-trip identity (long)", f"N = 2^19, 100 sequences, fast path, exact", elapsed)


NTT_CONFIGS = [
    # (length, prime, magnitude bound, signed)
    (16, 641, 6, False),
    (64, 641, 3, False),
    (1024, 2424833, 48, False),
    (4096, 319489, 8, False),
    (4096, 13631489, 40, True),
]

CRT_CONFIGS = [
    # (length, primes, magnitude bound)
    (64, (641, 319489), 1000),
    (1024, (2424833, 319489, 13631489), 10**6),
    (4096, (319489, 13631489), 500),
]


def test_criterion_5_convolution_oracle_equivalence():
    t0 = time.perf_counter()
    instances = 0
    for n, prime, bound, signed in NTT_CONFIGS:
        rng = np.random.default_rng(prime ^ n)
        lo = -bound if signed else 0
        for _ in range(200):
            f = [int(v) for v in rng.integers(lo, bound + 1, size=n)]
            g = [int(v) for v in rng.integers(lo, bound + 1, size=n)]
            assert convolve_ntt(f, g, BY_PRIME[prime]) == convolve_direct(f, g)
            instances += 1
    for n, primes, bound in CRT_CONFIGS:
        rng = np.random.default_rng(n ^ len(primes))
        moduli = [BY_PRIME[p] for p in primes]
        for _ in range(200):
            f = [int(v) for v in rng.integers(-bound, bound + 1, size=n)]
            g = [int(v) for v in rng.integers(-bound, bound + 1, size=n)]
            assert convolve_crt(f, g, moduli) == convolve_direct(f, g)
            instances += 1
    elapsed = time.perf_counter() - t0
    report(
        5, "convolution oracle equivalence",
        f"{instances} instances over {len(NTT_CONFIGS)} single-prime and "
        f"{len(CRT_CONFIGS)} multi-prime configurations, exact",
        elapsed,
    )


def test_criterion_6_fast_path_and_kernel_equivalence():
    t0 = time.perf_counter()
    cases = 0
    for k in range(1, 13):
        n = 1 << k
        entry = next(e for e in REG if e.admits_length(n))
        plan = build_plan(n, entry)
        for x in random_residue_batch(n, entry.prime, 100, seed=3 * n):
            assert forward_fast(x, plan) == forward_direct(x, plan)
            cases += 1
    # shift_mul against multiplication by a power of 2, exhaustive residues
    m = 641
    n_max = TABLE1[m]
    for x in range(m):
        for alpha in range(0, n_max + 1, 1):
            assert shift_mul(x, alpha, m) == x * pow(2, alpha, m) % m
    # whole transforms agree between kernels
    pm = build_plan(64, BY_PRIME[m], kernel="mul")
    ps = build_plan(64, BY_PRIME[m], kernel="shift")
    for x in random_residue_batch(64, m, 25, seed=66):
        assert forward_fast(x, ps) == forward_fast(x, pm)
        assert forward_direct(x, ps) == forward_direct(x, pm)
    elapsed = time.perf_counter() - t0
    report(
        6, "fast path and kernel equivalence",
        f"{cases} fast-vs-direct cases (N = 2..2^12); shift kernel exhaustive "
        f"for all residues mod {m}, alpha <= {n_max}",
        elapsed,
    )


def test_criterion_7_deconvolution():
    t0 = time.perf_counter()
    entry = BY_PRIME[2424833]
    m = entry.prime
    plan = build_plan(64, entry)
    rnd = random.Random(77)
    done = 0
    while done < 100:
        f = [rnd.randrange(100) for _ in range(64)]
        g = [rnd.randrange(100) for _ in range(64)]
        spectrum = forward_fast(ResidueSequence.reduce(g, m), plan)
        if any(v == 0 for v in spectrum):
            continue  # resample: not an invertible filter
        h = convolve_ntt(f, g, entry)
        assert deconvolve(h, g, entry) == [v % m for v in f]
        done += 1
    with pytest.raises(NotInvertible) as exc:
        deconvolve([1] * 64, [1] * 64, entry)
    assert exc.value.bin_index == 1
    elapsed = time.perf_counter() - t0
    report(
        7, "deconvolution",
        "100 invertible-spectrum round trips; all-ones filter rejected at bin 1",
        elapsed,
    )


def test_criterion_8_bigint_multiplication():
    t0 = time.perf_counter()
    rnd = random.Random(2024)
    pairs = 0
    for i in range(500):
        if i < 4:
            da = db = 4096  # pin several at the maximum size
        else:
            da = int(2 ** rnd.uniform(0, 12))
            db = int(2 ** rnd.uniform(0, 12))
        a = rnd.randrange(10 ** (da - 1), 10**da) if da > 1 else rnd.randrange(10)
        b = rnd.randrange(10 ** (db - 1), 10**db) if db > 1 else rnd.randrange(10)
        if rnd.random() < 0.25:
            a = -a
        got = bigint_multiply(a, b)
        assert got == schoolbook_multiply(a, b)
        assert got == a * b
        pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, "big-integer multiplication", f"{pairs} pairs up to 4096 decimal digits vs oracle", elapsed)


def test_criterion_9_dyadic_module():
    t0 = time.perf_counter()
    # congruence witness: exhaustive small widths, randomized beyond
    for alpha in range(3, 13):
        for a in range(1, 1 << alpha, 2):
            assert verify_carmichael_dyadic(a, alpha)
    rnd = random.Random(9)
    for _ in range(200):
        alpha = rnd.randrange(3, 25)
        a = rnd.randrange(1, 1 << alpha) | 1
        assert verify_carmichael_dyadic(a, alpha)

    # validator verdicts against the direct orthogonality oracle
    agreements = 0
    for alpha in range(3, 13):
        for n in range(1, 9):
            if alpha < n:
                continue
            for a in range(1, min(64, 1 << alpha), 2):
                plan = build_dyadic_plan(n, alpha, 0, a)
                m = 1 << alpha
                powers = [pow(a, j, m) for j in range(n)]
                oracle = (
                    pow(a, n, m) == 1
                    and all(powers[j] != 1 for j in range(1, n))
                    and all(
                        sum(powers[u * k % n] for u in range(n)) % m == 0
                        for k in range(1, n)
                    )
                )
                assert plan.validated == oracle
                agreements += 1

    # validated length-2 plans: round trip, convolution, truncation == modulo
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    assert plan.validated
    mod = 1 << plan.alpha
    rnd = random.Random(10)
    for _ in range(1000):
        x = [rnd.randrange(16), rnd.randrange(16)]
        g = [rnd.randrange(16), rnd.randrange(16)]
        X = dyadic_forward(x, plan)
        # truncation arithmetic reproduces explicit modulo arithmetic
        assert X == [
            sum(x[t] * pow(plan.root, u * t, mod) for t in range(2)) % mod
            for u in range(2)
        ]
        assert dyadic_inverse(X, plan) == x
        assert dyadic_convolve(x, g, plan) == convolve_direct(x, g)
    elapsed = time.perf_counter() - t0
    report(
        9, "dyadic module",
        f"congruence witness exhaustive to width 12 + 200 random; "
        f"{agreements} validator verdicts match oracle; 1000 round trips and "
        "convolutions exact; truncation == modulo",
        elapsed,
    )


def test_criterion_10_complexity_smoke():
    t0 = time.perf_counter()
    plan = build_plan(1 << 12, BY_PRIME[319489])
    (x,) = random_residue_batch(plan.length, plan.modulus, 1, seed=0)
    reference = forward_direct(x, plan)

    def median_s(fn):
        timings = []
        for _ in range(5):
            t = time.perf_counter()
            assert fn(x, plan) == reference
            timings.append(time.perf_counter() - t)
        return statistics.median(timings)

    ratio = median_s(forward_direct) / median_s(forward_fast)
    assert ratio > 1.0
    elapsed = time.perf_counter() - t0
    report(
        10, "complexity smoke check",
        f"N = 2^12: direct/fast median ratio = {ratio:.1f} (> 1)",
        elapsed,
    )
