import gc
import hashlib
import random
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactntt import modular, registry, transform
from exactntt.errors import (
    BadInput,
    InvalidLength,
    LengthMismatch,
    ModulusMismatch,
    ModulusTooSmall,
    VerificationFailed,
)
from exactntt.transform import (
    ResidueSequence,
    TransformPlan,
    build_plan,
    forward_direct,
    forward_fast,
    inverse_direct,
    inverse_fast,
    shift_mul,
)


def reference_forward(values, m, n):
    """Independent oracle: the defining sum with library-free arithmetic."""
    s = modular.multiplicative_order(2, m) // n
    return [
        sum(v * pow(2, s * (u * t % n), m) for t, v in enumerate(values)) % m
        for u in range(n)
    ]


def random_sequence(n, m, seed):
    rnd = random.Random(seed)
    return ResidueSequence(tuple(rnd.randrange(m) for _ in range(n)), m)


# -- plan construction ------------------------------------------------------


def test_plan_for_table_prime():
    plan = build_plan(64, registry.find_modulus(641))
    assert plan.root == 2  # full-length transform uses the bare root 2
    assert plan.root_step == 1
    assert plan.twiddles[0] == 1
    assert len(set(plan.twiddles)) == 64
    assert 64 * plan.n_inverse % 641 == 1


def test_plan_length_must_divide_order():
    with pytest.raises(InvalidLength):
        build_plan(128, registry.find_modulus(641))
    with pytest.raises(InvalidLength):
        build_plan(3, registry.find_modulus(641))
    with pytest.raises(InvalidLength):
        build_plan(0, 641)


def test_plan_small_fermat_prime():
    plan = build_plan(4, 5)
    assert plan.twiddles.tolist() == [1, 2, 4, 3]


def test_plan_submaximal_length_uses_root_power():
    plan = build_plan(16, registry.find_modulus(641))
    assert plan.root_step == 4
    assert plan.root == 16
    assert plan.twiddles[1] == pow(2, 4, 641)


def test_plan_length_one():
    plan = build_plan(1, 641)
    assert plan.twiddles.tolist() == [1]
    assert plan.n_inverse == 1
    x = ResidueSequence((7,), 641)
    assert forward_fast(x, plan).values == (7,)
    assert inverse_direct(x, plan).values == (7,)


def test_plan_tables_are_read_only_int64_arrays():
    plan = build_plan(16, 641)
    assert plan.twiddles.dtype == np.int64
    with pytest.raises(ValueError):
        plan.twiddles[0] = 5
    with pytest.raises(FrozenInstanceError):
        plan.twiddles = np.ones(16, dtype=np.int64)


def test_derived_fields_cannot_be_replaced():
    # a forged n_inverse made inverse_fast of the transform of 1..8
    # return (40, 80, ..., 320), with no error
    plan = build_plan(8, 641)
    for name, value in (("n_inverse", 5), ("twiddles", plan.twiddles), ("radix_tables", None)):
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            replace(plan, **{name: value})
    with pytest.raises(TypeError):
        TransformPlan(8, 641, 80, "mul", 561)


@pytest.mark.parametrize(
    "forge",
    [
        lambda plan: TransformPlan(plan.length, plan.modulus, plan.root_step, plan.kernel),
        lambda plan: replace(plan, kernel="shift"),
        lambda plan: replace(plan, root_step=2 * plan.root_step),
    ],
    ids=["hand-built", "replaced-kernel", "replaced-root-step"],
)
@pytest.mark.parametrize("fn", [forward_fast, inverse_fast, forward_direct, inverse_direct])
def test_transforms_take_only_built_plans(forge, fn):
    plan = build_plan(8, 641)
    forged = forge(plan)
    assert forged.twiddles is None and forged.n_inverse is None and forged.radix_tables is None
    with pytest.raises(BadInput, match="only plans that build_plan made"):
        fn(ResidueSequence(range(1, 9), 641), forged)


def test_equal_builds_give_equal_plans():
    a, b = build_plan(64, 641), build_plan(64, registry.find_modulus(641))
    assert a == b and hash(a) == hash(b)
    assert a != build_plan(64, 641, kernel="shift")
    assert a != build_plan(32, 641)


def test_plan_retains_only_its_tables():
    # the twiddles are 0.5 MiB at 2^16 and the plan holds nothing else;
    # a fast round trip must not leave more behind in the plan
    n, m = 1 << 16, 13631489
    x = ResidueSequence(np.arange(n) % m, m)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        plan = build_plan(n, m)
        inverse_fast(forward_fast(x, plan), plan)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert plan.length == n
    assert retained <= 0.75 * 2**20, f"{retained / 2**20:.2f} MiB retained"


def test_plan_rejects_composites_and_bad_kernels():
    with pytest.raises(BadInput):
        build_plan(10, 341)  # composite: spectra need not be invertible
    with pytest.raises(BadInput):
        build_plan(2, 9)
    with pytest.raises(ModulusTooSmall, match="odd prime >= 3"):
        build_plan(1, 2)
    with pytest.raises(BadInput):
        build_plan(4, 5, kernel="simd")
    # a composite smuggled inside a hand-built descriptor is still caught
    with pytest.raises(BadInput):
        build_plan(10, registry.RaderModulus(341, 0, 10))
    with pytest.raises(BadInput):
        build_plan(2, registry.RaderModulus(2**31 + 11, 0, 2))


def test_plan_rejects_inconsistent_claims():
    # a fabricated n_max double the true order trips the cycle check
    fake = registry.RaderModulus(641, 5, 128)
    with pytest.raises((VerificationFailed, InvalidLength)):
        build_plan(128, fake)


def test_plan_rejects_a_root_that_does_not_return_to_one():
    # half the true order 64: 2 has no smaller order, but 2^32 == -1 mod 641
    with pytest.raises(VerificationFailed, match="does not return to 1") as info:
        build_plan(32, registry.RaderModulus(641, 5, 32))
    assert info.value.clause == "order"


def test_plan_orthogonality_sums():
    for n, m in ((3, 7), (4, 5), (64, 641), (16, 2424833)):
        plan = build_plan(n, m)
        for k in range(n):
            total = sum(plan.twiddles[u * k % n] for u in range(n)) % plan.modulus
            assert total == (n if k == 0 else 0)


# -- residue sequences -------------------------------------------------------


def test_residue_sequence_validation():
    with pytest.raises(BadInput):
        ResidueSequence((5,), 5)
    with pytest.raises(BadInput):
        ResidueSequence((-1,), 5)
    seq = ResidueSequence.reduce([-1, 6, 12], 5)
    assert seq.values == (4, 1, 2)
    assert repr(seq) == "ResidueSequence(values=(4, 1, 2), modulus=5)"
    assert eval(repr(seq), {"ResidueSequence": ResidueSequence}) == seq


def test_input_mismatch_errors():
    plan = build_plan(4, 5)
    with pytest.raises(LengthMismatch):
        forward_direct(ResidueSequence((1, 2), 5), plan)
    with pytest.raises(ModulusMismatch):
        forward_direct(ResidueSequence((1, 2, 3, 4), 7), plan)


# -- direct path: frozen desk examples ----------------------------------------


def test_forward_direct_examples():
    p7 = build_plan(3, 7)
    assert forward_direct(ResidueSequence((1, 0, 0), 7), p7).values == (1, 1, 1)
    assert forward_direct(ResidueSequence((1, 1, 1), 7), p7).values == (3, 0, 0)
    p5 = build_plan(4, 5)
    assert forward_direct(ResidueSequence((1, 2, 3, 4), 5), p5).values == (0, 4, 3, 2)


def test_inverse_direct_examples():
    p7 = build_plan(3, 7)
    assert inverse_direct(ResidueSequence((1, 1, 1), 7), p7).values == (1, 0, 0)
    assert inverse_direct(ResidueSequence((3, 0, 0), 7), p7).values == (1, 1, 1)
    p5 = build_plan(4, 5)
    assert inverse_direct(ResidueSequence((0, 4, 3, 2), 5), p5).values == (1, 2, 3, 4)


@pytest.mark.parametrize(
    "n,m",
    [
        (3, 7), (4, 5), (2, 5), (12, 13), (64, 641), (32, 641), (16, 2424833),
        (128, 319489), (128, 13631489), (64, 825753601), (64, 1214251009),
        (12, 2013265921),
    ],
)
def test_forward_direct_matches_reference(n, m):
    for seed in range(3):
        x = random_sequence(n, m, seed)
        assert list(forward_direct(x, build_plan(n, m)).values) == reference_forward(
            x.values, m, n
        )


# -- round trips and fast path -------------------------------------------------


@pytest.mark.parametrize(
    "m,n",
    [
        (m, n)
        for m in (641, 2424833, 13631489)
        for n in (2, 4, 8, 16, 64, 256)
        if registry.find_modulus(m).admits_length(n)
    ],
)
def test_round_trip_both_paths(m, n):
    plan = build_plan(n, m)
    for seed in range(5):
        x = random_sequence(n, m, seed)
        assert inverse_direct(forward_direct(x, plan), plan) == x
        assert inverse_fast(forward_fast(x, plan), plan) == x


@pytest.mark.parametrize("n", [2, 4, 8, 32, 128, 512, 1024])
def test_fast_equals_direct(n):
    m = 641 if n <= 64 else 2424833
    plan = build_plan(n, m)
    for seed in range(5):
        x = random_sequence(n, m, seed)
        assert forward_fast(x, plan) == forward_direct(x, plan)
        X = random_sequence(n, m, seed + 100)
        assert inverse_fast(X, plan) == inverse_direct(X, plan)


# 2013265921 = 15 * 2**27 + 1 is a plain prime, not a Fermat factor:
# 2 has order 15 * 2**26, so odd lengths such as 3, 5 and 15 are admitted
PLAIN_PRIME = 2013265921


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 10, 12, 15, 16])
def test_plain_prime_direct_path(n):
    plan = build_plan(n, PLAIN_PRIME)
    for seed in range(3):
        x = random_sequence(n, PLAIN_PRIME, seed)
        assert forward_fast(x, plan) == forward_direct(x, plan)
        assert inverse_fast(x, plan) == inverse_direct(x, plan)
        assert inverse_direct(forward_direct(x, plan), plan) == x
    top = ResidueSequence([PLAIN_PRIME - 1] * n, PLAIN_PRIME)
    assert list(forward_direct(top, plan).values) == reference_forward(top.values, PLAIN_PRIME, n)


def test_fast_falls_back_for_non_power_of_two():
    plan = build_plan(3, 7)
    x = ResidueSequence((5, 1, 2), 7)
    assert forward_fast(x, plan) == forward_direct(x, plan)
    assert inverse_fast(forward_fast(x, plan), plan) == x


def test_transforms_do_not_mutate_input():
    plan = build_plan(8, 641)
    x = random_sequence(8, 641, 0)
    before = tuple(x.values)
    forward_fast(x, plan)
    forward_direct(x, plan)
    assert x.values == before


# -- floor-quotient reduction -------------------------------------------------


def _mod_without_warnings(values, m):
    """transform._mod on an int64 array, into a new array and in place,
    with every warning (integer overflow included) raised as an error."""
    a = np.array(values, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fresh = transform._mod(a, m)
        inplace = a.copy()
        returned = transform._mod(inplace, m, out=inplace)
    assert returned is inplace
    assert a.tolist() == list(values)  # input untouched without ``out``
    assert fresh.dtype == inplace.dtype == np.int64
    return fresh.tolist(), inplace.tolist()


@pytest.mark.parametrize("m", [3, 641, 13631489, 2013265921, 2**62 + 1])
def test_mod_equals_python_remainder_at_int64_edges(m):
    values = [-(2**63), -(2**63) + 1, -1, 0, 1, m - 1, m, 2**63 - 1]
    expected = [v % m for v in values]
    assert _mod_without_warnings(values, m) == (expected, expected)


@given(
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=32),
    st.integers(1, 2**63 - 1),
)
@settings(max_examples=300)
def test_mod_equals_python_remainder_on_random_int64(values, m):
    expected = [v % m for v in values]
    assert _mod_without_warnings(values, m) == (expected, expected)


def test_library_results_are_wrapped_read_only():
    plan = build_plan(8, 641)
    x = random_sequence(8, 641, 1)
    for fn in (forward_fast, inverse_fast, forward_direct, inverse_direct):
        out = fn(x, plan)
        assert out == ResidueSequence(out.values, 641)
        assert not np.asarray(out).flags.writeable
    source = np.array([-1, 641, 2**62], dtype=np.int64)
    seq = ResidueSequence.reduce(source, 641)
    assert seq.values == tuple(v % 641 for v in source.tolist())
    assert not np.asarray(seq).flags.writeable and source.flags.writeable
    arr = np.array([1, 2], dtype=np.int64)
    assert np.asarray(ResidueSequence._wrap(arr, 5)) is arr  # no copy
    assert not arr.flags.writeable


def test_array_conversion_keeps_the_copy_contract():
    arr = np.array([1, 2, 3], dtype=np.int64)
    seq = ResidueSequence._wrap(arr, 7)
    # same dtype: a view unless a copy is asked for
    assert np.asarray(seq, copy=False) is arr
    assert np.asarray(seq, dtype=np.int64, copy=False) is arr
    copied = np.array(seq, copy=True)
    assert copied is not arr and copied.flags.writeable
    # a dtype change needs a copy: allowed by default, refused under copy=False
    as_float = np.asarray(seq, dtype=np.float64)
    assert as_float.dtype == np.float64 and as_float.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="needs a copy"):
        np.asarray(seq, dtype=np.float64, copy=False)


@given(st.integers(0, 640), st.integers(0, 640), st.integers(0, 640), st.integers(0, 640))
@settings(max_examples=25, deadline=None)
def test_linearity(a, b, seed1, seed2):
    n, m = 16, 641
    plan = build_plan(n, m)
    x = random_sequence(n, m, seed1)
    y = random_sequence(n, m, seed2)
    combo = ResidueSequence(
        tuple((a * xi + b * yi) % m for xi, yi in zip(x, y)), m
    )
    fx = forward_direct(x, plan)
    fy = forward_direct(y, plan)
    expected = tuple((a * u + b * v) % m for u, v in zip(fx, fy))
    assert forward_direct(combo, plan).values == expected


# -- shift kernel ----------------------------------------------------------------


def test_shift_mul_examples():
    assert shift_mul(3, 1, 7) == 6
    assert shift_mul(5, 3, 7) == 5
    assert shift_mul(4, 0, 9) == 4


def test_shift_mul_rejects_a_negative_shift():
    with pytest.raises(BadInput, match="negative shift"):
        shift_mul(3, -1, 7)


def test_shift_mul_full_cycle_is_identity():
    m = registry.find_modulus(641)
    for x in (0, 1, 17, 640):
        assert shift_mul(x, m.n_max, m.prime) == x


@given(st.integers(0, 640), st.integers(0, 130))
@settings(max_examples=200)
def test_shift_mul_matches_multiply(x, alpha):
    assert shift_mul(x, alpha, 641) == x * pow(2, alpha, 641) % 641


@given(st.integers(0, 2424832), st.integers(0, 300))
@settings(max_examples=100)
def test_shift_mul_matches_multiply_wide_modulus(x, alpha):
    assert shift_mul(x, alpha, 2424833) == x * pow(2, alpha, 2424833) % 2424833


def test_shift_kernel_bit_identical_to_mul_kernel():
    for n, m in ((4, 5), (3, 7), (8, 641), (64, 641)):
        pm = build_plan(n, m, kernel="mul")
        ps = build_plan(n, m, kernel="shift")
        for seed in range(3):
            x = random_sequence(n, m, seed)
            assert forward_direct(x, ps) == forward_direct(x, pm)
            assert forward_fast(x, ps) == forward_fast(x, pm)
            assert inverse_direct(x, ps) == inverse_direct(x, pm)
            assert inverse_fast(x, ps) == inverse_fast(x, pm)


@pytest.mark.parametrize(
    "m", [e.prime for e in registry.builtin_rader_primes()] + [1214251009, 825753601]
)
@pytest.mark.parametrize("n", [2, 64])
def test_normalize_shift_scales_by_n_inverse(m, n):
    plan = build_plan(n, m, kernel="shift")
    rnd = random.Random(m + n)
    values = [0, 1, m - 1] + [rnd.randrange(m) for _ in range(20)]
    scaled = transform._scale_inverse(np.array(values, dtype=np.int64), plan)
    assert scaled.tolist() == [v * plan.n_inverse % m for v in values]


def test_shift_plan_refuses_shifts_wider_than_2_18():
    # root_step * (N/2 - 1) bits: root_step = 15 * 2**24 mod 2013265921 at N = 4
    with pytest.raises(BadInput, match="251658240 bits"):
        build_plan(4, PLAIN_PRIME, kernel="shift")
    # the widest shift a registry prime needs, 2**18 - 1 bits, is admitted
    plan = build_plan(1 << 19, 13631489, kernel="shift")
    assert plan.root_step * ((1 << 18) - 1) <= transform.MAX_SHIFT_BITS
    build_plan(1 << 19, 13631489, kernel="mul")  # no width rule under "mul"
    build_plan(4, PLAIN_PRIME, kernel="mul")


def test_shift_kernel_round_trip():
    plan = build_plan(16, 641, kernel="shift")
    x = random_sequence(16, 641, 3)
    assert inverse_fast(forward_fast(x, plan), plan) == x


# -- the blocked Horner direct path ------------------------------------------------


def test_direct_path_never_calls_the_shift_kernel(monkeypatch):
    # the reference shares no kernel code with the fast route it checks
    plan = build_plan(64, 641, kernel="shift")
    mul = build_plan(64, 641)
    x = random_sequence(64, 641, 5)

    def refuse(*args):
        raise AssertionError("shift kernel called")

    monkeypatch.setattr(transform, "_shift_mul_array", refuse)
    assert forward_direct(x, plan) == forward_direct(x, mul)
    assert inverse_direct(x, plan) == inverse_direct(x, mul)
    for fast in (forward_fast, inverse_fast):
        with pytest.raises(AssertionError, match="shift kernel called"):
            fast(x, plan)



def test_direct_streaming_path_matches_fast():
    m = registry.find_modulus(13631489)
    n = 8192
    plan = build_plan(n, m)
    x = random_sequence(n, m.prime, 0)
    assert forward_direct(x, plan) == forward_fast(x, plan)


@pytest.mark.parametrize(
    "m,n,block",
    [
        (641, 64, 64), (2424833, 1024, 64), (319489, 4096, 64), (13631489, 8192, 64),
        (825753601, 1024, 8), (1214251009, 1024, 4), (PLAIN_PRIME, 16, 1),
        (13, 12, 4), (13, 6, 2), (7, 3, 1),
    ],
)
def test_direct_block_size(m, n, block):
    # the largest power of two up to 64 dividing N with B + 1 <= _headroom(m)
    h = transform._headroom(m)
    assert transform._direct_block(n, m) == block
    assert (block + 1) * m * (m - 1) < 2**63 and block + 1 <= h
    assert block == 64 or n % (2 * block) or 2 * block + 1 > h


def test_first_direct_round_trip_keeps_no_dense_matrix():
    # the direct path holds O(N * 64) entries, not an N x N matrix (128 MiB here)
    code = """
import resource
from exactntt.transform import ResidueSequence, build_plan, forward_direct, inverse_direct
plan = build_plan(4096, 13631489)
x = ResidueSequence(range(4096), 13631489)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert inverse_direct(forward_direct(x, plan), plan) == x
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    grown_kib = int(proc.stdout)
    assert grown_kib < 32 * 1024, f"max RSS grew by {grown_kib / 1024:.1f} MiB"


# -- the Stockham loop ----------------------------------------------------------

# the registry primes, and the two primes near 2**30 whose (m-1)**2 is too
# wide for the float rule, so they take only radix-2 stages
RADIX_PRIMES = [e.prime for e in registry.builtin_rader_primes()] + [1214251009, 825753601]


def radix2(plan, with_tables):
    """The same plan split into log2 N radix-2 stages.  Their add and
    subtract joins share no matmul with the float64 joins of r > 2."""
    k = plan.length.bit_length() - 1
    return with_tables(plan, transform._radix_tables(plan.twiddles, (2,) * k, plan.modulus))


@pytest.mark.parametrize("m", RADIX_PRIMES)
def test_radix_equals_stockham_and_direct(m, with_tables):
    order = modular.multiplicative_order(2, m)
    for n in (1 << k for k in range(1, 13)):
        if order % n:
            continue
        plan = build_plan(n, m)
        assert [t.shape[0] for t in plan.radix_tables] == list(transform._radices(n, m, "mul"))
        split = radix2(plan, with_tables)
        # all m-1 is the largest sum each matrix product can meet
        for x in (random_sequence(n, m, n), ResidueSequence([m - 1] * n, m)):
            assert forward_fast(x, plan) == forward_fast(x, split) == forward_direct(x, plan)
            assert inverse_fast(x, plan) == inverse_fast(x, split) == inverse_direct(x, plan)


@pytest.mark.long
def test_radix_equals_stockham_at_2_19(with_tables):
    # four stages (32, 32, 32, 16); two of them transpose a 3-D view
    n, m = 1 << 19, 13631489
    plan = build_plan(n, m)
    assert [table.shape[0] for table in plan.radix_tables] == [32, 32, 32, 16]
    split = radix2(plan, with_tables)
    for x in (random_sequence(n, m, 19), ResidueSequence([m - 1] * n, m)):
        spectrum = forward_fast(x, plan)
        assert spectrum == forward_fast(x, split)
        assert inverse_fast(spectrum, plan) == inverse_fast(spectrum, split) == x


# SHA-256 of the little-endian int64 outputs of forward_fast and
# inverse_fast mod 13631489 on random_sequence(N, m, log2 N) and on all
# m - 1, computed before the radix-2 and mixed-radix loops became one:
# they pin the outputs at lengths where the direct route cannot check them
PINNED = {
    (16, "random", "forward_fast"): "9dba546c49842eb603557490a33a5491fcc1a516a57cff29f8e47b6ae55eea50",
    (16, "random", "inverse_fast"): "a1a149c3b85f53299561b684eb924e0085c259fc4652c7799a7c6865edcfdcfb",
    (16, "top", "forward_fast"): "9da6307e2e53ef205ff79675da8b76666143113b845163fe2cf1e05036788973",
    (16, "top", "inverse_fast"): "61034fabb13335c3bed63df309cd852778b02b40a173c9b5b5ca0ef68d55b617",
    (19, "random", "forward_fast"): "0a67931ead3dbb74f2231bbe6d46c9cc472ff9b6f3c208c829fee7c1fc4e3f2d",
    (19, "random", "inverse_fast"): "e4fba6f00da84f2dba563ecf824be8c30c643f76d728e021675a308a2e69dfe2",
    (19, "top", "forward_fast"): "2041d3ff1ef202cd8281b228991b8b335aee4df5e1fd60e29cb60d0f91e92e3d",
    (19, "top", "inverse_fast"): "1d83fd1f1e3a2845cc52ddbbda113d7549f750b7cbfe264d0716694ef82fe7d4",
}


def fast_digests(k):
    n, m = 1 << k, 13631489
    plan = build_plan(n, m)
    inputs = {"random": random_sequence(n, m, k), "top": ResidueSequence([m - 1] * n, m)}
    return {
        (k, name, fn.__name__): hashlib.sha256(np.asarray(fn(x, plan)).astype("<i8").tobytes()).hexdigest()
        for name, x in inputs.items()
        for fn in (forward_fast, inverse_fast)
    }


def test_fast_outputs_are_pinned_at_2_16():
    assert fast_digests(16) == {key: d for key, d in PINNED.items() if key[0] == 16}


@pytest.mark.long
def test_fast_outputs_are_pinned_at_2_19():
    assert fast_digests(19) == {key: d for key, d in PINNED.items() if key[0] == 19}


@pytest.mark.parametrize(
    "n,m,kernel,radices",
    [
        (1, 641, "mul", None), (2, 641, "mul", (2,)), (64, 641, "mul", (64,)),
        (512, 2424833, "mul", (32, 16)), (1024, 13631489, "mul", (32, 32)),
        (1024, 13631489, "shift", None), (64, 641, "shift", None),
        (2048, 13631489, "mul", (64, 32)), (4096, 319489, "mul", (64, 64)),
        (16, 1214251009, "mul", None), (32, 1214251009, "mul", None),
        (64, 825753601, "mul", None), (128, 825753601, "mul", None),
        (12, 13, "mul", None), (4, PLAIN_PRIME, "mul", None), (8, PLAIN_PRIME, "mul", None),
        (8, 17, "mul", (8,)), (1 << 16, 13631489, "mul", (64, 32, 32)),
        (1 << 19, 13631489, "mul", (32, 32, 32, 16)),
    ],
)
def test_radices(n, m, kernel, radices):
    # a power of two N > 1: "mul" on a prime whose float64 rule admits
    # r >= 4 takes as few stages of at most min(64, _float_headroom(m)) as
    # it takes, as even as they can be.  None marks a plan with no matmul
    # stage: log2 N radix-2 stages at a power of two N > 1 ("shift", and
    # the primes the float rule refuses), else the direct route
    if radices is None and n > 1 and modular.is_power_of_two(n):
        radices = (2,) * (n.bit_length() - 1)
    assert transform._radices(n, m, kernel) == radices
    plan = build_plan(n, m, kernel)
    if radices is None:
        assert plan.radix_tables is None
        return
    assert np.prod(radices) == n and max(radices) <= 2 * min(radices)
    assert all(
        r <= transform.MAX_RADIX and (r == 2 or r * ((m - 1) // 2) * (m - 1) < 2**53)
        for r in radices
    )
    assert [table.shape for table in plan.radix_tables] == [(r, r) for r in radices]


def test_dense_tables_are_read_only_and_outside_equality():
    # the Stockham loop's dense r x r DFT tables, one per stage
    n, m = 1 << 16, 13631489
    plan = build_plan(n, m)
    tables = plan.radix_tables
    # stages of one radix share one table
    assert [table.shape[0] for table in tables] == [64, 32, 32] and tables[1] is tables[2]
    w = plan.twiddles
    d = int(w[n // 64 * 15])
    assert tables[0][3, 5] == (d if d <= m // 2 else d - m)
    for table in tables:
        assert table.dtype == np.float64 and np.abs(table).max() <= (m - 1) // 2
        with pytest.raises(ValueError):
            table[0, 0] = 5
    rebuilt = TransformPlan(plan.length, plan.modulus, plan.root_step, plan.kernel)
    assert plan == rebuilt and hash(plan) == hash(rebuilt) and "radix_tables" not in repr(plan)


@pytest.mark.parametrize("split", [(128, 2), (2, 128), (4, 2, 2, 16)])
def test_dense_bound_is_asserted_when_the_rule_is_bypassed(monkeypatch, split):
    # a split of log2 N into stage radices that bypasses _radices: the float
    # rule on each dense r x r table product is asserted in _radix_tables;
    # the last split puts radix-2 joins between matmul stages
    monkeypatch.setattr(transform, "_radices", lambda n, m, kernel: split)
    # 13631489 admits r <= 96: _float_headroom(13631489) == 96
    if max(split) > 96:
        with pytest.raises(AssertionError, match="Stockham stage overflows float64 mod 13631489"):
            build_plan(256, 13631489)
    # radices the rule would not pick are still exact where the bound holds
    plan = build_plan(256, 319489)
    assert [table.shape[0] for table in plan.radix_tables] == list(split)
    for x in (random_sequence(256, 319489, 1), ResidueSequence([319488] * 256, 319489)):
        assert forward_fast(x, plan) == forward_direct(x, plan)
        assert inverse_fast(x, plan) == inverse_direct(x, plan)


# -- one int64 headroom rule ----------------------------------------------------

# the primes above, two just below 2**31, and small primes whose orders
# admit lengths that are not powers of two
HEADROOM_PRIMES = RADIX_PRIMES + [2013265921, 2**31 - 1, 7, 13, 17]


@pytest.mark.parametrize("m", HEADROOM_PRIMES)
def test_headroom_is_the_most_products_one_int64_sum_holds(m):
    h = transform._headroom(m)
    assert h >= 2 and h * m * (m - 1) < 2**63 <= (h + 1) * m * (m - 1)


@pytest.mark.parametrize("m", HEADROOM_PRIMES)
def test_float_headroom_is_the_most_products_one_float64_sum_holds(m):
    f, half = transform._float_headroom(m), (m - 1) // 2
    assert f * half * (m - 1) < 2**53 <= (f + 1) * half * (m - 1)


def test_headroom_of_the_widest_primes():
    widest = (1214251009, 825753601, 2013265921, 2**31 - 1)
    assert [transform._headroom(m) for m in widest] == [6, 13, 2, 2]


@pytest.mark.parametrize("m", RADIX_PRIMES)
def test_every_admitted_plan_follows_the_headroom_rule(m):
    h, f = transform._headroom(m), transform._float_headroom(m)
    order = modular.multiplicative_order(2, m)
    for k in range(order.bit_length()):
        n = 1 << k
        plan = build_plan(n, m)
        assert transform._direct_block(n, m) + 1 <= h
        for kernel in transform.KERNELS:
            radices = transform._radices(n, m, kernel) or ()
            assert all(r == 2 or r <= f for r in radices)
        assert (plan.radix_tables is None) == (k == 0)
        if plan.radix_tables is not None:
            assert all(r == 2 or r <= f for r in (t.shape[0] for t in plan.radix_tables))
