import hashlib
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactntt.convolution import convolve_direct
from exactntt.dyadic import (
    DyadicPlan,
    build_dyadic_plan,
    dyadic_convolve,
    dyadic_forward,
    dyadic_inverse,
    verify_carmichael_dyadic,
)
from exactntt.errors import (
    BadInput,
    HeadroomViolation,
    InputOutOfRange,
    LengthMismatch,
    NormalizationWrap,
)


def reference_forward_mod(x, root, alpha):
    """Oracle with explicit modulo arithmetic instead of truncation."""
    n = len(x)
    m = 1 << alpha
    return [
        sum(x[t] * pow(root, u * t, m) for t in range(n)) % m for u in range(n)
    ]


def orthogonality_oracle(root, n, alpha):
    """Direct check of the validator's verdict: order and power sums."""
    m = 1 << alpha
    powers = [pow(root, j, m) for j in range(n)]
    if pow(root, n, m) != 1:
        return False
    if any(powers[j] == 1 for j in range(1, n)):
        return False
    return all(
        sum(powers[u * k % n] for u in range(n)) % m == 0 for k in range(1, n)
    )


def witness_oracle(root, n, alpha):
    """First (k, sum) with a nonzero off-axis power sum mod 2**alpha, else None.

    Every power comes from pow(); the sums are taken mod 2**alpha at the end.
    """
    m = 1 << alpha
    for k in range(1, n):
        total = sum(pow(root, u * k, m) for u in range(n)) % m
        if total:
            return k, total
    return None


# -- the power-of-two congruence ------------------------------------------------


def test_carmichael_dyadic_examples():
    assert verify_carmichael_dyadic(3, 4)  # 3^4 == 81 == 1 (mod 16)
    assert pow(3, 4, 16) == 1
    assert verify_carmichael_dyadic(1, 10)


def test_carmichael_dyadic_rejects_bad_input():
    with pytest.raises(BadInput):
        verify_carmichael_dyadic(4, 5)
    with pytest.raises(BadInput):
        verify_carmichael_dyadic(3, 2)


def test_carmichael_dyadic_exhaustive_small_widths():
    for alpha in range(3, 13):
        for a in range(1, 1 << alpha, 2):
            assert verify_carmichael_dyadic(a, alpha)


@given(st.integers(1, 2**24), st.integers(3, 24))
@settings(max_examples=200)
def test_carmichael_dyadic_random(a, alpha):
    assert verify_carmichael_dyadic(2 * a - 1, alpha)


# -- plan validation ---------------------------------------------------------------


def test_plan_negation_root_validates():
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    assert plan.validated and plan.reason is None and plan.witness is None
    assert plan.root_powers == (1, 65535)


def test_plan_rejects_root_three_length_four():
    plan = build_dyadic_plan(4, 4, 0, 3)
    assert not plan.validated
    assert plan.witness == (1, 8)  # 1 + 3 + 9 + 11 == 24 == 8 (mod 16)
    assert plan.root_powers == (1, 3, 9, 11)


def test_plan_headroom_violation():
    with pytest.raises(HeadroomViolation):
        build_dyadic_plan(2, 5, 4, 31)


def test_plan_rejects_wrong_order():
    # root 1 has order 1, not the requested 2
    plan = build_dyadic_plan(2, 16, 4, 1)
    assert not plan.validated
    assert "order" in plan.reason


def test_plan_bad_inputs():
    with pytest.raises(BadInput):
        build_dyadic_plan(2, 2, 0, 3)  # alpha < 3
    with pytest.raises(BadInput):
        build_dyadic_plan(2, 16, 4, 6)  # even root
    with pytest.raises(BadInput):
        build_dyadic_plan(0, 16, 4, 3)
    with pytest.raises(BadInput, match="bit depth"):
        build_dyadic_plan(2, 16, -1, 3)


def test_validator_matches_orthogonality_oracle():
    # the verdict of every plan, and the witness (k, sum) of every plan
    # rejected by a power sum; order failures carry no witness
    witnesses = 0
    for alpha in range(3, 13):
        m = 1 << alpha
        for n in range(1, 9):
            for a in range(1, 64, 2):  # a root past 2**alpha is truncated
                if alpha < n:  # headroom forbids the plan outright
                    continue
                plan = build_dyadic_plan(n, alpha, 0, a)
                assert plan.validated == orthogonality_oracle(a, n, alpha), (a, n, alpha)
                exact_order = pow(a, n, m) == 1 and all(pow(a, j, m) != 1 for j in range(1, n))
                want = witness_oracle(a, n, alpha) if exact_order else None
                assert plan.witness == want, (a, n, alpha)
                if want:
                    k, total = want
                    assert plan.reason == f"orthogonality fails at k={k}: sum == {total} != 0"
                    witnesses += 1
    assert witnesses == 65


def test_exact_order_4096_is_rejected_in_closed_form():
    # 1 + 2**4092 has exact order 2**12 mod 2**4104: the witness is the
    # power sum at k = 1, taken here term by term
    n, alpha, root = 1 << 12, 4104, 1 + 2**4092
    plan = build_dyadic_plan(n, alpha, 8, root)
    m = 1 << alpha
    s1 = sum(pow(root, u, m) for u in range(n)) % m
    assert not plan.validated and plan.witness == (1, s1) and s1
    assert plan.reason.startswith("orthogonality fails at k=1: sum == ")


def test_plans_hold_no_power_table():
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    assert "root_powers" not in vars(plan)
    assert plan.root_powers == (1, 65535)
    with pytest.raises(TypeError):
        DyadicPlan(16, 2, 2**16 - 1, 4, None, None, (1, 65535))


NEGATION = build_dyadic_plan(2, 16, 4, 2**16 - 1)


@pytest.mark.parametrize(
    "forged",
    [
        # root 3 has order 2**14, not 4, mod 2**16: dyadic_convolve([1, 0, 0, 0],
        # [0, 1, 0, 0]) once returned [10, 61, 70, 205] through this plan
        DyadicPlan(16, 4, 3, 2, None, None),
        DyadicPlan(16, 1, 3, 2, None, None),
        DyadicPlan(2, 2, 3, 0, None, None),
        replace(NEGATION, root=2**15 + 1),
        replace(NEGATION, data_bits=15),
        replace(NEGATION, data_bits=-1),
        replace(NEGATION, alpha=17),
    ],
    ids=["order-4", "length-1-root-3", "alpha-2", "root-2^15+1", "no-headroom", "negative-bits", "alpha-17"],
)
def test_forged_plans_are_refused_by_transforms(forged):
    n = forged.length
    assert not forged.validated
    for call in (
        lambda: dyadic_forward([0] * n, forged),
        lambda: dyadic_inverse([0] * n, forged),
        lambda: dyadic_convolve([1] + [0] * (n - 1), [0] * n, forged),
    ):
        with pytest.raises(BadInput, match="^plan was not validated: ") as info:
            call()
        assert "None" not in str(info.value)


def test_length_one_plan_is_identity():
    plan = build_dyadic_plan(1, 8, 4, 1)
    assert plan.validated
    assert dyadic_forward([9], plan) == [9]
    assert dyadic_inverse([9], plan) == [9]


# -- transforms ------------------------------------------------------------------------


def test_forward_examples():
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    assert dyadic_forward([3, 1], plan) == [4, 2]
    assert dyadic_forward([7, 7], plan) == [14, 0]  # symmetric input kills the -1 bin
    assert dyadic_forward([0, 0], plan) == [0, 0]


def test_inverse_examples():
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    assert dyadic_inverse([4, 2], plan) == [3, 1]


def test_round_trip_random():
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    rnd = random.Random(0)
    for _ in range(200):
        x = [rnd.randrange(16), rnd.randrange(16)]
        assert dyadic_inverse(dyadic_forward(x, plan), plan) == x


def test_round_trip_wider_words():
    for alpha in (8, 16, 24, 32, 64):
        beta = alpha - 2
        plan = build_dyadic_plan(2, alpha, beta, (1 << alpha) - 1)
        assert plan.validated
        rnd = random.Random(alpha)
        for _ in range(50):
            x = [rnd.randrange(1 << beta) for _ in range(2)]
            assert dyadic_inverse(dyadic_forward(x, plan), plan) == x


def test_normalization_wrap_detected():
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    with pytest.raises(NormalizationWrap):
        dyadic_inverse([1, 0], plan)  # odd unnormalized sum


def test_input_range_enforced():
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    with pytest.raises(InputOutOfRange):
        dyadic_forward([16, 0], plan)
    with pytest.raises(InputOutOfRange):
        dyadic_forward([-1, 0], plan)
    with pytest.raises(LengthMismatch):
        dyadic_forward([1, 2, 3], plan)
    with pytest.raises(InputOutOfRange):
        dyadic_inverse([1 << 16, 0], plan)
    with pytest.raises(LengthMismatch):
        dyadic_inverse([1, 2, 3], plan)


def test_rejected_plan_refused_by_transforms():
    plan = build_dyadic_plan(4, 4, 0, 3)
    with pytest.raises(BadInput):
        dyadic_forward([0, 0, 0, 0], plan)
    with pytest.raises(BadInput):
        dyadic_inverse([0, 0, 0, 0], plan)
    with pytest.raises(BadInput):
        dyadic_convolve([0] * 4, [0] * 4, plan)


# -- convolution -----------------------------------------------------------------------


def test_convolve_example():
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    assert dyadic_convolve([3, 1], [2, 5], plan) == [11, 17]
    assert convolve_direct([3, 1], [2, 5]) == [11, 17]


def test_convolve_delta():
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    assert dyadic_convolve([1, 0], [9, 4], plan) == [9, 4]


def test_convolve_matches_direct_oracle():
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    rnd = random.Random(1)
    for _ in range(200):
        f = [rnd.randrange(16), rnd.randrange(16)]
        g = [rnd.randrange(16), rnd.randrange(16)]
        assert dyadic_convolve(f, g, plan) == convolve_direct(f, g)


def test_convolve_product_headroom():
    # inputs inside 2**beta but whose convolution would wrap alpha bits
    plan = build_dyadic_plan(2, 8, 6, 2**8 - 1)
    with pytest.raises(InputOutOfRange):
        dyadic_convolve([63, 63], [63, 63], plan)


# -- numbers past the int<->str digit cap ---------------------------------------------


def test_rejected_plan_past_the_digit_cap(digit_cap):
    # (2**19999 + 1)**2 == 1 mod 2**20000, and 1 + root is the off-axis sum
    plan = build_dyadic_plan(2, 20000, 0, 2**19999 + 1)
    assert not plan.validated
    assert plan.witness == (1, 2**19999 + 2)
    assert plan.reason == "orthogonality fails at k=1: sum == <20000-bit integer> != 0"


def test_forward_input_past_the_digit_cap(digit_cap):
    plan = build_dyadic_plan(2, 16, 4, 2**16 - 1)
    bits = (10**5000).bit_length()
    with pytest.raises(InputOutOfRange, match=rf"^value <{bits}-bit integer> outside \[0, 2\*\*4\)$"):
        dyadic_forward([10**5000, 0], plan)


def test_normalization_wrap_past_the_digit_cap(digit_cap):
    plan = build_dyadic_plan(2, 20000, 0, 2**20000 - 1)
    assert plan.validated
    with pytest.raises(
        NormalizationWrap,
        match=r"^unnormalized value <20000-bit integer> at t=0 is not divisible by 2$",
    ):
        dyadic_inverse([2**19999, 1], plan)


def test_convolution_headroom_past_the_digit_cap(digit_cap):
    plan = build_dyadic_plan(2, 20000, 19998, 2**20000 - 1)
    top = 2**19998 - 1
    bits = (4 * top * top).bit_length()
    with pytest.raises(InputOutOfRange, match=rf"N\^2\*Bf\*Bg = <{bits}-bit integer> > 2\*\*20000 - 1"):
        dyadic_convolve([top, 0], [top, 0], plan)


# -- truncation == modulo ---------------------------------------------------------------


def test_truncation_equals_explicit_modulo():
    for alpha in (8, 12, 16, 24):
        a = (1 << alpha) - 1
        plan = build_dyadic_plan(2, alpha, alpha - 4, a)
        rnd = random.Random(alpha)
        for _ in range(100):
            x = [rnd.randrange(1 << (alpha - 4)) for _ in range(2)]
            assert dyadic_forward(x, plan) == reference_forward_mod(x, a, alpha)


def test_search_script_documented_example():
    # the example in the script's docstring and the README
    script = Path(__file__).resolve().parents[1] / "scripts" / "dyadic_search.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--alpha", "6", "--max-root", "63", "--max-length", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    found = re.findall(r"^  a=\s*(\d+) N=(\d+)(  <- negation root)?$", proc.stdout, re.M)
    assert found == [("1", "1", ""), ("63", "2", "  <- negation root")]


def test_search_script_defaults_reach_the_negation_root():
    # with no arguments every odd root below 2**8 is tried, 255 included
    script = Path(__file__).resolve().parents[1] / "scripts" / "dyadic_search.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    found = re.findall(r"^  a=\s*(\d+) N=(\d+)(  <- negation root)?$", proc.stdout, re.M)
    assert found == [("1", "1", ""), ("255", "2", "  <- negation root")]


# SHA-256 of `dyadic_search.py --alpha a --max-length 16` stdout, taken
# while plans were still judged by building every power and summing
CENSUS = {
    3: "50b82cba3125428de5d99b49b791120923b43e928bf58285188ac6711113a525",
    4: "769457614ff848aa8ee4bf93bc2b3ee9fd54c8855eb74427d32874ac6d415a47",
    5: "3c0921f2af8a848da7d152b97ae818bfcd577bae88177711b33becfdac4bf46a",
    6: "7c1690c11627ef064c94666816874164f0f4af5008829c6d90f57508a6ce023e",
    7: "dcfad8874bef2a09d0abe07eb60ef2fb5ff0bf6ad196cbfb564d243de3b7098f",
    8: "63a00777d5d9d032ec3cfcfbefdcb23ea7f2bc7d6fb167e12d1c2a3221a868e7",
    9: "b2a384776bd926d3eef1111725f33f5585db70603ba2652b6e3978951cd6d4f5",
    10: "3b11eb11b85f5320a5358e2e4e4d15e4faaacc5a5d9b75154662716182620d56",
    11: "335a7719c675ea502d326fc85bd684bb4cfad7d111cdd88d207d85a5a6bdb2b4",
    12: "cf2cd1019c9472a43b6f05bbea30102f0450f7eeebafd0a7206cabcbaf761707",
}


def test_search_script_census_is_pinned():
    script = Path(__file__).resolve().parents[1] / "scripts" / "dyadic_search.py"
    digests = {}
    for alpha in CENSUS:
        proc = subprocess.run(
            [sys.executable, str(script), "--alpha", str(alpha), "--max-length", "16"],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests[alpha] = hashlib.sha256(proc.stdout).hexdigest()
    assert digests == CENSUS


def test_search_script_prints_its_census():
    script = Path(__file__).resolve().parents[1] / "scripts" / "dyadic_search.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--alpha", "4", "--max-length", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "alpha = 4: 2 validated, 30 rejected\n"
        "validated (root, length):\n"
        "  a=     1 N=1\n"
        "  a=    15 N=2  <- negation root\n"
        "sample rejection witnesses (k, sum mod 2^alpha):\n"
        "  a=     7 N=2: k=1 sum=8\n"
        "  a=     9 N=2: k=1 sum=10\n"
        "  a=     3 N=4: k=1 sum=8\n"
        "  a=     5 N=4: k=1 sum=12\n"
        "  a=    11 N=4: k=1 sum=8\n"
    )
