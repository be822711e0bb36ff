"""The names the benchmark's tracer wraps in ``exactntt.convolution``.

A traced run replaces these module globals (and the classmethod
``ResidueSequence.reduce``) with timing wrappers, so a code path that
stops looking them up makes a layer read zero without any error.  These
tests put counting wrappers at the same names and check the calls.
"""

from collections import Counter

import pytest

from exactntt import convolution, registry
from exactntt.convolution import BigDigits

TRACED = ("forward_fast", "inverse_fast", "build_plan", "select_moduli", "convolve_crt")


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in TRACED:
        monkeypatch.setattr(convolution, name, counting(name, getattr(convolution, name)))
    reduce = counting("reduce", convolution.ResidueSequence.reduce)
    monkeypatch.setattr(convolution.ResidueSequence, "reduce", staticmethod(reduce))
    convolution._plan.cache_clear()
    yield counts
    convolution._plan.cache_clear()


def test_convolve_ntt_calls(calls):
    assert convolution.convolve_ntt([1, 2, 3, 4], [1, 0, 0, 0], 17) == [1, 2, 3, 4]
    assert calls == Counter(forward_fast=2, inverse_fast=1, reduce=2, build_plan=1)
    convolution.convolve_ntt([1, 2, 3, 4], [1, 0, 0, 0], 17)
    assert calls["build_plan"] == 1  # cached plan
    assert calls["forward_fast"] == 4


@pytest.mark.parametrize("k", [1, 2, 3])
def test_convolve_crt_calls_per_prime(calls, k):
    primes = [entry.prime for entry in registry.builtin_rader_primes()[:k]]
    f = [-2, 2, 1, 0] * 8  # 2 * 32 * 2 * 2 < 641: one prime suffices
    assert convolution.convolve_crt(f, f[::-1], primes) == convolution.convolve_direct(f, f[::-1])
    assert calls == Counter(
        convolve_crt=1, forward_fast=2 * k, inverse_fast=k, reduce=2 * k, build_plan=k
    )


def test_deconvolve_calls(calls):
    convolution.deconvolve([1, 2, 3, 4], [2, 1, 0, 0], 17)
    assert calls == Counter(forward_fast=2, inverse_fast=1, reduce=2, build_plan=1)


# The operand arrives as an int (bytes, base 256) or as decimal text (base
# 10); either way it is bytes by the time bigint_multiply sees it.
OPERAND = {256: lambda n: n, 10: lambda n: BigDigits.from_decimal(str(n))}


@pytest.mark.parametrize("base", [256, 10])
def test_bigint_multiply_calls_convolve_crt_once(calls, base):
    a = OPERAND[base](3**4000)
    product = convolution.bigint_multiply(a, a)
    assert product == 3**8000
    assert calls["select_moduli"] == 1
    assert calls["convolve_crt"] == 1
    k = calls["inverse_fast"]
    assert k >= 1
    assert calls["forward_fast"] == calls["reduce"] == 2 * k
