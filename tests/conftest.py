import sys

import pytest


@pytest.fixture
def digit_cap():
    """sys.get_int_max_str_digits(), lowered to CPython's default 4300 if above it or off."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("interpreter has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(min(old or 4300, 4300))
    yield sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(old)
