import copy
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


@pytest.fixture
def with_tables():
    """with_tables(plan, tables): a copy of a plan that build_plan made,
    whose fast transforms run the Stockham stage tables given instead of
    its own.  Plans take no tables as arguments, so this is the one way
    tests reach other stage splits."""

    def with_tables(plan, tables):
        out = copy.copy(plan)
        object.__setattr__(out, "radix_tables", tables)
        return out

    return with_tables
