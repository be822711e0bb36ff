"""Exact integer circular convolution via number-theoretic transforms.

Transform moduli are prime factors of Fermat numbers, which make 2 a
root of unity of power-of-two order, so twiddle products reduce to bit
shifts and every result is exact.  A truncation-arithmetic variant works
modulo 2**alpha with no modulo operations at all.
"""

from . import errors
from .convolution import (
    BigDigits,
    bigint_multiply,
    convolve_crt,
    convolve_direct,
    convolve_ntt,
    deconvolve,
    recovery_bound,
    schoolbook_multiply,
    select_moduli,
)
from .dyadic import (
    DyadicPlan,
    build_dyadic_plan,
    dyadic_convolve,
    dyadic_forward,
    dyadic_inverse,
    verify_carmichael_dyadic,
)
from .modular import (
    carmichael_lambda,
    crt_combine,
    ext_gcd,
    mod_inverse,
    mod_pow,
    mod_reduce,
    multiplicative_order,
    totient,
)
from .registry import (
    RaderModulus,
    builtin_rader_primes,
    fermat_number,
    load_registry,
    mersenne_factor_table,
    rader_number,
    verify_fermat_factor,
    verify_fermat_product_identity,
)
from .transform import (
    ResidueSequence,
    TransformPlan,
    build_plan,
    forward_direct,
    forward_fast,
    inverse_direct,
    inverse_fast,
    shift_mul,
)

__version__ = "0.1.0"

__all__ = [
    "BigDigits",
    "DyadicPlan",
    "RaderModulus",
    "ResidueSequence",
    "TransformPlan",
    "bigint_multiply",
    "build_dyadic_plan",
    "build_plan",
    "builtin_rader_primes",
    "carmichael_lambda",
    "convolve_crt",
    "convolve_direct",
    "convolve_ntt",
    "crt_combine",
    "deconvolve",
    "dyadic_convolve",
    "dyadic_forward",
    "dyadic_inverse",
    "errors",
    "ext_gcd",
    "fermat_number",
    "forward_direct",
    "forward_fast",
    "inverse_direct",
    "inverse_fast",
    "load_registry",
    "mersenne_factor_table",
    "mod_inverse",
    "mod_pow",
    "mod_reduce",
    "multiplicative_order",
    "rader_number",
    "recovery_bound",
    "schoolbook_multiply",
    "select_moduli",
    "shift_mul",
    "totient",
    "verify_carmichael_dyadic",
    "verify_fermat_factor",
    "verify_fermat_product_identity",
]
