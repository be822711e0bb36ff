"""Transforms in truncation arithmetic: modulo 2**alpha with no modulo ops.

Arithmetic is kept exact by masking to alpha bits, which is what integer
overflow wrap-around does for free in fixed-width machine words.  There
is no multiplicative inverse of the length in this ring, so the inverse
transform divides by N with a right shift instead, which is only exact
when enough spare bits (headroom) keep unnormalized values from
wrapping.

Not every (root, length) pair yields an invertible transform here: plans
are therefore built through a mandatory orthogonality check and carry a
validated/rejected verdict with a concrete witness on rejection.
"""

from dataclasses import dataclass, replace

from . import modular
from .errors import (
    BadInput,
    HeadroomViolation,
    InputOutOfRange,
    LengthMismatch,
    NormalizationWrap,
    number_text,
)


def verify_carmichael_dyadic(a: int, alpha: int) -> bool:
    """Executable witness that a**(2**(alpha-2)) == 1 (mod 2**alpha).

    Holds for every odd a and alpha >= 3; this check exists so the
    property backing the whole module can be exercised directly.
    """
    a, alpha = modular._integer(a, "root"), modular._integer(alpha, "alpha")
    if alpha < 3:
        raise BadInput(f"need alpha >= 3, got {number_text(alpha)}")
    if a % 2 == 0:
        raise BadInput(f"root must be odd, got {number_text(a)}")
    return pow(a, 1 << (alpha - 2), 1 << alpha) == 1


@dataclass(frozen=True)
class DyadicPlan:
    """A (root, length) pair over 2**alpha words with a validation verdict.

    ``root_powers[j]`` is root**j truncated to alpha bits.  A plan is
    validated when it has no rejection ``reason``; transforms accept only
    those.  A rejected plan keeps the failing (k, sum) witness of an
    orthogonality failure in ``witness`` for inspection.
    """

    alpha: int
    length: int
    root: int
    data_bits: int
    reason: str | None
    witness: tuple[int, int] | None
    root_powers: tuple[int, ...]

    @property
    def validated(self) -> bool:
        return self.reason is None

    @property
    def mask(self) -> int:
        return (1 << self.alpha) - 1


def build_dyadic_plan(length: int, alpha: int, beta: int, root: int) -> DyadicPlan:
    """Construct a plan, validating order and orthogonality by brute force.

    Preconditions: alpha >= 3, root odd, and the headroom condition
    alpha >= beta + length (HeadroomViolation otherwise).  The plan
    comes back validated only if root has exact order ``length`` and
    every off-axis power sum vanishes: sum_u root**(u*k) == 0
    (mod 2**alpha) for 0 < k < length.  Those sums are the forward
    transform of the all-ones sequence, read at bins k >= 1.
    """
    length = modular._integer(length, "length")
    alpha = modular._integer(alpha, "alpha")
    beta = modular._integer(beta, "data bit depth")
    root = modular._integer(root, "root")
    if alpha < 3:
        raise BadInput(f"need alpha >= 3, got {number_text(alpha)}")
    if root % 2 == 0:
        raise BadInput(f"root must be odd, got {number_text(root)}")
    if length < 1:
        raise BadInput(f"length must be >= 1, got {number_text(length)}")
    if beta < 0:
        raise BadInput(f"data bit depth must be >= 0, got {number_text(beta)}")
    if alpha < beta + length:
        raise HeadroomViolation(
            f"alpha {number_text(alpha)} < data bits {number_text(beta)} + length "
            f"{number_text(length)}: shift normalization would be inexact"
        )
    mask = (1 << alpha) - 1
    root &= mask
    powers = [1]  # root**j up to the requested length or the first return to 1
    while len(powers) < length and (w := powers[-1] * root & mask) != 1:
        powers.append(w)
    plan = DyadicPlan(alpha, length, root, beta, None, None, tuple(powers))
    if len(powers) < length:
        return replace(plan, reason=f"root order {len(powers)} is below the requested length")
    if powers[-1] * root & mask != 1:
        return replace(plan, reason=f"root**{length} != 1 mod 2**{alpha}")
    # root has exact order length in (Z/2**alpha)^x, a group of order
    # 2**(alpha-1), so by Lagrange length is a power of two
    sums = _power_sums([1] * length, plan)
    for k in range(1, length):
        if sums[k]:
            reason = f"orthogonality fails at k={k}: sum == {number_text(sums[k])} != 0"
            return replace(plan, reason=reason, witness=(k, sums[k]))
    return plan


def _require_validated(plan: DyadicPlan) -> None:
    if not plan.validated:
        raise BadInput(f"plan was rejected: {plan.reason}")


def _in_range(x, plan: DyadicPlan, bits: int) -> list[int]:
    """x as plan.length ints in [0, 2**bits)."""
    x = [modular._integer(v, "sequence entry") for v in x]
    if len(x) != plan.length:
        raise LengthMismatch(f"sequence length {len(x)} != plan length {plan.length}")
    for v in x:
        if v < 0 or v >> bits:
            raise InputOutOfRange(f"value {number_text(v)} outside [0, 2**{bits})")
    return x


def _power_sums(x: list[int], plan: DyadicPlan) -> list[int]:
    # sum_t x(t) * root**(u*t) for every u, truncated to alpha bits
    n, mask, powers = plan.length, plan.mask, plan.root_powers
    out = [0] * n
    for u in range(n):
        for t in range(n):
            out[u] = (out[u] + x[t] * powers[u * t % n]) & mask
    return out


def _inverse(X: list[int], plan: DyadicPlan) -> list[int]:
    # the power sums read at -t mod N, each divided by N with a shift
    n = plan.length
    sums = _power_sums(X, plan)
    sums[1:] = sums[:0:-1]
    for t, acc in enumerate(sums):
        if acc & (n - 1):
            raise NormalizationWrap(
                f"unnormalized value {number_text(acc)} at t={t} is not divisible by {n}"
            )
    return [acc >> (n.bit_length() - 1) for acc in sums]


def dyadic_forward(x, plan: DyadicPlan) -> list[int]:
    """X(u) = sum_t x(t) * root**(u*t), truncated to alpha bits.

    The kernel uses only masking (truncation), additions and
    multiplications; no modulo instruction.
    """
    _require_validated(plan)
    return _power_sums(_in_range(x, plan, plan.data_bits), plan)


def dyadic_inverse(X, plan: DyadicPlan) -> list[int]:
    """Invert dyadic_forward; division by N is a right shift.

    The unnormalized value at t is sum_u X(u) * root**(-u*t), which is
    the forward power sum read at index -t mod N, so no multiplicative
    inverse is needed (none exists mod a power of two).  Each
    unnormalized value must be divisible by N; if not, an intermediate
    wrapped and the result would be wrong, so NormalizationWrap is
    raised.
    """
    _require_validated(plan)
    return _inverse(_in_range(X, plan, plan.alpha), plan)


def dyadic_convolve(f, g, plan: DyadicPlan) -> list[int]:
    """Exact cyclic convolution through the truncation-arithmetic transform.

    Beyond the per-input range check, the unnormalized convolution
    coefficients (at most N**2 * max(f) * max(g)) must fit below
    2**alpha, otherwise the shifted division would silently lose bits.
    """
    _require_validated(plan)
    f = _in_range(f, plan, plan.data_bits)
    g = _in_range(g, plan, plan.data_bits)
    n, mask = plan.length, plan.mask
    worst = n * n * max(f, default=0) * max(g, default=0)
    if worst > mask:
        raise InputOutOfRange(
            f"convolution headroom exceeded: N^2*Bf*Bg = {number_text(worst)} "
            f"> 2**{plan.alpha} - 1"
        )
    F, G = _power_sums(f, plan), _power_sums(g, plan)
    return _inverse([(a * b) & mask for a, b in zip(F, G)], plan)
