"""Transforms in truncation arithmetic: modulo 2**alpha with no modulo ops.

Arithmetic is kept exact by masking to alpha bits, which is what integer
overflow wrap-around does for free in fixed-width machine words.  There
is no multiplicative inverse of the length in this ring, so the inverse
transform divides by N with a right shift instead, which is only exact
when enough spare bits (headroom) keep unnormalized values from
wrapping.

A theorem says which (root, length) pairs give an invertible transform.
Let w be odd with exact order N = 2**j >= 4 mod 2**alpha.  The off-axis
power sum S_1 = sum_{u<N} w**u is prod_{i<j} (1 + w**(2**i)), and each
factor with i >= 1 is 2 mod 8.  If w == 1 (mod 4), v_2(S_1) = j <=
alpha - 2; else v_2(1 + w) = alpha - j and v_2(S_1) = alpha - 1.  So
S_1 != 0, and only N = 1 with root 1 and N = 2 with root 2**alpha - 1
validate; any other plan is rejected with a reason or a witness (k, sum).
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

    A rejected plan keeps its ``reason`` and, if a power sum failed, the
    ``witness`` (k, sum).  ``validated`` reads the fields alone, so the
    transforms refuse a plan the theorem rules out, whoever built it.
    """

    alpha: int
    length: int
    root: int
    data_bits: int
    reason: str | None
    witness: tuple[int, int] | None

    @property
    def validated(self) -> bool:
        return (
            self.reason is None
            and 3 <= self.alpha
            and 0 <= self.data_bits <= self.alpha - self.length
            and (self.length, self.root) in ((1, 1), (2, self.mask))
        )

    @property
    def mask(self) -> int:
        return (1 << self.alpha) - 1

    @property
    def root_powers(self) -> tuple[int, ...]:
        """root**j truncated to alpha bits, for j < length."""
        return tuple(pow(self.root, j, 1 << self.alpha) for j in range(self.length))


def build_dyadic_plan(length: int, alpha: int, beta: int, root: int) -> DyadicPlan:
    """Construct a plan, deciding order and orthogonality in closed form.

    Preconditions: alpha >= 3, root odd, and the headroom condition
    alpha >= beta + length (HeadroomViolation otherwise).  The plan is
    validated only if root has exact order N = ``length`` and every
    power sum sum_u root**(u*k) with 0 < k < N vanishes mod 2**alpha.
    """
    length, alpha = modular._integer(length, "length"), modular._integer(alpha, "alpha")
    beta, root = modular._integer(beta, "data bit depth"), modular._integer(root, "root")
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
    plan = DyadicPlan(alpha, length, root, beta, None, None)
    # root's order is a power of two, the first 2**j with w = root**(2**j)
    # == 1: square until then or until 2**j reaches N, gathering S_1
    order, w, s1 = 1, root, 1
    while w != 1 and order < length:
        s1 = s1 * (1 + w) & mask
        w = w * w & mask
        order *= 2
    if order < length:
        return replace(plan, reason=f"root order {order} is below the requested length")
    if w != 1 or order > length:
        return replace(plan, reason=f"root**{length} != 1 mod 2**{alpha}")
    if length > 1 and s1:
        reason = f"orthogonality fails at k=1: sum == {number_text(s1)} != 0"
        return replace(plan, reason=reason, witness=(1, s1))
    return plan


def _entries(x, plan: DyadicPlan, bits: int) -> list[int]:
    """x as plan.length ints in [0, 2**bits), for a validated plan."""
    if not plan.validated:
        raise BadInput(
            f"plan was rejected: {plan.reason}" if plan.reason is not None else
            "plan was not validated: only length 1 with root 1 and length 2 with "
            "root 2**alpha - 1 are, with alpha >= 3 and alpha >= data bits + length"
        )
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
    """X(u) = sum_t x(t) * root**(u*t), truncated to alpha bits: no modulo."""
    return _power_sums(_entries(x, plan, plan.data_bits), plan)


def dyadic_inverse(X, plan: DyadicPlan) -> list[int]:
    """Invert dyadic_forward; division by N is a right shift.

    The unnormalized value at t is sum_u X(u) * root**(-u*t), the
    forward power sum read at -t mod N, so no multiplicative inverse is
    needed (none exists mod a power of two).  An unnormalized value that
    N does not divide means an intermediate wrapped: NormalizationWrap.
    """
    return _inverse(_entries(X, plan, plan.alpha), plan)


def dyadic_convolve(f, g, plan: DyadicPlan) -> list[int]:
    """Exact cyclic convolution through the truncation-arithmetic transform.

    The unnormalized coefficients, at most N**2 * max(f) * max(g), must
    fit below 2**alpha, else the shifted division would lose bits.
    """
    f, g = _entries(f, plan, plan.data_bits), _entries(g, plan, plan.data_bits)
    n, mask = plan.length, plan.mask
    worst = n * n * max(f, default=0) * max(g, default=0)
    if worst > mask:
        raise InputOutOfRange(
            f"convolution headroom exceeded: N^2*Bf*Bg = {number_text(worst)} "
            f"> 2**{plan.alpha} - 1"
        )
    F, G = _power_sums(f, plan), _power_sums(g, plan)
    return _inverse([(a * b) & mask for a, b in zip(F, G)], plan)
