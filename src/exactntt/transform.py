"""Forward/inverse transforms over a root-2 prime modulus.

Two evaluation paths: a direct O(N^2) sum straight off the defining
formula (the reference the fast path is checked against) and a radix-2
Stockham fast path for power-of-two lengths, which reads its input and
writes its output in natural order.  Both compute only the forward sum
X(u) = sum_t x(t) * w**(u*t).  The inverse is that forward sum with its
output index reversed, scaled by 1/N:
x(t) = (1/N) Y(-t mod N) with Y(t) = sum_u X(u) * w**(u*t), so the
direction touches neither the input nor the cores.  The plan holds only
its read-only int64 twiddles, built once, and caches nothing
afterwards.  The direct path evaluates the sum, a polynomial in
w**u, by Horner's rule over blocks of B inputs and keeps no N x N
matrix:  X(u) = sum_b w**(u*b*B) * sum_{t<B} x(b*B + t) * w**(u*t).

Both paths work on int64 numpy arrays (moduli below 2**31) and serve
both multiplication kernels.  Every int64 reduction is _mod: with
q = a // m, a mod m = a - q*m.  numpy divides by a scalar through a
precomputed reciprocal, so the floor quotient, one product and one
difference cost about a third of int64 %.  It is exact for any int64 a
and 0 < m < 2**63: a wrap of q*m past +-2**63 cancels in a - q*m, whose
true value lies in [0, m).  The fast path leaves butterfly outputs
unreduced (even + hi and even - hi, hi = odd*w mod m), so each stage
costs one reduction and the bound on the entries' magnitudes grows by m
per stage; _mod floors, so negative entries reduce to [0, m) too.
The twiddle product stays exact while bound*(m-1) < 2**63; build_plan
computes the stages before which that would fail (reduction_stages),
asserts the bound at every stage, and the fast path reduces the array
there and once at the end.  The direct path adds B unreduced products
of one block to the carried Horner term, which is exact while
(B+1)*(m-1)**2 < 2**63; _direct_block picks B from (N, m).  A kernel,
selected per plan, decides only the twiddle product, the direct path's
block row sum and the 1/N scaling:

  "mul"    the factor for twiddle j is w**j mod m; products are
           ordinary int64 multiplication, row sums a matrix-vector
           product, and 1/N a multiplication by n_inverse.
  "shift"  the factor for twiddle j is its exponent root_step*j, since
           w**j = 2**(root_step*j); every product is shift_mul, one left
           shift and one reduction, applied elementwise on Python ints,
           and 1/N at a power-of-two N is log2 N modular halvings.  No
           general multiplication touches the data, and the results are
           bit-identical to "mul".
"""

import array
import operator
from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np

from . import modular
from .errors import (
    BadInput,
    InvalidLength,
    LengthMismatch,
    ModulusMismatch,
    ModulusTooSmall,
    VerificationFailed,
)
from .registry import MAX_MODULUS, RaderModulus

KERNELS = ("mul", "shift")

# Every value held in an int64 array must stay below this.
INT64_LIMIT = 2**63


def shift_mul(x: int, alpha: int, m: int) -> int:
    """x * 2**alpha mod m as one left shift by alpha bits and one reduction.

    No multiplication is involved.  The shifted value has alpha more
    bits than x, so reduce exponents by the root-2 order of m before
    calling in bulk.
    """
    if m < 2:
        raise ModulusTooSmall(f"modulus must be >= 2, got {m}")
    if alpha < 0:
        raise BadInput("negative shift")
    return (x << alpha) % m


# shift_mul elementwise over broadcast arrays; it receives Python ints,
# so wide shifts cannot overflow
_shift_mul_array = np.frompyfunc(shift_mul, 3, 1)


def int_array(values) -> np.ndarray:
    """``values`` as a 1-D int64 array, or as an object array of Python
    ints when some entry does not fit int64 (exact at any size).

    Entries must be integers (int, bool or numpy integer); anything else,
    floats included, raises BadInput rather than being truncated, and so
    does an integer array of any rank but 1.
    """
    # the dtype test spares np.can_cast (about 1 us) on the int64 arrays
    # the pipeline passes between its steps
    if isinstance(values, np.ndarray) and (
        values.dtype == np.int64 or np.can_cast(values.dtype, np.int64)
    ):
        if values.ndim != 1:
            raise BadInput(f"sequence must be 1-D, got an array of rank {values.ndim}")
        return values.astype(np.int64, copy=False)
    try:
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        # "q" takes entries through __index__: TypeError on a float,
        # OverflowError beyond int64
        try:
            return np.frombuffer(array.array("q", values), dtype=np.int64)
        except OverflowError:
            return np.array([operator.index(v) for v in values], dtype=object)
    except TypeError as exc:
        raise BadInput(f"sequence entries must be integers: {exc}") from None


def _mod(a: np.ndarray, m: int, out=None) -> np.ndarray:
    """a mod m in [0, m) for an int64 array a and 0 < m < 2**63.

    The floor quotient is exact.  If q*m wraps past +-2**63, a - q*m
    wraps back by the same 2**64, since the true remainder lies in
    [0, m).  Writes into ``out`` when given, else into a new array.
    """
    q = np.floor_divide(a, m)
    q *= m
    return np.subtract(a, q, out=q if out is None else out)


def _residue_dtype(modulus: int):
    # residues, and int64 % modulus, fit int64 only below 2**63
    return np.int64 if modulus < INT64_LIMIT else object


class ResidueSequence:
    """Fixed-length sequence of canonical residues sharing one modulus.

    Backed by a read-only int64 array, which ``np.asarray(seq)`` returns
    without a copy (an object array of Python ints when the modulus is
    2**63 or more); ``values`` holds the same residues as a tuple of
    ints, built on first use.  Instances are immutable and hashable; two
    are equal when their moduli and values are.
    """

    __slots__ = ("_array", "modulus", "_values")

    def __init__(self, values, modulus: int):
        if modulus < 2:
            raise ModulusTooSmall(f"modulus must be >= 2, got {modulus}")
        try:
            arr = np.array(int_array(values), dtype=_residue_dtype(modulus))
        except OverflowError:
            arr = None
        if arr is None or (
            arr.size and not (0 <= int(arr.min()) and int(arr.max()) < modulus)
        ):
            raise BadInput("sequence values must be canonical residues in [0, m)")
        self._init(arr, modulus)

    def _init(self, arr: np.ndarray, modulus: int) -> None:
        arr.flags.writeable = False
        object.__setattr__(self, "_array", arr)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_values", None)

    @classmethod
    def _wrap(cls, arr: np.ndarray, modulus: int) -> "ResidueSequence":
        """Trusted constructor for an array the library has just reduced:
        1-D, of the residue dtype, entries in [0, modulus), referenced
        nowhere else.  It is marked read-only, not copied or checked."""
        seq = cls.__new__(cls)
        seq._init(arr, modulus)
        return seq

    @classmethod
    def reduce(cls, values, modulus: int) -> "ResidueSequence":
        """Build from arbitrary signed integers, reducing each mod m.

        int64 input is reduced as an array; entries beyond int64 are
        reduced exactly as Python ints.
        """
        if modulus < 2:
            raise ModulusTooSmall(f"modulus must be >= 2, got {modulus}")
        arr = int_array(values)
        dtype = _residue_dtype(modulus)
        if arr.dtype == np.int64 and dtype is np.int64:
            return cls._wrap(_mod(arr, modulus), modulus)
        return cls._wrap((arr.astype(object) % modulus).astype(dtype), modulus)

    @property
    def values(self) -> tuple[int, ...]:
        if self._values is None:
            object.__setattr__(self, "_values", tuple(self._array.tolist()))
        return self._values

    def __array__(self, dtype=None, copy=None):
        if dtype is not None and dtype != self._array.dtype:
            if copy is False:
                raise ValueError(f"residues are {self._array.dtype}; {dtype} needs a copy")
            return self._array.astype(dtype)
        return self._array.copy() if copy else self._array

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), (self.values, self.modulus))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash((self.values, self.modulus))

    def __repr__(self) -> str:
        return f"ResidueSequence(values={self.values!r}, modulus={self.modulus!r})"

    def __len__(self) -> int:
        return len(self._array)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class TransformPlan:
    """Validated (length, modulus, root) triple with its read-only twiddles.

    The working root is 2**root_step where root_step = order // length;
    twiddles[j] = 2**(root_step * j) mod modulus, as a read-only int64
    array.  n_inverse undoes the length factor in the inverse transform.
    reduction_stages lists the fast-path stages (0 for the first, which
    makes transforms of length 2) before which the lazy butterflies must
    reduce the array to [0, m) to keep int64 exact.  build_plan fills the
    twiddles once and nothing is cached later, so plans are immutable and
    safe to share across threads.  The twiddles follow from (length,
    modulus, root_step) and take no part in equality or hashing.
    """

    length: int
    modulus: int
    order: int
    root_step: int
    kernel: str
    n_inverse: int
    reduction_stages: tuple[int, ...]
    twiddles: np.ndarray = field(repr=False, compare=False)

    @property
    def root(self) -> int:
        return int(self.twiddles[1]) if self.length > 1 else 1


def _resolve_modulus(modulus) -> tuple[int, int]:
    """Accept a RaderModulus or a plain odd prime; return (m, order)."""
    if isinstance(modulus, RaderModulus):
        m, order = modulus.prime, modulus.n_max
    else:
        m, order = int(modulus), None
    if m < 3:
        raise ModulusTooSmall(f"transform modulus must be an odd prime >= 3, got {m}")
    if m >= MAX_MODULUS:
        raise BadInput(f"modulus {m} >= 2^31 outside the exactness-audited range")
    if not modular.is_prime(m):
        raise BadInput(
            f"modulus {m} is not prime; spectra would not be invertible"
        )
    if order is None:
        order = modular.multiplicative_order(2, m)
    return m, order


def _reduction_schedule(length: int, m: int) -> tuple[int, ...]:
    """Fast-path stages that must start from residues reduced to [0, m).

    A lazy butterfly stage whose entries have magnitudes below bound
    multiplies the upper half by twiddles below m, which is exact while
    bound*(m-1) < 2**63, and leaves magnitudes below bound + m.  The
    schedule reduces before the first stage at which the product would
    overflow, and the assertion checks the invariant at every stage.
    """
    stages = length.bit_length() - 1 if modular.is_power_of_two(length) else 0
    schedule = []
    bound = m
    for stage in range(stages):
        if bound * (m - 1) >= INT64_LIMIT:
            schedule.append(stage)
            bound = m
        assert bound * (m - 1) < INT64_LIMIT, f"stage {stage} overflows int64 mod {m}"
        bound += m
    return tuple(schedule)


def _direct_block(length: int, m: int) -> int:
    """Inputs per Horner block of the direct path.

    One step adds a row sum of B products below (m-1)**2 to the carried
    term times w**(u*B), also below (m-1)**2, so it is exact in int64
    while (B+1)*(m-1)**2 < 2**63.  B is the largest power of two up to
    64 that divides the length and keeps that bound.
    """
    block = 1
    while (
        block < 64
        and length % (2 * block) == 0
        and (2 * block + 1) * (m - 1) ** 2 < INT64_LIMIT
    ):
        block *= 2
    assert (block + 1) * (m - 1) ** 2 < INT64_LIMIT, f"direct path overflows int64 mod {m}"
    return block


def build_plan(length: int, modulus, kernel: str = "mul") -> TransformPlan:
    """Construct a verified transform plan.

    ``modulus`` is a RaderModulus or a plain odd prime (its root-2 order
    is computed on the spot).  ``length`` must divide that order, else
    InvalidLength: the cycle of root powers cannot close at length N.
    Construction rebuilds the twiddle cycle and confirms the root has
    exact order N before the plan is handed out.
    """
    if kernel not in KERNELS:
        raise BadInput(f"kernel must be one of {KERNELS}, got {kernel!r}")
    m, order = _resolve_modulus(modulus)
    if length < 1:
        raise InvalidLength(f"length must be >= 1, got {length}")
    if order % length != 0:
        raise InvalidLength(
            f"length {length} does not divide the root-2 order {order} of {m}"
        )
    step = order // length
    root = pow(2, step, m)

    arr = np.ones(length, dtype=np.int64)
    filled = 1
    while filled < length:
        chunk = min(filled, length - filled)
        # arr[filled + i] = arr[i] * root**filled; multiplier < m so
        # products stay under 2**62
        mult = int(arr[filled - 1]) * root % m
        _mod(arr[:chunk] * mult, m, out=arr[filled : filled + chunk])
        filled += chunk
    if np.any(arr[1:] == 1):
        j = int(np.nonzero(arr[1:] == 1)[0][0]) + 1
        raise VerificationFailed(
            f"root 2^{step} has order {j} < {length} mod {m}", clause="order"
        )
    if int(arr[-1]) * root % m != 1:
        raise VerificationFailed(
            f"root 2^{step} does not return to 1 after {length} steps mod {m}",
            clause="order",
        )

    n_inverse = modular.mod_inverse(length % m, m)
    assert length * n_inverse % m == 1
    arr.flags.writeable = False
    return TransformPlan(
        length=length,
        modulus=m,
        order=order,
        root_step=step,
        kernel=kernel,
        n_inverse=n_inverse,
        reduction_stages=_reduction_schedule(length, m),
        twiddles=arr,
    )


def _check_input(x: ResidueSequence, plan: TransformPlan) -> None:
    if len(x) != plan.length:
        raise LengthMismatch(f"sequence length {len(x)} != plan length {plan.length}")
    if x.modulus != plan.modulus:
        raise ModulusMismatch(f"sequence modulus {x.modulus} != plan modulus {plan.modulus}")


# -- kernels -----------------------------------------------------------


def _factors(plan: TransformPlan) -> np.ndarray:
    # the kernel's factor for twiddle j: twiddles[j] under "mul", the
    # exponent root_step*j (below the root-2 order) under "shift"
    if plan.kernel == "shift":
        return plan.root_step * np.arange(plan.length, dtype=np.int64)
    return plan.twiddles


def _product(a: np.ndarray, f: np.ndarray, plan: TransformPlan) -> np.ndarray:
    # twiddle products of the entries a and the kernel's factors f,
    # unreduced under "mul" (below (m-1) * max(a)), reduced under "shift"
    if plan.kernel == "shift":
        return _shift_mul_array(a, f, plan.modulus).astype(np.int64)
    return a * f


def _row_sum(rows: np.ndarray, x: np.ndarray, plan: TransformPlan) -> np.ndarray:
    # sum_t x(t) * rows[u, t] for every u, unreduced
    if plan.kernel == "shift":
        return _product(x, rows, plan).sum(axis=1)
    return rows @ x


def _scale_inverse(a: np.ndarray, plan: TransformPlan) -> np.ndarray:
    # a * (1/N) mod m for residues a; under "shift" at a power-of-two N,
    # 1/N = 2**-log2(N) is log2 N modular halvings, adding the odd
    # modulus first to the odd entries
    m = plan.modulus
    if plan.kernel == "shift" and modular.is_power_of_two(plan.length):
        for _ in range(plan.length.bit_length() - 1):
            a = np.where(a & 1, a + m, a) >> 1
        return a
    a *= plan.n_inverse
    return _mod(a, m, out=a)


# -- direct path -------------------------------------------------------


def _direct(vec: np.ndarray, plan: TransformPlan) -> np.ndarray:
    # Horner's rule in w**(u*B), from the last block of B inputs to the first
    n, m = plan.length, plan.modulus
    block = _direct_block(n, m)
    f = _factors(plan)
    u = np.arange(n, dtype=np.int64)
    rows = f[u[:, None] * np.arange(block, dtype=np.int64) % n]
    step = f[u * block % n]
    out = np.zeros(n, dtype=np.int64)
    for start in range(n - block, -1, -block):
        out = _product(out, step, plan)
        out += _row_sum(rows, vec[start : start + block], plan)
        _mod(out, m, out=out)
    return out


def forward_direct(x: ResidueSequence, plan: TransformPlan) -> ResidueSequence:
    """Direct O(N^2) forward transform: X(u) = sum_t x(t) * root**(u*t)."""
    return _transform(x, plan, fast=False, inverse=False)


def inverse_direct(X: ResidueSequence, plan: TransformPlan) -> ResidueSequence:
    """Direct inverse: x(t) = (1/N) sum_u X(u) * root**(-u*t)."""
    return _transform(X, plan, fast=False, inverse=True)


# -- fast path ---------------------------------------------------------


def _fast(a: np.ndarray, plan: TransformPlan) -> np.ndarray:
    # Stockham autosort: entry (k, j) of the (L, C) view, L*C = N, holds
    # the length-L transform at frequency k of every C-th input from j
    # on.  A stage joins columns j and j + C/2 into the (2L, C/2) view,
    # writing into the buffer the previous stage did not, so the input
    # is only read and the output comes out in natural order.
    n, m = plan.length, plan.modulus
    f = _factors(plan)
    buffers = np.empty((2, n), dtype=np.int64)
    a = a.reshape(1, n)
    for stage in range(n.bit_length() - 1):
        if stage in plan.reduction_stages:
            _mod(a, m, out=a)
        rows, half = a.shape[0], a.shape[1] // 2
        even, odd = a[:, :half], a[:, half:]
        # lazy butterfly: even + hi and even - hi, hi = odd*w mod m
        hi = _mod(_product(odd, f[0 : rows * half : half, None], plan), m)
        out = buffers[stage % 2].reshape(2, rows, half)
        np.add(even, hi, out=out[0])
        np.subtract(even, hi, out=out[1])
        a = out.reshape(2 * rows, half)
    return _mod(a.reshape(n), m)


def forward_fast(x: ResidueSequence, plan: TransformPlan) -> ResidueSequence:
    """Radix-2 fast forward transform; bit-exact equal to forward_direct.

    Lengths that are not powers of two fall back to the direct path.
    """
    return _transform(x, plan, fast=True, inverse=False)


def inverse_fast(X: ResidueSequence, plan: TransformPlan) -> ResidueSequence:
    """Radix-2 fast inverse transform; bit-exact equal to inverse_direct."""
    return _transform(X, plan, fast=True, inverse=True)


def _transform(
    x: ResidueSequence, plan: TransformPlan, fast: bool, inverse: bool
) -> ResidueSequence:
    """Every transform computes the forward sum Y.  The inverse only
    reverses its output index, t -> -t mod N, and scales by 1/N:
    x(t) = (1/N) Y(-t mod N) with Y(t) = sum_u X(u) * root**(u*t)."""
    _check_input(x, plan)
    a = np.asarray(x)  # read-only; neither core writes its input
    if fast and modular.is_power_of_two(plan.length):
        out = _fast(a, plan)
    else:
        out = _direct(a, plan)
    if inverse:
        out[1:] = out[:0:-1]
        out = _scale_inverse(out, plan)
    return ResidueSequence._wrap(out, plan.modulus)
