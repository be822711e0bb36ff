"""Forward/inverse transforms over a root-2 prime modulus.

Two evaluation routes, both computing only the forward sum
X(u) = sum_t x(t) * w**(u*t):

  direct     the O(N^2) sum by Horner's rule over blocks of B inputs,
             X(u) = sum_b w**(u*b*B) * sum_{t<B} x(b*B + t) * w**(u*t),
             at any admitted length and with no N x N matrix.  It reads
             only the twiddles, under either kernel: it is the reference
             the fast route is checked against.
  Stockham   the fast route at a power-of-two N > 1: a mixed-radix loop
             that reads its input and writes its output in natural
             order.  A stage of radix r takes a twiddle product and joins
             r blocks with an r x r table D_r: one float64 BLAS matmul
             for r > 2, one add and one subtract for r = 2.  A "mul" plan
             on a prime that passes the float rule below takes about
             log2(N)/6 stages of r up to 64 (README gives measured
             times); "shift" plans and the primes above about 2**26.5
             (825753601, 1214251009, 2013265921) take log2 N radix-2
             stages.

The inverse is the forward sum with its output index reversed, scaled by
1/N: x(t) = (1/N) Y(-t mod N) with Y(t) = sum_u X(u) * w**(u*t).  A plan
holds only read-only tables, built once.

The routes work on int64 arrays (moduli below 2**31), and every
reduction is _mod, a - (a // m)*m: numpy divides by a scalar through a
precomputed reciprocal, so it costs about a third of int64 %.  It is
exact for any int64 a and 0 < m < 2**63 (a wrap of q*m past +-2**63
cancels in a - q*m) and floors, so negative entries reduce to [0, m).
Every Stockham stage starts and ends on residues in [0, m), so its
twiddle products, and a radix-2 stage's sums of a residue and such a
product, stay below m**2 < 2**62 in magnitude.  Two rules bound the
other sums:

  int64    a sum holds at most H = _headroom(m) products of two
           residues, the largest H with H*m*(m-1) < 2**63.  A direct
           Horner step adds B products to one more, so B + 1 <= H
           (_direct_block).
  float64  a sum holds at most F = _float_headroom(m) products of a
           balanced residue (|d| <= (m-1)/2) and a residue in [0, m), the
           largest F with F*((m-1)//2)*(m-1) < 2**53, so every partial
           sum is an integer float64 holds exactly, in whatever order
           BLAS adds them.  A stage's matmul adds r such products, so
           r <= F (_radices, _radix_tables).

A kernel, selected per plan, decides only the radix-2 twiddle product
and the 1/N scaling:

  "mul"    int64 multiplication by w**j, and by n_inverse.  Only this
           kernel takes stages of r > 2, which multiply matrices.
  "shift"  w**j = 2**(root_step*j), so the product is shift_mul, one
           left shift and one reduction on Python ints; j < N/2 keeps
           every shift below half the root-2 order, and build_plan
           refuses a plan whose widest shift exceeds MAX_SHIFT_BITS.
           1/N at a power-of-two N is log2 N modular halvings.  No
           general multiplication touches the data of a fast transform
           at a power-of-two N, and the results are bit-identical to
           "mul".
"""

import operator
import struct
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
# Every integer below this in magnitude, and every sum of them that stays
# below it, is exact in float64.
FLOAT64_EXACT = 2**53
# Largest radix of a Stockham stage: a stage's matmul work grows with r,
# and 128 or 256 gained nothing clear over 64 at N = 256..4096.
MAX_RADIX = 64
# Widest shift a "shift" plan may make, root_step*(N/2 - 1) bits: the
# most a registry prime needs (13631489 at N = 2**19, root_step 1).
# Wider shifts build Python ints of that many bits per entry.
MAX_SHIFT_BITS = 2**18


def shift_mul(x: int, alpha: int, m: int) -> int:
    """x * 2**alpha mod m as one left shift by alpha bits and one reduction.

    No multiplication is involved.  The shifted value has alpha more
    bits than x, so reduce exponents by the root-2 order of m before
    calling in bulk.
    """
    m = modular._modulus(m)
    x, alpha = modular._integer(x, "residue"), modular._integer(alpha, "shift")
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
        if isinstance(values, np.ndarray):
            values = values.tolist()
        if not isinstance(values, list):
            values = list(values)
        out = np.empty(len(values), dtype=np.int64)
        # struct packs each entry through __index__ in one C loop and
        # raises struct.error on a non-integer or an entry beyond int64;
        # the object path sorts the two apart: operator.index raises
        # TypeError on a non-integer, and big ints stay exact
        try:
            struct.pack_into(f"{len(values)}q", out, 0, *values)
            return out
        except struct.error:
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
        modulus = modular._modulus(modulus)
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
        modulus = modular._modulus(modulus)
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
    """Validated (length, modulus, root) triple with its read-only tables.

    The working root is 2**root_step, where root_step * length is the
    root-2 order of modulus; twiddles[j] = 2**(root_step * j) mod
    modulus, as a read-only int64 array.  n_inverse undoes the length
    factor in the inverse transform.  At a power-of-two length N > 1
    the fast transforms take the Stockham loop, in the stages _radices
    sets: ``radix_tables`` holds one read-only float64 r x r table per
    stage, D_r[q, s] = w**(N*q*s/r) as a balanced residue, and stages of
    one radix share it.  A radix-2 stage applies its D_2, [[1, 1],
    [1, -1]], as one add and one subtract.  Each stage gathers its
    twiddles from ``twiddles`` per call.

    At other lengths ``radix_tables`` is None, and the fast transforms,
    like the direct ones, take the direct route, which reads only the
    twiddles.

    Only build_plan fills the derived fields n_inverse, twiddles and
    radix_tables, once, after its checks; nothing is cached later, so
    plans are immutable and safe to share across threads.  They follow
    from (length, modulus, root_step, kernel) and take no part in
    equality or hashing.  ``TransformPlan(...)`` takes those four, and
    ``dataclasses.replace`` refuses the derived fields, so a plan made
    either way has no tables and every transform refuses it.
    """

    length: int
    modulus: int
    root_step: int
    kernel: str
    n_inverse: int | None = field(default=None, init=False, compare=False)
    twiddles: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    radix_tables: tuple[np.ndarray, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def root(self) -> int:
        return pow(2, self.root_step, self.modulus)


def _resolve_modulus(modulus) -> tuple[int, int]:
    """Accept a RaderModulus or a plain odd prime; return (m, order)."""
    if isinstance(modulus, RaderModulus):
        m, order = modulus.prime, modulus.n_max
    else:
        m, order = modular._modulus(modulus), None
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


def _headroom(m: int) -> int:
    """How many products of two residues mod m one int64 sum holds: the
    largest k with k*m*(m-1) < 2**63, at least 2 for every m < 2**31."""
    k = (INT64_LIMIT - 1) // (m * (m - 1))
    assert k >= 2, f"int64 holds fewer than two products mod {m}"
    return k


def _float_headroom(m: int) -> int:
    """How many products of a balanced residue (|d| <= (m-1)/2) and a
    residue in [0, m) one float64 sum holds exactly: the largest k with
    k*((m-1)//2)*(m-1) < 2**53.  Every partial sum is then an integer
    below 2**53, so BLAS may add the products in any order or split."""
    return (FLOAT64_EXACT - 1) // ((m - 1) // 2 * (m - 1))


def _direct_block(length: int, m: int) -> int:
    """Inputs per Horner block of the direct path.

    One step adds B products of two residues to the carried term times
    w**(u*B), one more such product, so it is exact in int64 while
    B + 1 <= _headroom(m).  B is the largest power of two up to 64 that
    divides the length and keeps that bound.
    """
    h = _headroom(m)
    block = min(length & -length, 64, 1 << (h - 1).bit_length() - 1)
    assert block + 1 <= h, f"direct path overflows int64 mod {m}"
    return block


def _radices(length: int, m: int, kernel: str) -> tuple[int, ...] | None:
    """Stage radices of the Stockham loop at a power-of-two length N > 1,
    else None (the direct route).

    A "mul" plan takes r up to the largest power of two up to MAX_RADIX
    and _float_headroom(m): log2 N is split into as few stages of at most
    log2 r as it takes, as evenly as possible.  Every registry prime is
    below 2**24 and takes r = 64.  A radix-2 stage multiplies no matrix,
    so "shift" plans, and primes whose float rule admits no r >= 4, such
    as 825753601, 1214251009 and 2013265921, take log2 N radix-2 stages.
    """
    if length < 2 or not modular.is_power_of_two(length):
        return None
    top = 1
    if kernel == "mul":
        top = max(1, min(MAX_RADIX, _float_headroom(m)).bit_length() - 1)
    bits = length.bit_length() - 1
    stages = -(-bits // top)
    low, high = divmod(bits, stages)
    return (2 << low,) * high + (1 << low,) * (stages - high)


def _radix_tables(
    twiddles: np.ndarray, radices: tuple[int, ...], m: int
) -> tuple[np.ndarray, ...]:
    """The Stockham loop's read-only float64 tables, one per stage:
    D_r[q, s] = w**(N*q*s/r) mod m as a balanced residue in
    [-(m-1)/2, (m-1)/2].  Stages of one radix share one table.

    Asserts the float rule _radices decides by on every table a matmul
    reads (r > 2), so radices that bypass it cannot build tables whose
    matmuls would round.
    """
    f = _float_headroom(m)
    assert all(r <= f for r in radices if r > 2), f"Stockham stage overflows float64 mod {m}"
    n, half = len(twiddles), (m - 1) // 2
    tables = {}
    for r in set(radices):
        i = np.arange(r, dtype=np.int64)
        d = twiddles[n // r * (np.outer(i, i) % r)]
        table = np.where(d > half, d - m, d).astype(np.float64)
        table.flags.writeable = False
        tables[r] = table
    return tuple(tables[r] for r in radices)


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
    length = modular._integer(length, "length")
    if length < 1:
        raise InvalidLength(f"length must be >= 1, got {length}")
    if order % length != 0:
        raise InvalidLength(
            f"length {length} does not divide the root-2 order {order} of {m}"
        )
    step = order // length
    if kernel == "shift" and modular.is_power_of_two(length):
        width = step * (length // 2 - 1)
        if width > MAX_SHIFT_BITS:
            raise BadInput(
                f"shift kernel mod {m} at length {length}: the widest shift, "
                f"{width} bits, exceeds 2^18"
            )
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
    radices = _radices(length, m, kernel)
    plan = TransformPlan(length, m, step, kernel)
    object.__setattr__(plan, "n_inverse", n_inverse)
    object.__setattr__(plan, "twiddles", arr)
    if radices is not None:
        object.__setattr__(plan, "radix_tables", _radix_tables(arr, radices, m))
    return plan


def _check_input(x: ResidueSequence, plan: TransformPlan) -> None:
    if plan.twiddles is None:
        raise BadInput("plan has no tables: transforms take only plans that build_plan made")
    if not isinstance(x, ResidueSequence):
        raise BadInput(
            f"transforms take a ResidueSequence, got {type(x).__name__}; "
            "build one with ResidueSequence.reduce(values, modulus)"
        )
    if len(x) != plan.length:
        raise LengthMismatch(f"sequence length {len(x)} != plan length {plan.length}")
    if x.modulus != plan.modulus:
        raise ModulusMismatch(f"sequence modulus {x.modulus} != plan modulus {plan.modulus}")


# -- kernels -----------------------------------------------------------


def _twiddle_product(odd: np.ndarray, plan: TransformPlan) -> np.ndarray:
    # row k of the (L, C) array odd times w**(k*C): the radix-2 stage's
    # twiddle product, below m**2 under "mul" and reduced to [0, m) under
    # "shift", where w**j = 2**(root_step*j) with j < N/2, so every shift
    # is below half the root-2 order
    rows, cols = odd.shape
    if plan.kernel == "shift":
        exponents = plan.root_step * np.arange(0, rows * cols, cols, dtype=np.int64)
        return _shift_mul_array(odd, exponents[:, None], plan.modulus).astype(np.int64)
    return odd * plan.twiddles[: rows * cols : cols, None]


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
    # Horner's rule in w**(u*B), from the last block of B inputs to the
    # first, on the twiddles under either kernel: the reference shares no
    # twiddle product with the fast route it checks
    n, m, w = plan.length, plan.modulus, plan.twiddles
    block = _direct_block(n, m)
    u = np.arange(n, dtype=np.int64)
    rows = w[u[:, None] * np.arange(block, dtype=np.int64) % n]
    step = w[u * block % n]
    out = np.zeros(n, dtype=np.int64)
    for start in range(n - block, -1, -block):
        out *= step
        out += rows @ vec[start : start + block]
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
    # on.  A stage of radix r views it as (L, r, C/r), multiplies column
    # block s of row k by w**(C/r*s*k), and joins the r blocks with D_r
    # into the (r*L, C/r) view, whose row k + L*q is frequency k + L*q.
    # Every stage writes a new array of residues in [0, m), so the input
    # is only read and the output comes out in natural order.  The
    # twiddles are gathered per call, so the plan holds no N-entry table.
    n, m, w = plan.length, plan.modulus, plan.twiddles
    a = a.reshape(1, n)
    for table in plan.radix_tables:
        r = table.shape[0]
        rows, cols = a.shape[0], a.shape[1] // r
        if r == 2:
            # D_2 joins even + hi and even - hi, hi = odd*w below m**2;
            # the first stage's twiddles are all 1
            even, hi = a[:, :cols], a[:, cols:]
            if rows > 1:
                hi = _twiddle_product(hi, plan)
            y = np.empty((2, rows, cols), dtype=np.int64)
            np.add(even, hi, out=y[0])
            np.subtract(even, hi, out=y[1])
        elif rows == 1:
            y = table @ a.astype(np.float64).reshape(r, cols)
        else:
            grid = w[np.arange(0, rows * cols, cols)[:, None] * np.arange(r)]
            x = a.reshape(rows, r, cols) * grid[:, :, None]
            x = _mod(x, m, out=x).astype(np.float64)
            # the (r, L*C/r) operand: a transposed view BLAS reads as is
            # when C/r = 1, else a copy
            y = table @ x.transpose(1, 0, 2).reshape(r, rows * cols)
        a = _mod(y.astype(np.int64, copy=False), m).reshape(r * rows, cols)
    return a.reshape(n)


def forward_fast(x: ResidueSequence, plan: TransformPlan) -> ResidueSequence:
    """Fast forward transform through the Stockham loop; bit-exact equal
    to forward_direct.

    Lengths that are not powers of two fall back to the direct path.
    """
    return _transform(x, plan, fast=True, inverse=False)


def inverse_fast(X: ResidueSequence, plan: TransformPlan) -> ResidueSequence:
    """Fast inverse transform; bit-exact equal to inverse_direct."""
    return _transform(X, plan, fast=True, inverse=True)


def _transform(
    x: ResidueSequence, plan: TransformPlan, fast: bool, inverse: bool
) -> ResidueSequence:
    """Every transform computes the forward sum Y.  The inverse only
    reverses its output index, t -> -t mod N, and scales by 1/N:
    x(t) = (1/N) Y(-t mod N) with Y(t) = sum_u X(u) * root**(u*t)."""
    _check_input(x, plan)
    a = np.asarray(x)  # read-only; no core writes its input
    out = _fast(a, plan) if fast and plan.radix_tables is not None else _direct(a, plan)
    if inverse:
        out[1:] = out[:0:-1]
        out = _scale_inverse(out, plan)
    return ResidueSequence._wrap(out, plan.modulus)
