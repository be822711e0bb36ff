"""Registry of transform moduli and the Fermat-number toolkit.

A usable modulus is a prime m whose multiplicative order of 2 is a power
of two; equivalently m divides some Fermat number F_j = 2^(2^j) + 1, and
then the order is exactly 2^(j+1).  The registry ships a verified table
of such primes and every claimed entry can be re-checked executably.
"""

import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from . import modular
from .errors import BadInput, IndexTooLarge, VerificationFailed

# Largest Fermat index whose value is materialized exactly.  Larger
# indices are never needed as numbers: divisibility by a factor m is
# checked as 2^(2^j) == -1 (mod m) instead.
MAX_MATERIALIZED_INDEX = 6

# Registry entries must keep residue products inside 62 bits so the
# vectorized int64 transform paths stay exact.
MAX_MODULUS = 2**31

ENV_REGISTRY = "NTT_REGISTRY"


@dataclass(frozen=True)
class RaderModulus:
    """A prime transform modulus with its Fermat-number provenance.

    ``prime`` divides F_{fermat_index}; ``n_max`` is the multiplicative
    order of 2 mod prime and the largest supported transform length.
    Construction checks only that each field is an integer (a float or
    str raises BadInput), so that wrong claims can be built and then
    rejected by verify_fermat_factor.
    """

    prime: int
    fermat_index: int
    n_max: int

    def __post_init__(self):
        for name in ("prime", "fermat_index", "n_max"):
            object.__setattr__(self, name, modular._integer(getattr(self, name), name))

    @property
    def word_size_bits(self) -> int:
        """The smallest of 8/16/32/64 bits holding ``prime`` (its bit length beyond)."""
        bits = self.prime.bit_length()
        return next((w for w in (8, 16, 32, 64) if bits <= w), bits)

    def admits_length(self, n: int) -> bool:
        n = modular._integer(n, "length")
        return n >= 1 and self.n_max % n == 0


def rader_number(n: int) -> int:
    """2^(2^n) - 1: the Mersenne number whose factors are F_0..F_{n-1}."""
    n = modular._integer(n, "Fermat index")
    if n < 0 or n > MAX_MATERIALIZED_INDEX:
        raise IndexTooLarge(
            f"Fermat/Rader number index {n} outside materialized range "
            f"[0, {MAX_MATERIALIZED_INDEX}]"
        )
    return (1 << (1 << n)) - 1


def fermat_number(n: int) -> int:
    """Exact F_n = 2^(2^n) + 1 for 0 <= n <= MAX_MATERIALIZED_INDEX."""
    return rader_number(n) + 2


def verify_fermat_product_identity(n: int) -> bool:
    """Check F_0 * F_1 * ... * F_{n-1} == F_n - 2 exactly (1 <= n <= 6)."""
    n = modular._integer(n, "Fermat index")
    if n < 1 or n > MAX_MATERIALIZED_INDEX:
        raise IndexTooLarge(f"identity check supported for 1 <= n <= {MAX_MATERIALIZED_INDEX}")
    product = 1
    for j in range(n):
        product *= fermat_number(j)
    return product == fermat_number(n) - 2


def _euler_form_exponent(fermat_index: int) -> int:
    # Prime factors of F_j are k*2^(j+2) + 1 for j >= 2; for the prime
    # Fermat numbers F_0 = 3 and F_1 = 5 themselves only 2^(j+1) | m - 1.
    return fermat_index + 2 if fermat_index >= 2 else fermat_index + 1


def verify_fermat_factor(m: RaderModulus) -> bool:
    """Executable check that m is a Fermat-factor modulus as claimed.

    Clauses, each raising VerificationFailed on failure:
      divisibility: 2^(2^j) == -1 (mod prime), equivalent to
                    prime | F_j without materializing F_j;
      length:       n_max == 2^(j+1);
      order:        2^n_max == 1 and 2^L != 1 for every power of two
                    L < n_max (so n_max is the exact order of 2).
    """
    p, j, n_max = m.prime, m.fermat_index, m.n_max
    if modular.mod_pow(2, 1 << j, p) != p - 1:
        raise VerificationFailed(
            f"{p} does not divide 2^(2^{j}) + 1", clause="divisibility"
        )
    if modular.mod_pow(2, n_max, p) != 1:
        raise VerificationFailed(
            f"order mismatch: 2^{n_max} != 1 (mod {p})", clause="order"
        )
    ell = 1
    while ell < n_max:
        if modular.mod_pow(2, ell, p) == 1:
            raise VerificationFailed(
                f"order mismatch: 2 has order dividing {ell} < claimed {n_max} mod {p}",
                clause="order",
            )
        ell <<= 1
    if n_max != 1 << (j + 1):
        raise VerificationFailed(
            f"claimed n_max {n_max} != 2^{j + 1} for Fermat index {j}",
            clause="length",
        )
    return True


def validate_registry_entry(m: RaderModulus) -> RaderModulus:
    """Full invariant check applied to every registry row at load time."""
    if m.prime >= MAX_MODULUS:
        raise VerificationFailed(
            f"modulus {m.prime} >= 2^31 unsupported", clause="range"
        )
    if not modular.is_prime(m.prime):
        raise VerificationFailed(f"{m.prime} is not prime", clause="primality")
    verify_fermat_factor(m)
    euler_pow = 1 << _euler_form_exponent(m.fermat_index)
    if (m.prime - 1) % euler_pow != 0:
        raise VerificationFailed(
            f"{m.prime} - 1 not divisible by {euler_pow}", clause="euler-form"
        )
    return m


def parse_registry_text(
    text: str, source: str = "<registry>", validate: bool = True
) -> tuple[RaderModulus, ...]:
    """Parse registry rows; with validate=False rows are returned unchecked
    so a reporting tool can judge each one individually."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise BadInput(
                f"{source}:{lineno}: expected 'm fermat_index n_max', got {raw!r}"
            )
        try:
            prime, fermat_index, n_max = (int(p) for p in parts)
        except ValueError as exc:
            raise BadInput(f"{source}:{lineno}: non-integer field in {raw!r}") from exc
        entry = RaderModulus(prime, fermat_index, n_max)
        entries.append(validate_registry_entry(entry) if validate else entry)
    if not entries:
        raise BadInput(f"{source}: registry contains no entries")
    return tuple(entries)


def _builtin_text() -> str:
    return (
        resources.files(__package__).joinpath("data/rader_primes.txt").read_text()
    )


@lru_cache(maxsize=None)
def builtin_rader_primes() -> tuple[RaderModulus, ...]:
    """The embedded, fully verified modulus table."""
    return parse_registry_text(_builtin_text(), source="<builtin>")


def registry_path(path: str | None = None) -> str | None:
    """The registry file in force: explicit ``path``, then the NTT_REGISTRY
    environment variable, then None for the embedded table."""
    return path or os.environ.get(ENV_REGISTRY) or None


def registry_text(path: str | None = None) -> tuple[str, str]:
    """(text, source name) of the registry that registry_path resolves."""
    path = registry_path(path)
    if path is None:
        return _builtin_text(), "<builtin>"
    with open(path, "r", encoding="ascii") as fh:
        return fh.read(), path


def load_registry(path: str | None = None) -> tuple[RaderModulus, ...]:
    """Load and verify the registry that registry_path resolves."""
    if registry_path(path) is None:
        return builtin_rader_primes()
    return parse_registry_text(*registry_text(path))


def find_modulus(value: int, registry: tuple[RaderModulus, ...] | None = None) -> RaderModulus:
    """Look up a registry entry by its prime value (in the built-in table
    when ``registry`` is None; an empty registry holds no entry)."""
    for entry in builtin_rader_primes() if registry is None else registry:
        if entry.prime == value:
            return entry
    raise BadInput(f"modulus {value} not present in registry")


def mersenne_factor_table(limit: int) -> list[tuple[int, dict[int, int]]]:
    """Exact factorizations of 2^n - 1 for 2 <= n <= limit (limit <= 32)."""
    limit = modular._integer(limit, "limit")
    if limit > 32:
        raise IndexTooLarge("factor table supported up to n = 32")
    return [(n, modular.factorize((1 << n) - 1)) for n in range(2, limit + 1)]
