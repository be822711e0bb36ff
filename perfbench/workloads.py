"""The benchmark's workloads: seeded per-op inputs, the library call, an exact check.

Every check uses an oracle that shares no code with exactntt's transforms:

* cyclic convolution: ``np.convolve`` on int64 when N <= NP_ORACLE_MAX_N and
  N*Bf*Bg fits int64, else Kronecker packing of the sequences into
  ``decimal.Decimal`` integers (libmpdec multiplies them exactly);
* big-integer products: CPython ``int *`` and ``str()``;
* deconvolution: the recovered filter input ``f mod m``.

Each workload runs a fixed cycle of op kinds (``schedule``) so that the
p50 and p90 latencies fall inside one kind, not on the boundary between two.
"""

import decimal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

# 13631489 divides F_18, so 2 has order 2**19 modulo it.
BIG_PRIME = 13631489
BIG_PRIME_ORDER = 1 << 19

# np.convolve is O(N^2): 0.16 s at N = 2**14 and 3 s at 2**16 on a 2-vCPU
# Xeon, against ~0.1 s for the decimal oracle at 2**16.
NP_ORACLE_MAX_N = 4096

_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
)


@contextmanager
def unlimited_int_str():
    """Lift CPython's int<->str digit cap for the benchmark's own conversions.

    The library's decimal I/O is left to whatever limit it sets itself.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# -- oracles -------------------------------------------------------------


def _fold(linear: np.ndarray, n: int) -> np.ndarray:
    out = linear[:n].copy()
    out[: n - 1] += linear[n:]
    return out


def _decimal_digits(values: np.ndarray, width: int) -> decimal.Decimal:
    """Nonnegative values < 10**width packed as base-10**width digits, values[0] lowest."""
    digits = np.empty((len(values), width), dtype=np.uint8)
    rest = values[::-1].astype(np.int64)
    for col in range(width - 1, -1, -1):
        rest, digits[:, col] = np.divmod(rest, 10)
    return decimal.Decimal((digits + ord("0")).tobytes().decode("ascii"))


def _kronecker_linear(f: np.ndarray, g: np.ndarray, bound: int) -> np.ndarray:
    """Exact linear convolution of signed int64 sequences whose outputs are below ``bound``."""
    width = len(str(2 * bound + 1))
    half = 10**width // 2

    def pack(v):
        return _DECIMAL.subtract(
            _decimal_digits(np.maximum(v, 0), width),
            _decimal_digits(np.maximum(-v, 0), width),
        )

    slots = len(f) + len(g) - 1
    product = _DECIMAL.multiply(pack(f), pack(g))
    # Adding half to every slot makes each digit nonnegative, so the
    # decimal string splits into fixed-width fields.
    text = str(_DECIMAL.add(product, _decimal_digits(np.full(slots, half), width)))
    text = text.rjust(slots * width, "0")
    fields = (np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")).reshape(slots, width)
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (fields.astype(np.int64) @ powers)[::-1] - half


def cyclic_convolution(f, g) -> np.ndarray:
    """Exact cyclic convolution of two equal-length signed integer sequences."""
    f = np.asarray(f, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    n = len(f)
    bound = n * int(np.abs(f).max()) * int(np.abs(g).max())
    if n <= NP_ORACLE_MAX_N and bound < 2**62:
        return _fold(np.convolve(f, g), n)
    return _fold(_kronecker_linear(f, g, bound), n)


def same_sequence(result, expected: np.ndarray) -> bool:
    if len(result) != len(expected):
        return False
    try:
        return bool(np.array_equal(np.asarray(result, dtype=np.int64), expected))
    except OverflowError:
        return False


def corrupt(result):
    """A deliberately wrong copy of an op's result, for the self-test and fault injection."""
    if isinstance(result, str):
        body = result.rstrip()
        return body[:-1] + str((int(body[-1]) + 1) % 10)
    return [result[0] + 1] + list(result[1:])


# -- shared generators ---------------------------------------------------


def _edge_sequence(rng, n: int, bound: int, signed: bool) -> np.ndarray:
    v = rng.integers(-bound if signed else 0, bound + 1, size=n)
    v[rng.integers(n)] = -bound if signed else bound
    return v


def _decimal_string(rng, digits: int) -> str:
    d = rng.integers(0, 10, size=digits, dtype=np.uint8)
    d[0] = rng.integers(1, 10)
    sign = "-" if rng.integers(2) else ""
    return sign + (d + ord("0")).tobytes().decode("ascii")


def _decimal_product(a: str, b: str) -> str:
    with unlimited_int_str():
        return str(int(a) * int(b))


@lru_cache(maxsize=4)
def _root_powers(n: int) -> np.ndarray:
    omega = pow(2, BIG_PRIME_ORDER // n, BIG_PRIME)
    if pow(omega, n, BIG_PRIME) != 1 or (n > 1 and pow(omega, n // 2, BIG_PRIME) == 1):
        raise ValueError(f"2^{BIG_PRIME_ORDER // n} is not a primitive {n}-th root mod {BIG_PRIME}")
    powers = np.empty(n, dtype=np.int64)
    w = 1
    for k in range(n):
        powers[k] = w
        w = w * omega % BIG_PRIME
    return powers


def spectrum_invertible(g: np.ndarray) -> bool:
    """Every bin of g's length-N spectrum mod BIG_PRIME is nonzero (direct O(N^2) sum)."""
    n = len(g)
    powers = _root_powers(n)
    gm = np.asarray(g, dtype=np.int64) % BIG_PRIME
    t = np.arange(n, dtype=np.int64)
    for u0 in range(0, n, 128):
        u = np.arange(u0, min(u0 + 128, n), dtype=np.int64)[:, None]
        # residues < 2**24, so products < 2**48 and row sums < 2**58
        bins = (powers[(u * t) % n] * gm % BIG_PRIME).sum(axis=1) % BIG_PRIME
        if not bins.all():
            return False
    return True


def invertible_filter(rng, n: int, bound: int) -> np.ndarray:
    for _ in range(100):
        g = rng.integers(-bound, bound + 1, size=n)
        if spectrum_invertible(g):
            return g
    raise RuntimeError("no invertible filter in 100 draws")


# -- workloads -----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    schedule: tuple        # op kinds of one cycle; the loop runs whole cycles
    warmup: tuple          # op kinds run once during set-up, building every plan
    make: Callable         # (kind, rng, workdir) -> inputs
    run: Callable          # (lib, kind, inputs) -> result; the timed call
    check: Callable        # (kind, inputs, result) -> bool
    baselines: dict        # op kind -> key of BASELINES timed beside it
    in_process: bool = True


# Non-NTT reference paths for the same op, reported beside the library.
BASELINES = {
    "np_convolve": lambda lib, inputs: lib.convolve_direct(inputs["f"], inputs["g"]),
    "int_mul": lambda lib, inputs: _decimal_product(inputs["a"], inputs["b"]),
}


def _conv_check(kind, inputs, result):
    return same_sequence(result, cyclic_convolution(inputs["f"], inputs["g"]))


# conv-large: one prime, N = 2**16, bounds at the edge of its capacity:
# 65536 * 16 * 13 = 13631488 < 13631489, and 2 * 65536 * 8 * 13 for signed.
LARGE_N = 1 << 16


def _large_make(kind, rng, workdir):
    signed = kind == "signed"
    bf, bg = (8, 13) if signed else (16, 13)
    return {
        "f": _edge_sequence(rng, LARGE_N, bf, signed).tolist(),
        "g": _edge_sequence(rng, LARGE_N, bg, signed).tolist(),
    }


def _large_run(lib, kind, inputs):
    return lib.convolve_ntt(inputs["f"], inputs["g"], BIG_PRIME)


# crt-small: signed CRT at N = 1024 over the primes select_moduli picks
# (319489 and 2424833 for every bound here); each 4th op is a deconvolve.
SMALL_N = 1024


def _small_make(kind, rng, workdir):
    if kind == "deconvolve":
        f = rng.integers(-(2**14), 2**14 + 1, size=SMALL_N)
        g = invertible_filter(rng, SMALL_N, 64)
        return {
            "h": cyclic_convolution(f, g).tolist(),
            "g": g.tolist(),
            "f_mod": f % BIG_PRIME,
        }
    bf, bg = (1 << int(e) for e in rng.integers(10, 15, size=2))
    return {
        "f": _edge_sequence(rng, SMALL_N, bf, True).tolist(),
        "g": _edge_sequence(rng, SMALL_N, bg, True).tolist(),
        "bound": 2 * SMALL_N * bf * bg,
    }


def _small_run(lib, kind, inputs):
    if kind == "deconvolve":
        return lib.deconvolve(inputs["h"], inputs["g"], BIG_PRIME)
    moduli = lib.select_moduli(SMALL_N, inputs["bound"])
    return lib.convolve_crt(inputs["f"], inputs["g"], moduli)


def _small_check(kind, inputs, result):
    if kind == "deconvolve":
        return same_sequence(result, inputs["f_mod"])
    return _conv_check(kind, inputs, result)


# bigint: decimal in, decimal out.  Digit counts map to transform lengths
# 512 (500), 2048 (1500) and 4096 (the rest); base-256 operands above ~4900
# digits exceed what one length-4096 CRT pair can recover.
BIGINT_DIGITS = {"d500": 500, "d1500": 1500, "d2500": 2500, "d3500": 3500, "d4800": 4800}


def _bigint_make(kind, rng, workdir):
    digits = BIGINT_DIGITS[kind]
    return {"a": _decimal_string(rng, digits), "b": _decimal_string(rng, digits)}


def _bigint_run(lib, kind, inputs):
    a = lib.BigDigits.from_decimal(inputs["a"])
    b = lib.BigDigits.from_decimal(inputs["b"])
    return lib.bigint_multiply(a, b).to_decimal()


def _bigint_check(kind, inputs, result):
    return result == _decimal_product(inputs["a"], inputs["b"])


# cli: one subprocess at a time.  N = 2**14 admits only 13631489, so the
# bound 16384 * 28 * 28 < 13631489 keeps the auto-selected single prime.
CLI_N = 1 << 14
CLI_BOUND = 28
CLI_DIGITS = 4800


def _cli_make(kind, rng, workdir):
    if kind == "mul":
        a, b = _decimal_string(rng, CLI_DIGITS), _decimal_string(rng, CLI_DIGITS)
        return {"argv": ["mul", a, b], "a": a, "b": b}
    inputs = {"argv": ["convolve"]}
    for name in ("f", "g"):
        values = _edge_sequence(rng, CLI_N, CLI_BOUND, False)
        path = workdir / f"{name}.txt"
        path.write_text(f"{CLI_N} {CLI_BOUND}\n" + "\n".join(map(str, values.tolist())) + "\n")
        inputs[name] = values
        inputs["argv"].append(str(path))
    return inputs


def _cli_run(lib, kind, inputs):
    proc = subprocess.run(
        [sys.executable, "-m", "exactntt.cli", *inputs["argv"]],
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exactntt {kind} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _cli_check(kind, inputs, result):
    if kind == "mul":
        return result.strip() == _decimal_product(inputs["a"], inputs["b"])
    tokens = result.split()
    if not tokens or tokens[0] != str(CLI_N):
        return False
    try:
        values = np.array([int(t) for t in tokens[1:]], dtype=np.int64)
    except (ValueError, OverflowError):
        return False
    return same_sequence(values, cyclic_convolution(inputs["f"], inputs["g"]))


def _table():
    # Kind weights keep p50 and p90 inside one kind's latencies, away from
    # the step between kinds: 1:3 and 3:1 mixes put both quantiles at least
    # 0.15 from a step whichever kind is slower; bigint's 4:3:6:3:4 cycle puts
    # p50 in d2500 (0.35..0.65) and p90 in d4800 (0.8..1).
    bigint_cycle = tuple(k for k, count in zip(BIGINT_DIGITS, (4, 3, 6, 3, 4)) for _ in range(count))
    return (
        Workload("conv-large", ("unsigned", "signed", "signed", "signed"), ("unsigned",),
                 _large_make, _large_run, _conv_check,
                 {"unsigned": "np_convolve", "signed": "np_convolve"}),
        Workload("crt-small", ("crt", "crt", "crt", "deconvolve"), ("crt", "deconvolve"),
                 _small_make, _small_run, _small_check, {"crt": "np_convolve"}),
        Workload("bigint", bigint_cycle, ("d500", "d1500", "d2500"),
                 _bigint_make, _bigint_run, _bigint_check,
                 {kind: "int_mul" for kind in BIGINT_DIGITS}),
        Workload("cli", ("convolve", "convolve", "convolve", "mul"), ("convolve",),
                 _cli_make, _cli_run, _cli_check, {}, in_process=False),
    )


WORKLOADS = {w.name: w for w in _table()}
