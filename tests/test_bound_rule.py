"""One recovery-bound rule for every convolution path, and decimal I/O
that leaves the interpreter's int<->str digit limit alone."""

import ast
import random
import subprocess
import sys

import pytest

from exactntt import cli, registry
from exactntt.convolution import (
    BigDigits,
    convolve_crt,
    convolve_direct,
    convolve_ntt,
    recovery_bound,
    select_moduli,
)
from exactntt.errors import BoundExceeded

REG = registry.builtin_rader_primes()

needs_str_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="interpreter has no int<->str digit limit",
)


def write_seq(path, values):
    with open(path, "w") as fh:
        cli.write_sequence(fh, values)


@pytest.fixture
def default_str_limit():
    """Run a test under CPython's default 4300-digit limit, then restore."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_recovery_bound_rule():
    assert recovery_bound(64, 20, 20, signed=False) == 64 * 20 * 20
    assert recovery_bound(64, 20, 20, signed=True) == 2 * 64 * 20 * 20
    assert recovery_bound(8, 0, 5, signed=True) == 0


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("bf", [1, 2, 5, 9, 10, 11, 20])
def test_ntt_equals_one_prime_crt_on_both_sides_of_bound(signed, bf):
    # n = 64 over 641: N*Bf*Bg = 64 * bf; unsigned fits up to bf = 10,
    # signed up to bf = 5
    rnd = random.Random(bf)
    lo = -bf if signed else 0
    f = [rnd.randint(lo, bf) for _ in range(64)]
    f[0] = -bf if signed else bf
    g = [1] * 64
    need = recovery_bound(64, bf, 1, signed)
    if need < 641:
        want = convolve_direct(f, g)
        assert convolve_ntt(f, g, REG[0]) == want
        assert convolve_crt(f, g, [REG[0]]) == want
    else:
        for call in (lambda: convolve_ntt(f, g, REG[0]), lambda: convolve_crt(f, g, [REG[0]])):
            with pytest.raises(BoundExceeded) as exc:
                call()
            assert (exc.value.need, exc.value.capacity) == (need, 641)


def test_crt_accepts_unsigned_edge_below_twice_the_bound():
    # N*Bf*Bg = 4 * 10 * 16 = 640 < 641 <= 2 * 640: exact for unsigned data
    f, g = [10, 0, 0, 10], [16, 0, 0, 0]
    assert convolve_crt(f, g, [REG[0]]) == convolve_ntt(f, g, REG[0]) == convolve_direct(f, g)
    # unsigned results above prod/2 are not lifted
    assert convolve_crt(f, g, [641]) == [160, 0, 0, 160]
    # two primes, unsigned, product between N*Bf*Bg and 2*N*Bf*Bg
    n, b = 1024, 25000
    f = [b] * n
    g = [b] * n
    product = REG[1].prime * REG[2].prime
    assert recovery_bound(n, b, b, False) < product <= recovery_bound(n, b, b, True)
    assert convolve_crt(f, g, [REG[1], REG[2]]) == [n * b * b] * n
    with pytest.raises(BoundExceeded):
        convolve_crt([-v for v in f], g, [REG[1], REG[2]])


def test_bound_exceeded_carries_numbers():
    f = [20] * 64
    with pytest.raises(BoundExceeded) as exc:
        convolve_ntt(f, f, REG[0])
    assert exc.value.need == 64 * 20 * 20
    assert exc.value.capacity == 641

    f = [-(10**6)] + [10**6] * 1023
    with pytest.raises(BoundExceeded) as exc:
        convolve_crt(f, f, [REG[1], REG[3]])
    assert exc.value.need == 2 * 1024 * 10**12
    assert exc.value.capacity == REG[1].prime * REG[3].prime

    with pytest.raises(BoundExceeded) as exc:
        select_moduli(8192, 2 * 8192 * 255 * 255)
    assert exc.value.need == 2 * 8192 * 255 * 255
    assert exc.value.capacity == 13631489

    with pytest.raises(BoundExceeded) as exc:
        select_moduli(2**20, 2)
    assert (exc.value.need, exc.value.capacity) == (2, 1)


def _auto_selected(err: str) -> list[int]:
    line = next(ln for ln in err.splitlines() if ln.startswith("auto-selected"))
    return ast.literal_eval(line[line.index("["): line.index("]") + 1])


@pytest.mark.parametrize(
    "n, bound, signed",
    [(8, 9, True), (64, 600, False), (64, 20, True), (1024, 1000, True), (4096, 255, False)],
)
def test_cli_auto_selection_is_select_moduli(tmp_path, capsys, n, bound, signed):
    rnd = random.Random(n + bound)
    lo = -bound if signed else 0
    f = [rnd.randint(lo, bound) for _ in range(n)]
    g = [rnd.randint(lo, bound) for _ in range(n)]
    f[0], g[0] = bound, (-bound if signed else bound)
    write_seq(tmp_path / "f.txt", f)
    write_seq(tmp_path / "g.txt", g)
    assert cli.main(["convolve", str(tmp_path / "f.txt"), str(tmp_path / "g.txt")]) == 0
    captured = capsys.readouterr()
    want = select_moduli(n, recovery_bound(n, bound, bound, signed))
    assert _auto_selected(captured.err) == [m.prime for m in want]
    assert [int(v) for v in captured.out.split()[1:]] == convolve_direct(f, g)


def test_cli_length_no_registry_prime_admits_exits_4(tmp_path, capsys):
    write_seq(tmp_path / "f.txt", [1, 1, 0])
    write_seq(tmp_path / "g.txt", [1, 0, 1])
    assert cli.main(["convolve", str(tmp_path / "f.txt"), str(tmp_path / "g.txt")]) == 4
    assert "admits length 3" in capsys.readouterr().err


def test_cli_bound_diagnostic_prints_numbers(tmp_path, capsys):
    write_seq(tmp_path / "f.txt", [600] * 64)
    assert cli.main(["convolve", str(tmp_path / "f.txt"), str(tmp_path / "f.txt"),
                     "--modulus", "641"]) == 3
    assert f"need {64 * 600 * 600}, capacity 641" in capsys.readouterr().err


@needs_str_limit
def test_import_leaves_int_str_limit_alone():
    code = (
        "import sys; before = sys.get_int_max_str_digits(); import exactntt; "
        "assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@needs_str_limit
@pytest.mark.parametrize("limit", [640, 4300])
def test_decimal_round_trip_beyond_str_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        rnd = random.Random(limit)
        body = "".join(rnd.choice("0123456789") for _ in range(5000))
        for text in ("7" + body, "-9" + body, "1" + "0" * 5000, "-1" + "0" * 4999 + "1"):
            assert BigDigits.from_decimal(text).to_decimal() == text
            assert sys.get_int_max_str_digits() == limit
        assert BigDigits.from_decimal("000" + "0" * 5000 + "42").to_decimal() == "42"
    finally:
        sys.set_int_max_str_digits(old)


@needs_str_limit
def test_cli_mul_4800_digits(capsys, default_str_limit):
    rnd = random.Random(4800)
    a = str(rnd.randint(1, 9)) + "".join(rnd.choice("0123456789") for _ in range(4799))
    b = "-" + str(rnd.randint(1, 9)) + "".join(rnd.choice("0123456789") for _ in range(4799))
    assert cli.main(["mul", a, b]) == 0
    out = capsys.readouterr().out.strip()
    assert sys.get_int_max_str_digits() == default_str_limit
    sys.set_int_max_str_digits(0)
    assert out == str(int(a) * int(b))


@needs_str_limit
def test_cli_mul_20000_digits(capsys, default_str_limit):
    # past the byte width's reach: the product runs on 2-bit fields
    rnd = random.Random(20000)
    a = "-" + str(rnd.randint(1, 9)) + "".join(rnd.choice("0123456789") for _ in range(19999))
    b = str(rnd.randint(1, 9)) + "".join(rnd.choice("0123456789") for _ in range(19999))
    assert cli.main(["mul", a, b]) == 0
    out = capsys.readouterr().out.strip()
    assert sys.get_int_max_str_digits() == default_str_limit
    sys.set_int_max_str_digits(0)
    assert out == str(int(a) * int(b))
