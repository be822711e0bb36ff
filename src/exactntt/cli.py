"""Command-line surface.

Subcommands: convolve, mul, verify, registry, order, dyadic.
Primary output (sequences, products, reports) goes to stdout or
--out; diagnostics always go to stderr.  Exit codes: 0 success, 1 failed
verification, 2 parse/usage error, 3 recovery bound exceeded, 4 invalid
transform length.
"""

import argparse
import json
import sys
from math import prod

from . import convolution, dyadic, modular, registry
from .errors import (
    BoundExceeded,
    InvalidLength,
    NttError,
    VerificationFailed,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_BOUND = 3
EXIT_LENGTH = 4

POULET_MODULUS = 341


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- sequence file I/O ---------------------------------------------------


def _is_int(v) -> bool:
    # JSON numbers with a fraction or exponent load as float, true/false as bool
    return isinstance(v, int) and not isinstance(v, bool)


def read_sequence_file(path: str, json_mode: bool = False) -> tuple[list[int], int | None]:
    """Parse a sequence file; returns (values, declared_bound).

    Text format: header line "N" or "N B_max", then one signed decimal
    per line; '#' starts a comment.  JSON format: object with "length",
    "values" and optional "bound".
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if json_mode:
        try:
            obj = json.loads(text)
            length = obj["length"]
            values = list(obj["values"])
            bound = obj.get("bound")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise NttError(f"{path}: bad JSON sequence file: {exc}") from exc
        if not all(_is_int(v) for v in [length, *values]) or not (
            bound is None or _is_int(bound)
        ):
            raise NttError(f"{path}: JSON length, values and bound must be integers")
    else:
        lines = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
        if not lines:
            raise NttError(f"{path}: empty sequence file")
        header = lines[0].split()
        if len(header) not in (1, 2):
            raise NttError(f"{path}: header must be 'N' or 'N B_max'")
        try:
            length = int(header[0])
            bound = int(header[1]) if len(header) == 2 else None
            values = [int(line) for line in lines[1:]]
        except ValueError as exc:
            raise NttError(f"{path}: non-integer entry: {exc}") from exc
    if len(values) != length:
        raise NttError(
            f"{path}: declared length {length} but found {len(values)} values"
        )
    if bound is not None:
        worst = max((abs(v) for v in values), default=0)
        if worst > bound:
            raise NttError(f"{path}: value magnitude {worst} exceeds declared bound {bound}")
    return values, bound


def write_sequence(stream, values: list[int], json_mode: bool = False, bound: int | None = None) -> None:
    if json_mode:
        obj = {"length": len(values), "values": list(values)}
        if bound is not None:
            obj["bound"] = bound
        stream.write(json.dumps(obj) + "\n")
    else:
        if bound is not None:
            stream.write(f"{len(values)} {bound}\n")
        else:
            stream.write(f"{len(values)}\n")
        for v in values:
            stream.write(f"{v}\n")


def _write_result(path: str | None, values: list[int], json_mode: bool) -> None:
    """Write a result sequence to ``path``, or to stdout for None or '-'."""
    if path is None or path == "-":
        write_sequence(sys.stdout, values, json_mode)
        return
    with open(path, "w", encoding="ascii") as fh:
        write_sequence(fh, values, json_mode)


def _parse_length(text: str) -> int:
    """Accept plain integers and the shorthand 2^k with k >= 0."""
    base, caret, exp = text.partition("^")
    if caret and int(exp) < 0:
        raise argparse.ArgumentTypeError(f"negative exponent in {text!r}")
    return int(base) ** int(exp) if caret else int(base)


# -- convolve ------------------------------------------------------------


def cmd_convolve(args) -> int:
    reg = registry.load_registry(args.registry)
    if args.self_test:
        g = list(range(1, 9))
        delta = [1] + [0] * 7
        out = convolution.convolve_ntt(delta, g, reg[0])
        if out != g:
            _diag("self-test FAILED: delta identity broken")
            return EXIT_VERIFY_FAILED
        _diag("self-test ok: delta * g == g")
        return EXIT_OK
    if not args.f or not args.g:
        raise NttError("convolve needs two sequence files (or --self-test)")
    f, _ = read_sequence_file(args.f, args.json)  # a header B_max is checked there
    g, _ = read_sequence_file(args.g, args.json)
    f, g = convolution._equal_length(f, g)  # before any moduli are chosen
    n = len(f)
    need, signed = convolution._requirement(f, g)
    if args.modulus:
        moduli = args.modulus  # plain primes; the plan computes their root-2 order
        source = "explicit moduli"
    else:
        if not any(entry.admits_length(n) for entry in reg):
            raise InvalidLength(f"no registry modulus admits length {n}")
        moduli = convolution.select_moduli(n, need, reg)
        source = "auto-selected moduli"
    # raises BoundExceeded(need, capacity) when the moduli are too small
    result = convolution.convolve_crt(f, g, moduli)
    primes = [getattr(m, "prime", m) for m in moduli]
    _diag(
        f"{source} {primes}; bound audit: {'2*' if signed else ''}N*Bf*Bg = {need} "
        f"< capacity {prod(primes)}"
    )
    _write_result(args.out, result, args.json)
    return EXIT_OK


# -- mul -----------------------------------------------------------------


def cmd_mul(args) -> int:
    reg = registry.load_registry(args.registry)
    a = convolution.BigDigits.from_decimal(args.a)
    b = convolution.BigDigits.from_decimal(args.b)
    product = convolution.bigint_multiply(a, b, registry=reg)
    print(product.to_decimal())
    return EXIT_OK


# -- verify --------------------------------------------------------------


def _report(lines, ok: bool, name: str, detail: str) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def cmd_verify(args) -> int:
    if not (args.table1 or args.fermat_identity is not None or args.theorem2 is not None or args.poulet):
        raise NttError("verify needs at least one of --table1 --fermat-identity --theorem2 --poulet")
    lines: list[str] = []
    all_ok = True

    if args.table1:
        text, source = registry.registry_text(args.registry)
        rows = registry.parse_registry_text(text, source, validate=False)
        passed = 0
        for row in rows:
            try:
                registry.validate_registry_entry(row)
                passed += 1
                _report(
                    lines, True, "table1",
                    f"m={row.prime} order(2)={row.n_max} divides F_{row.fermat_index}",
                )
            except VerificationFailed as exc:
                all_ok = _report(
                    lines, False, "table1", f"m={row.prime} {exc.clause}: {exc}"
                ) and all_ok
        lines.append(f"table1 summary: {passed}/{len(rows)} pass")

    if args.fermat_identity is not None:
        n = args.fermat_identity
        ok = registry.verify_fermat_product_identity(n)
        all_ok = _report(
            lines, ok, "fermat-identity",
            f"F_0*...*F_{n - 1} == F_{n} - 2",
        ) and all_ok

    if args.theorem2 is not None:
        reg = registry.load_registry(args.registry)
        m = args.theorem2
        if args.fermat_index is not None and args.n_max is not None:
            claim = registry.RaderModulus(m, args.fermat_index, args.n_max)
        else:
            claim = registry.find_modulus(m, reg)
        try:
            registry.verify_fermat_factor(claim)
            all_ok = _report(
                lines, True, "theorem2",
                f"m={claim.prime} divides F_{claim.fermat_index}, "
                f"order(2) = {claim.n_max} = 2^{claim.fermat_index + 1}",
            ) and all_ok
        except VerificationFailed as exc:
            all_ok = _report(lines, False, "theorem2", f"{exc.clause}: {exc}") and all_ok

    if args.poulet:
        m = POULET_MODULUS
        order = modular.multiplicative_order(2, m)
        lam = modular.carmichael_lambda(m)
        exhaustive = all(
            modular.mod_pow(a, lam, m) == 1
            for a in range(1, m)
            if modular.ext_gcd(a, m).g == 1
        )
        ok = order == 10 and modular.mod_pow(2, m - 1, m) == 1 and lam == 30 and exhaustive
        all_ok = _report(
            lines, ok, "poulet",
            f"m={m}: order nu = {order}, 2^{m - 1} == 1, lambda = {lam}, "
            f"exhaustive coprime check {'ok' if exhaustive else 'failed'}",
        ) and all_ok

    print("\n".join(lines))
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


# -- registry / order ------------------------------------------------------


def cmd_registry(args) -> int:
    for entry in registry.load_registry(args.registry):
        print(
            f"{entry.prime} fermat_index={entry.fermat_index} "
            f"n_max={entry.n_max} word={entry.word_size_bits}-bit"
        )
    return EXIT_OK


def cmd_order(args) -> int:
    order = modular.multiplicative_order(args.a, args.m)
    print(f"order({args.a} mod {args.m}) = {order}")
    print(f"phi({args.m}) = {modular.totient(args.m)}")
    print(f"lambda({args.m}) = {modular.carmichael_lambda(args.m)}")
    return EXIT_OK


# -- dyadic ----------------------------------------------------------------


def _build_dyadic_plan_from_args(length: int, args) -> dyadic.DyadicPlan:
    root = args.root if args.root is not None else (1 << args.alpha) - 1
    return dyadic.build_dyadic_plan(length, args.alpha, args.beta, root)


def cmd_dyadic_validate(args) -> int:
    plan = _build_dyadic_plan_from_args(args.length, args)
    if plan.validated:
        print(
            f"VALIDATED length={plan.length} alpha={plan.alpha} root={plan.root}"
        )
        return EXIT_OK
    witness = f" witness={plan.witness}" if plan.witness else ""
    print(f"REJECTED length={plan.length} alpha={plan.alpha} root={plan.root}: {plan.reason}{witness}")
    return EXIT_VERIFY_FAILED


def cmd_dyadic_convolve(args) -> int:
    f, _ = read_sequence_file(args.f, args.json)
    g, _ = read_sequence_file(args.g, args.json)
    plan = _build_dyadic_plan_from_args(len(f), args)
    if not plan.validated:
        _diag(f"plan rejected: {plan.reason}")
        return EXIT_VERIFY_FAILED
    _write_result(args.out, dyadic.dyadic_convolve(f, g, plan), args.json)
    return EXIT_OK


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactntt",
        description="Exact integer circular convolution over Fermat-factor prime moduli",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_registry_flag(p):
        p.add_argument("--registry", metavar="PATH", default=None,
                       help="registry file overriding the built-in table (or set NTT_REGISTRY)")

    p = sub.add_parser("convolve", help="exact cyclic convolution of two sequence files")
    p.add_argument("f", nargs="?", help="first sequence file")
    p.add_argument("g", nargs="?", help="second sequence file")
    p.add_argument("--modulus", type=int, action="append", default=None,
                   help="transform prime; repeat for an explicit CRT set "
                        "(default: pick moduli automatically)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--json", action="store_true", help="read/write JSON sequence files")
    p.add_argument("--self-test", action="store_true", dest="self_test",
                   help="run the delta-identity self check and exit")
    add_registry_flag(p)
    p.set_defaults(handler=cmd_convolve)

    p = sub.add_parser("mul", help="exact product of two decimal integers")
    p.add_argument("a")
    p.add_argument("b")
    add_registry_flag(p)
    p.set_defaults(handler=cmd_mul)

    p = sub.add_parser("verify", help="run executable number-theory checks")
    p.add_argument("--table1", action="store_true",
                   help="re-verify every registry row (divisibility, order, Euler form)")
    p.add_argument("--fermat-identity", type=int, metavar="N", default=None,
                   help="check F_0*...*F_{N-1} == F_N - 2 exactly")
    p.add_argument("--theorem2", type=int, metavar="M", default=None,
                   help="verify M is a Fermat-factor modulus with the claimed order")
    p.add_argument("--fermat-index", type=int, default=None,
                   help="claimed Fermat index for a non-registry --theorem2 modulus")
    p.add_argument("--n-max", type=int, default=None, dest="n_max",
                   help="claimed order of 2 for a non-registry --theorem2 modulus")
    p.add_argument("--poulet", action="store_true",
                   help="verify the smallest composite with a power-of-two root-2 cycle (341)")
    add_registry_flag(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("registry", help="list the active modulus registry")
    add_registry_flag(p)
    p.set_defaults(handler=cmd_registry)

    p = sub.add_parser("order", help="multiplicative order, phi and lambda of a modulus")
    p.add_argument("a", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=cmd_order)

    p = sub.add_parser("dyadic", help="truncation-arithmetic transforms (no modulo)")
    dyadic_sub = p.add_subparsers(dest="dyadic_command", required=True)

    dv = dyadic_sub.add_parser("validate", help="validate a (length, alpha, root) plan")
    dv.add_argument("--length", type=_parse_length, required=True)
    dv.add_argument("--alpha", type=int, required=True)
    dv.add_argument("--beta", type=int, default=0)
    dv.add_argument("--root", type=int, default=None,
                    help="odd root (default 2**alpha - 1)")
    dv.set_defaults(handler=cmd_dyadic_validate)

    dc = dyadic_sub.add_parser("convolve", help="convolve two files with a validated plan")
    dc.add_argument("f")
    dc.add_argument("g")
    dc.add_argument("--alpha", type=int, required=True)
    dc.add_argument("--beta", type=int, required=True)
    dc.add_argument("--root", type=int, default=None)
    dc.add_argument("--out", default=None)
    dc.add_argument("--json", action="store_true")
    dc.set_defaults(handler=cmd_dyadic_convolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BoundExceeded as exc:
        _diag(f"error: {exc}")
        if exc.need is not None:
            _diag(f"bound: need {exc.need}, capacity {exc.capacity}")
        return EXIT_BOUND
    except InvalidLength as exc:
        _diag(f"error: {exc}")
        return EXIT_LENGTH
    except VerificationFailed as exc:
        _diag(f"error: {exc}")
        return EXIT_VERIFY_FAILED
    except (NttError, OSError, ValueError) as exc:
        _diag(f"error: {exc}")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
