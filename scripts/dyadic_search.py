#!/usr/bin/env python3
"""Census of truncation-arithmetic plans: which (root, length, width) validate.

The validator demands exact root order and vanishing off-axis power sums
mod 2**alpha; this script sweeps a grid and tabulates the verdicts, with
the failing witness for a sample of rejections.  Only length 1 and
length 2 with root == 2**alpha - 1 survive: at exact order N >= 4 the
power sum at k = 1 never vanishes mod 2**alpha, by the theorem in the
exactntt.dyadic docstring, and the grid shows that theorem at work.

    python scripts/dyadic_search.py --alpha 6 --max-root 63 --max-length 8
"""

import argparse
import sys
from collections import Counter

from exactntt.dyadic import build_dyadic_plan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=int, default=8)
    parser.add_argument("--max-root", type=int, default=None,
                        help="largest root tried (default 2**alpha - 1: every odd root)")
    parser.add_argument("--max-length", type=int, default=8)
    parser.add_argument("--show-rejections", type=int, default=5,
                        help="how many rejection witnesses to print")
    args = parser.parse_args()
    top = (1 << args.alpha) - 1
    if args.max_root is not None:
        top = min(args.max_root, top)

    verdicts = Counter()
    validated = []
    rejections = []
    for n in range(1, args.max_length + 1):
        if args.alpha < n:
            continue  # headroom cannot hold even for zero-bit data
        for a in range(1, top + 1, 2):
            plan = build_dyadic_plan(n, args.alpha, 0, a)
            verdicts[plan.validated] += 1
            if plan.validated:
                validated.append((a, n))
            elif plan.witness is not None:
                rejections.append((a, n, plan.witness))

    print(f"alpha = {args.alpha}: {verdicts[True]} validated, "
          f"{verdicts[False]} rejected")
    print("validated (root, length):")
    for a, n in validated:
        marker = "  <- negation root" if a == (1 << args.alpha) - 1 else ""
        print(f"  a={a:>6} N={n}{marker}")
    if rejections:
        print(f"sample rejection witnesses (k, sum mod 2^alpha):")
        for a, n, (k, total) in rejections[: args.show_rejections]:
            print(f"  a={a:>6} N={n}: k={k} sum={total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
