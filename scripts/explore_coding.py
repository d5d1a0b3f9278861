#!/usr/bin/env python3
"""Print a table of the set/number correspondence and a few translations.

Usage:
    python scripts/explore_coding.py [--count 16]
"""

from __future__ import annotations

import argparse

from hfinterp.core import decode, format_set
from hfinterp.formulas import show_arith, show_set
from hfinterp.interp import get_map
from hfinterp.parser import parse_arith, parse_set

DEMO_ARITH = ["x + y = y + x", "exists y. x < y", "x * S(0) = x"]
DEMO_SET = ["x in y", "U(P(x)) = x", "forall u in x. u <a x"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=16,
                    help="how many codes to tabulate")
    args = ap.parse_args()

    print(f"{'code':>6}  {'rank':>4}  set")
    for n in range(args.count):
        x = decode(n)
        print(f"{n:>6}  {x.rank:>4}  {format_set(x)}")

    print("\nnumber talk rendered as set talk (map d):")
    d = get_map("d")
    for src in DEMO_ARITH:
        print(f"  {src:<24} ~> {show_set(d(parse_arith(src)))}")

    print("\nset talk rendered as number talk (map a):")
    a = get_map("a")
    for src in DEMO_SET:
        print(f"  {src:<24} ~> {show_arith(a(parse_set(src)))}")


if __name__ == "__main__":
    main()
