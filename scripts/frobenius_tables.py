#!/usr/bin/env python3
"""Print per-p summary tables for a few showcase generator sets.

Usage: python scripts/frobenius_tables.py [--pmax N]
"""

import argparse

from psemigroups import build_range, gap_count, gap_sum

SHOWCASE = [(4, 5, 6), (8, 4, 5, 6), (8, 12, 15, 18), (17, 18, 19)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pmax", type=int, default=10)
    args = parser.parse_args()

    for gens in SHOWCASE:
        print(f"A = {set(gens)}")
        print(f"{'p':>4} {'frobenius':>10} {'multiplicity':>13} {'genus':>7} {'gap sum':>9}")
        for sp in build_range(gens, range(args.pmax + 1)):
            print(
                f"{sp.p:>4} {sp.frobenius:>10} {sp.multiplicity:>13}"
                f" {gap_count(sp):>7} {gap_sum(sp):>9}"
            )
        print()


if __name__ == "__main__":
    main()
