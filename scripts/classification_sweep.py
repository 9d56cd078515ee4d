#!/usr/bin/env python3
"""Sweep p and report the symmetry class of each instance.

Usage: python scripts/classification_sweep.py --gens 17,18,19 --pmax 44
"""

import argparse

from psemigroups import build_range, classify, detect_pattern


def label(report) -> str:
    if report.completely_symmetric:
        return "completely symmetric"
    if report.symmetric:
        return "symmetric"
    if report.pseudo_symmetric:
        return "pseudo-symmetric"
    if report.almost_symmetric:
        return "almost symmetric"
    return "-"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gens", default="17,18,19")
    parser.add_argument("--pmax", type=int, default=44)
    args = parser.parse_args()
    gens = tuple(int(x) for x in args.gens.split(","))

    print(f"A = {set(gens)}")
    print(f"{'p':>4} {'mult':>6} {'frob':>6} {'type':>5}  class / member pattern")
    for sp in build_range(gens, range(args.pmax + 1)):
        report = classify(sp)
        print(
            f"{sp.p:>4} {sp.multiplicity:>6} {sp.frobenius:>6} {report.type_count:>5}"
            f"  {label(report)} / {detect_pattern(sp)}"
        )


if __name__ == "__main__":
    main()
