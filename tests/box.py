"""The exhaustive small box: every minimal generating set A of at most
``MAX_K`` integers in [2, ``MAX_GEN``] with gcd 1, at every p <= ``MAX_P``,
through every minima route and every check of one instance.

``records()`` yields one record per (A, p), in a fixed order, each checked
before it is yielded against a route that shares no code with the one it
checks:

- the minima and run end (capped at MAX_P + 1) of ``build_range``, of the
  forced count table and of the forced (P+1)-best lists are equal, and
  equal to the minima and run end read off ``oracles.dp_counts``;
- the rows mu <= 3 of ``gap_power_sums`` are those of
  ``oracles.row_power_sum``, which walks the gaps by the membership test;
- ``classify``'s pseudo-Frobenius numbers are
  ``oracles.mask_pseudo_frobenius``'s;
- ``is_arf``'s verdict and witness are ``oracles.full_scan_arf``'s.

A record also holds the classification flags and the rows of the
one-instance verifiers (``verify nari`` at p = 0 only, as it builds its
own p = 0 instance).  ``line(record)`` is its canonical JSON text, and
``digest()`` the sha256 of every line, the value ``tests/test_box.py``
pins with the verifier failures it finds.

From the root of a checkout,

    PYTHONPATH=src python tests/box.py

prints the box, its instance count, the failing verifier rows grouped by
verifier and verdicts, and the digest.  ``--lines`` prints every line
instead, so that two trees give two files to diff.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from itertools import combinations
from math import gcd
from typing import Any, Iterable, Iterator

from oracles import (
    brute_count,
    dp_counts,
    full_scan_arf,
    mask_pseudo_frobenius,
    row_power_sum,
)
from psemigroups import (
    as_generator_set,
    build_range,
    classify,
    gap_power_sums,
    is_arf,
    verify_almost_symmetric_equivalences,
    verify_apery_pairings,
    verify_arf_conductor_kunz,
    verify_nari,
    verify_pf_consequences,
    verify_symmetry_equivalences,
)
from psemigroups.semigroup import _minima_from_lists, _minima_from_table

MAX_GEN, MAX_K, MAX_P = 13, 4, 6
# A table limit far above any table the box needs, so the table always settles
TABLE_LIMIT = 10**6
VERIFIERS = {
    "symmetry": verify_symmetry_equivalences,
    "pairings": verify_apery_pairings,
    "pf-consequences": verify_pf_consequences,
    "almost-symmetric": verify_almost_symmetric_equivalences,
    "arf-kunz": verify_arf_conductor_kunz,
}


def generator_sets() -> list[tuple[int, ...]]:
    """Every minimal A in the box, by size, then lexicographically: gcd 1,
    and no generator is a sum of the others (a positive count over them)."""
    return [
        A
        for k in range(2, MAX_K + 1)
        for A in combinations(range(2, MAX_GEN + 1), k)
        if gcd(*A) == 1
        and not any(brute_count(tuple(x for x in A if x != b), b) for b in A)
    ]


class BoxMismatch(AssertionError):
    """A route or check of one (A, p) that disagrees with its reference."""


def _expect(same: bool, A: tuple[int, ...], p: int, what: str) -> None:
    if not same:
        raise BoxMismatch(f"A = {A}, p = {p}: {what}")


def _dp_minima(counts: list[int], a: int, p: int) -> tuple[int, ...]:
    """The least n of each class modulo a with counts[n] > p, or a value
    past the table where the class has none within it."""
    minima = []
    for j in range(a):
        n = j
        while n < len(counts) and counts[n] <= p:
            n += a
        minima.append(n)
    return tuple(minima)


def _report(row) -> list[Any]:
    """A verifier row as JSON values: passed, applicable and its details."""
    return [row.passed, row.applicable, row.details]


def records_of(A: tuple[int, ...]) -> Iterator[dict[str, Any]]:
    """The checked record of every p <= MAX_P of one generating set."""
    gens, cut = as_generator_set(A), MAX_P + 1
    by_table = _minima_from_table(gens, MAX_P, TABLE_LIMIT)
    _expect(by_table is not None, A, MAX_P, "the forced table does not settle")
    by_lists = _minima_from_lists(gens, MAX_P)
    runs = [(p, ps.stop, sp) for ps, sp in build_range(gens, range(cut)) for p in ps]
    counts = dp_counts(A, max(runs[-1][2].apery_by_residue))
    for p, end, sp in runs:
        minima = sp.apery_by_residue
        for name, run_at in (("table", by_table), ("lists", by_lists)):
            other, other_end = run_at(p)
            _expect((other, min(other_end, cut)) == (minima, end), A, p, f"{name} route")
        _expect(_dp_minima(counts, sp.modulus, p) == minima, A, p, "minima against dp_counts")
        _expect(min(min(counts[m] for m in minima), cut) == end, A, p, "run end against dp_counts")
        sums = gap_power_sums(sp, 3)
        _expect(sums == [row_power_sum(sp, mu) for mu in range(4)], A, p, "power sums")
        flags = classify(sp)
        _expect(flags.pf == mask_pseudo_frobenius(sp), A, p, "pseudo-Frobenius")
        closure = is_arf(sp)
        _expect((closure.passed, closure.details["witness"]) == full_scan_arf(sp), A, p, "is_arf")
        verdicts = {name: _report(verify(sp)) for name, verify in VERIFIERS.items()}
        if p == 0:
            verdicts["nari"] = _report(verify_nari(A))
        yield {
            "A": A, "p": p, "minima": minima, "end": end, "sums": sums,
            "pf": flags.pf, "symmetric": flags.symmetric,
            "pseudo_symmetric": flags.pseudo_symmetric,
            "almost_symmetric": flags.almost_symmetric,
            "completely_symmetric": flags.completely_symmetric,
            "arf": closure.details["witness"], "verify": verdicts,
        }


def records() -> Iterator[dict[str, Any]]:
    """The checked record of every (A, p) of the box, A in the order of
    ``generator_sets``, then p ascending."""
    for A in generator_sets():
        yield from records_of(A)


def line(record: dict[str, Any]) -> str:
    """One record as canonical JSON: sorted keys, no spaces."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def digest(lines: Iterable[str]) -> str:
    """The sha256 of the lines, each ended by a newline."""
    total = hashlib.sha256()
    for text in lines:
        total.update(text.encode() + b"\n")
    return total.hexdigest()


def failures(found: Iterable[dict[str, Any]]) -> dict[tuple[str, str], list[dict[str, Any]]]:
    """The records whose verifier rows are applicable and fail, by verifier
    and by the JSON text of that row's verdicts (its details, for the Arf
    row), in box order."""
    groups: dict[tuple[str, str], list[dict[str, Any]]] = {}
    for record in found:
        for name, (passed, applicable, details) in record["verify"].items():
            if applicable and not passed:
                shape = json.dumps(details.get("verdicts", details), sort_keys=True)
                groups.setdefault((name, shape), []).append(record)
    return groups


# How many instances of one failure shape the summary names.
SHOWN = 5


def summary(found: list[dict[str, Any]]) -> Iterator[str]:
    """The lines that describe the box: its bounds and size, each failure
    shape with its count and first instances, and the digest."""
    sets = {record["A"] for record in found}
    yield (f"minimal A in [2, {MAX_GEN}], gcd 1, 2 <= k <= {MAX_K}; p <= {MAX_P}:"
           f" {len(sets)} sets, {len(found)} instances")
    for (name, shape), failed in failures(found).items():
        yield f"{name} fails on {len(failed)}: {shape}"
        for record in failed[:SHOWN]:
            yield f"  {{{','.join(map(str, record['A']))}}} p {record['p']}"
    yield f"sha256 {digest(map(line, found))}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lines", action="store_true", help="print every line, not the summary")
    args = parser.parse_args()
    if args.lines:
        for record in records():
            print(line(record))
    else:
        print("\n".join(summary(list(records()))))
