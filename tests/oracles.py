"""Brute-force reference implementations, independent of the library code.

These deliberately use naive recursion and direct set logic so they share
no machinery with the package; tests compare the two on small instances.
The full_* routes are bitmask scans over a built instance's enumerated
gaps and members, quadratic in the Frobenius number; they serve as
references at sizes the brute-force scans cannot reach.  The set-based
mirror routes are the library's former O(F) evaluations of the exchange
and of H/L/K, and the tuple renderers the CLI's former way of writing
sets, kept as references for its bitmask ones.  The heap merge is the
library's former (P+1)-best-lists step, kept as a second route for its
round-robin one; the flag-scan minima modulo g and the mirrored member
mask are the library's former F-sized routes, kept likewise, and the
window scan the library's former residue-pairing check.  The count over
an arithmetic sequence, a sum of Gaussian binomial coefficients, reads no
table and no lists, for sizes that no brute-force scan reaches.  The
per-row power sums are the library's former one-walk-per-row power sums,
kept as references for ``gap_power_sums``' shared walk.  ``jsonify`` is the CLI's
former copy of each document into JSON primitives, kept as the reference
for rendering the document as it is built.  The flag routes read the
membership test once a value, at C speed, into bytes and masks: linear in
F, they check ``tests/layers.py``'s layers at the benchmark ladder's sizes,
where the quadratic references are out of reach.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Any, Iterable, Iterator


def brute_count(gens: tuple[int, ...], n: int) -> int:
    """Count coefficient tuples by plain recursion over the generator list."""
    if n < 0:
        return 0

    def rec(i: int, remaining: int) -> int:
        if i == len(gens) - 1:
            return 1 if remaining % gens[i] == 0 else 0
        return sum(
            rec(i + 1, remaining - x * gens[i])
            for x in range(remaining // gens[i] + 1)
        )

    return rec(0, n)


def representations(gens: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """The coefficient tuples that ``brute_count`` counts, listed by the
    same recursion, in lexicographic order over the input order."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if i == len(gens) - 1:
            q, r = divmod(remaining, gens[i])
            if r == 0:
                out.append((*prefix, q))
            return
        for x in range(remaining // gens[i] + 1):
            rec(i + 1, remaining - x * gens[i], (*prefix, x))

    if n >= 0:
        rec(0, n, ())
    return out


def arithmetic_count(a: int, d: int, k: int, n: int) -> int:
    """The representation count of n over the arithmetic sequence
    {a, a + d, ..., a + (k-1)d}, gcd(a, d) = 1, with no table: a
    representation with s summands is s offsets from {0, ..., k-1} (in
    steps of d) summing to t = (n - s*a)/d, and those number
    ``box_partitions(t, s, k - 1)`` (ROADMAP item 16).  No s below
    n / (a + (k-1)d) has one: there t > s(k-1)."""
    total = 0
    for s in range(-(-n // (a + (k - 1) * d)), n // a + 1):
        t, r = divmod(n - s * a, d)
        if r == 0:
            total += box_partitions(t, s, k - 1)
    return total


@lru_cache(maxsize=None)
def box_partitions(t: int, s: int, m: int) -> int:
    """The partitions of t into at most s parts, each at most m: the
    coefficient of q^t in the Gaussian binomial [s+m choose m]_q (Andrews,
    The Theory of Partitions, 1976, ch. 3).  Closed for m <= 2, where the
    twos number from max(0, t - s) to t // 2.  Above, no more than t
    parts are positive, and the partitions of t are the complements of
    those of s*m - t in the s by m box, so s and t are cut to those;
    then the partitions with fewer than s parts, and those with s, less
    one from each part: [s+m choose m]_q = [s-1+m choose m]_q +
    q^s [s-1+m choose m-1]_q.  The recursion is at most s + m deep."""
    if t < 0 or t > s * m:
        return 0
    if m < 2 or t == 0:
        return 1
    if m == 2:
        return t // 2 - max(0, t - s) + 1
    s = min(s, t)
    t = min(t, s * m - t)
    return box_partitions(t, s - 1, m) + box_partitions(t - s, s, m - 1)


def dp_counts(gens: tuple[int, ...], horizon: int) -> list[int]:
    """d(0..horizon) by the textbook DP, one generator and one n at a
    time: d(n) += d(n - g)."""
    counts = [1] + [0] * horizon
    for g in gens:
        for n in range(g, horizon + 1):
            counts[n] += counts[n - g]
    return counts


def brute_gap_set(gens: tuple[int, ...], p: int) -> list[int]:
    """Scan upward until min(gens) consecutive counts exceed p.

    Once a full run of length min(gens) consists of members, everything
    above is a member too (each n sits one min-generator step above a run
    element, and counts never decrease along such steps).
    """
    a = min(gens)
    gaps: list[int] = []
    run = 0
    n = 0
    while run < a:
        if brute_count(gens, n) <= p:
            gaps.append(n)
            run = 0
        else:
            run += 1
        n += 1
    return gaps


class BruteSemigroup:
    """Naive membership/set logic derived from brute_gap_set."""

    def __init__(self, gens: tuple[int, ...], p: int) -> None:
        self.gens = gens
        self.p = p
        self.gaps = brute_gap_set(gens, p)
        self.frobenius = max(self.gaps)
        gapset = set(self.gaps)
        self.multiplicity = min(
            x for x in range(self.frobenius + 2) if x not in gapset
        )
        self._gapset = gapset

    def member(self, x: int) -> bool:
        return x >= 0 and (x > self.frobenius or x not in self._gapset)


def brute_class_minima(gens: tuple[int, ...], p: int, modulus: int) -> tuple[int, ...]:
    """Least member of each residue class modulo ``modulus`` (one of the
    generators), read off the brute-force gap set: counts never drop along
    a step of a generator, so each class is closed upward under it."""
    gapset = set(brute_gap_set(gens, p))
    minima = []
    for j in range(modulus):
        n = j
        while n in gapset:
            n += modulus
        minima.append(n)
    return tuple(minima)


def flags_minima_modulo(sp, g: int) -> tuple[int, ...]:
    """Least member of each residue class modulo g of a built instance,
    read off its membership over [0, conductor + g), where every class
    has a member: the library's former route for ``minima_modulo``."""
    flags = [sp.contains(n) for n in range(sp.conductor + g)]
    return tuple(r + g * flags[r::g].index(True) for r in range(g))


def mirrored_member_mask(sp, length: int) -> int:
    """Bitmask whose bit n is set iff length - 1 - n is a member of a
    built instance: the library's former mirrored member mask, a reference
    for the H of ``hlk_of_members``."""
    return sum(1 << (length - 1 - n) for n in range(length) if sp.contains(n))


def _member_test_gaps(sp) -> Iterator[int]:
    """The gaps of a built instance, ascending, by its membership test."""
    return (n for n in range(sp.conductor) if not sp.contains(n))


def row_power_sum(sp, mu: int) -> int:
    """Sum of n^mu over the gaps of a built instance (0^0 = 1), by direct
    summation."""
    return sum(n**mu for n in _member_test_gaps(sp))


def row_weighted_power_sum(sp, weight: Fraction, mu: int) -> Fraction:
    """Sum of weight^n * n^mu over the gaps of a built instance by Horner's
    rule on the numerators over the common denominator den^F, one row at a
    time."""
    num, den = weight.numerator, weight.denominator
    total, num_power, prev = 0, 1, 0
    for n in _member_test_gaps(sp):
        num_power *= num ** (n - prev)
        total = total * den ** (n - prev) + num_power * n**mu
        prev = n
    return Fraction(total, den**prev)


def heap_merge_lists(lists: list[list[int]], b: int, keep: int) -> list[list[int]]:
    """The (keep)-best lists modulo a = len(lists) once b may be used too,
    by one heap over every class: values leave it in ascending order; a
    value v placed in class r feeds v + b to class r + b, and a class takes
    no values past ``keep``.  Heap entries are (value, class, next index
    into the old list), the index 0 marking a fed value."""
    a = len(lists)
    new: list[list[int]] = [[] for _ in range(a)]
    heap = [(values[0], r, 1) for r, values in enumerate(lists) if values]
    heapify(heap)
    while heap:
        v, r, nxt = heappop(heap)
        out = new[r]
        if len(out) == keep:
            continue
        out.append(v)
        old = lists[r]
        if nxt and nxt < len(old):
            heappush(heap, (old[nxt], r, nxt + 1))
        s = (r + b) % a
        if len(new[s]) < keep:
            heappush(heap, (v + b, s, 0))
    return new


def heap_best_lists(gens: tuple[int, ...], top: int) -> list[list[int]]:
    """For each residue class modulo a = min(gens), the top + 1 smallest
    values (with multiplicity) representable over the other generators,
    merged one generator at a time by ``heap_merge_lists``; the class
    minimum at p <= top is entry p of its list."""
    a = min(gens)
    lists: list[list[int]] = [[] for _ in range(a)]
    lists[0].append(0)
    for b in gens:
        if b != a:
            lists = heap_merge_lists(lists, b, top + 1)
    return lists


def brute_pseudo_frobenius(gens: tuple[int, ...], p: int) -> list[int]:
    """Definition-level scan: x outside with x + s - multiplicity inside
    for every member s above the multiplicity (larger s cannot fail)."""
    sg = BruteSemigroup(gens, p)
    low, g = sg.multiplicity, sg.frobenius
    out = []
    for x in sg.gaps:
        members = [s for s in range(low + 1, low + g - x + 1) if sg.member(s)]
        if all(sg.member(x + s - low) for s in members):
            out.append(x)
    return out


def brute_l_set(gens: tuple[int, ...], p: int) -> list[int]:
    sg = BruteSemigroup(gens, p)
    total = sg.frobenius + sg.multiplicity
    return [x for x in sg.gaps if not sg.member(x) and not sg.member(total - x)]


def small_elements(sp) -> tuple[int, ...]:
    """The members of a built instance up to and including the conductor,
    beyond which every integer is a member."""
    return tuple(n for n in range(sp.conductor + 1) if sp.contains(n))


def full_shift_pseudo_frobenius(sp) -> tuple[int, ...]:
    """Bitmask reference for pseudo-Frobenius on a built instance, over
    every member shift s - multiplicity up to the Frobenius number (larger
    shifts land above the largest gap).  O(F^2 / 64): usable at F ~ 10^4,
    where the definition-level scan is too slow."""
    low, g, c = sp.multiplicity, sp.frobenius, sp.conductor
    shifts = [s - low for s in small_elements(sp) if low < s <= g]
    shifts.extend(range(max(c - low, 1), g + 1))
    gapmask = 0
    for x in sp.gaps:
        gapmask |= 1 << x
    failmask = 0
    for t in shifts:
        failmask |= gapmask >> t
    return tuple(x for x in sp.gaps if not (failmask >> x) & 1)


_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def contains_flags(sp, values: Iterable[int]) -> bytes:
    """One byte per value of a built instance: 1 where its membership test
    accepts the value, 0 where not."""
    return bytes(map(sp.contains, values))


def flags_mask(flags: bytes) -> int:
    """The bitmask whose bit n is set iff byte n of ``flags`` is."""
    return int(b"0" + flags[::-1].translate(_FLAG_DIGITS), 2)


def mask_bits(mask: int) -> list[int]:
    """The set bits of a non-negative mask, ascending, by a regex scan of
    its binary digits."""
    return [digit.start() for digit in re.finditer("1", bin(mask)[:1:-1])]


def mask_pseudo_frobenius(sp) -> tuple[int, ...]:
    """Pseudo-Frobenius on a built instance by bitmasks read off its
    membership test, where ``full_shift_pseudo_frobenius`` is too slow: a
    gap x qualifies iff no shift t = s - multiplicity >= 1, s a member,
    puts x + t on a gap.  The shift a (multiplicity + a is a member) leaves
    only the gaps x with x + a a member, at most a of them, and each is
    tested against every shift by one AND: O(a * F / 64)."""
    low, g, a = sp.multiplicity, sp.frobenius, sp.modulus
    members = flags_mask(contains_flags(sp, range(g + low + a + 1)))
    gaps = ((1 << (g + 1)) - 1) & ~members
    shifts = (members >> low) & ~1
    return tuple(x for x in mask_bits(gaps & (members >> a)) if not (gaps >> x) & shifts)


def is_run_text(text: str, flags: bytes) -> bool:
    """True iff ``text`` is the run-length text ("0-23,25,27") of the
    positions of the non-zero bytes of ``flags``.  Each run, one regex
    match, is compared where it must stand in ``text``, so that no string
    of the text's size is built."""
    at = 0
    for run in re.finditer(rb"[^\x00]+", flags):
        first, last = run.start(), run.end() - 1
        piece = f"{',' if at else ''}{first}{f'-{last}' if last > first else ''}"
        if not text.startswith(piece, at):
            return False
        at += len(piece)
    return at == len(text)


def full_scan_arf(sp) -> tuple[bool, tuple[int, int, int] | None]:
    """Bitmask reference for the x + y - z closure over members below the
    conductor, trying every difference t = y - z in ascending order;
    returns (closed, first witness)."""
    c = sp.conductor
    member_mask = flags_mask(contains_flags(sp, range(c)))
    gap_mask = ((1 << c) - 1) & ~member_mask
    for t in range(c):
        pair_mask = member_mask & (member_mask << t)
        if pair_mask == 0:
            continue
        y_min = (pair_mask & -pair_mask).bit_length() - 1
        fail = (member_mask & (gap_mask >> t)) >> y_min
        if fail:
            x = (fail & -fail).bit_length() - 1 + y_min
            return False, (x, y_min, y_min - t)
    return True, None


def mirror_pairs_exactly_one(sp, exception: int | None) -> bool:
    """True iff every pair {x, total - x} holds exactly one member.

    Pairs with a negative side always qualify (the other side lands above
    the largest gap), so only x in [0, total] needs scanning.  A pair whose
    two sides coincide (x = total - x) can never hold exactly one member,
    so an even total fails unless the midpoint is exempted.
    """
    total = sp.frobenius + sp.multiplicity
    for x in range(total // 2 + 1):
        if x == exception:
            continue
        if sp.contains(x) == sp.contains(total - x):
            return False
    return True


def window_apery_pairings(sp) -> dict[str, bool]:
    """The verdicts of ``verify_apery_pairings`` by the library's former
    scan of every j in [-2a, 2a], m(t) being the class minimum of t mod a,
    compared with the symmetry flags read off the mirror pairs one by one
    and with the gaps counted by the membership test below c, not by the
    package."""
    a = sp.modulus
    total = sp.frobenius + sp.multiplicity

    def m(t: int) -> int:
        return sp.apery_by_residue[t % a]

    window = range(-2 * a, 2 * a + 1)
    if total % 2 == 1:
        hi, lo = (total + 1) // 2, (total - 1) // 2
        pairing = all(m(hi + j) + m(lo - j) == total + a for j in window)
        symmetric = mirror_pairs_exactly_one(sp, None)
        return {"pairing": pairing, "matches_classification": pairing == symmetric}

    mid = total // 2
    midpoint_gap = not sp.contains(mid)

    def expected(j: int) -> int:
        if j % a == 0:
            return total + (2 * a if midpoint_gap else 0)
        return total + a

    pairing = all(m(mid + j) + m(mid - j) == expected(j) for j in window)
    pseudo_symmetric = mirror_pairs_exactly_one(sp, mid)
    genus = contains_flags(sp, range(sp.conductor)).count(0)
    genus_offset = genus == mid + (1 if midpoint_gap else 0)
    return {
        "midpoint_pairing": pairing,
        "matches_classification": pairing == pseudo_symmetric,
        "genus_offset": genus_offset,
        "genus_offset_necessity": (not pseudo_symmetric) or genus_offset,
    }


def set_hlk_sets(sp):
    """H, L and the finite part of K from the enumerated gaps and members:
    the mirror image of the members within the non-negatives, the gaps
    above the multiplicity whose mirror is outside, and the mirror image
    of the gaps (K contains everything above the mirror total as well)."""
    g, low = sp.frobenius, sp.multiplicity
    total = g + low
    h_tail = {total - s for s in small_elements(sp) if s <= g}
    h = tuple(sorted(set(range(low)) | h_tail))
    l = tuple(x for x in sp.gaps if x > low and not sp.contains(total - x))
    k_below = tuple(sorted(total - x for x in sp.gaps))
    return h, l, k_below


def set_pattern(sp) -> str:
    """The member layout tag read off the enumerated members up to the
    conductor."""
    low, c = sp.multiplicity, sp.conductor
    if low == c:
        return "FULL_INTERVAL"
    if small_elements(sp) == (low, c) and c >= low + 3:
        return "SINGLETON_PLUS_TAIL"
    return "OTHER"


def interval_runs(values: Iterable[int]) -> str:
    """Run-length rendering of a finite integer set: "0-23,25,27"."""
    items = sorted(values)
    runs: list[str] = []
    i = 0
    while i < len(items):
        j = i
        while j + 1 < len(items) and items[j + 1] == items[j] + 1:
            j += 1
        if j == i:
            runs.append(str(items[i]))
        else:
            runs.append(f"{items[i]}-{items[j]}")
        i = j + 1
    return ",".join(runs)


def set_finite_doc(values: Iterable[int], expand: bool) -> Any:
    ordered = sorted(values)
    return ordered if expand else interval_runs(ordered)


def set_cofinite_doc(below: Iterable[int], all_from: int, expand: bool) -> dict[str, Any]:
    """Merge the finite part into the tail where contiguous, then render."""
    items = sorted(below)
    while items and items[-1] == all_from - 1:
        all_from -= 1
        items.pop()
    return {"below": set_finite_doc(items, expand), "all_from": all_from}


def jsonify(value: Any) -> Any:
    """Recursively convert to JSON-stable primitives: a tuple becomes a
    list, a key a ``str``."""
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value
