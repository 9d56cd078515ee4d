"""The benchmark's own route to the class minima, independent of the
package: it is used to size the workloads, to describe each instance by
a, k, p, F and genus, and as a second route that checks the program's
numbers and flags.

Within each residue class modulo a = min(A) the representation count is
non-decreasing along steps of a, so the least member of class j for order p
is the first n = j (mod a) whose count exceeds p.  At p = 0 the minima are
shortest paths over the residues (Dijkstra); for p > 0 the counts are
tabulated up to a horizon that doubles until every class has its minimum.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Instance:
    """Class minima of one (generators, p) and the invariants they fix."""

    gens: tuple[int, ...]
    p: int
    minima: tuple[int, ...]

    @property
    def a(self) -> int:
        return min(self.gens)

    @property
    def k(self) -> int:
        return len(self.gens)

    @property
    def frobenius(self) -> int:
        return max(self.minima) - self.a

    @property
    def multiplicity(self) -> int:
        return min(self.minima)

    @property
    def genus(self) -> int:
        return sum((m - j) // self.a for j, m in enumerate(self.minima))

    @property
    def gap_sum(self) -> int:
        a, total = self.a, 0
        for j, m in enumerate(self.minima):
            q = (m - j) // a
            total += q * j + a * q * (q - 1) // 2
        return total

    @property
    def total(self) -> int:
        """The mirror total, frobenius + multiplicity."""
        return self.frobenius + self.multiplicity

    def contains(self, n: int) -> bool:
        return n >= self.minima[n % self.a]

    def members(self, top: int) -> bytes:
        """Membership of 0..top, one byte each: n is a member iff it is at
        least the minimum of its class."""
        a, out = self.a, bytearray(top + 1)
        for m in self.minima:
            out[m::a] = b"\x01" * len(range(m, top + 1, a))
        return bytes(out)

    @cached_property
    def symmetry(self) -> dict[str, bool]:
        """The mirror flags, from membership alone.  ``same`` counts the x in
        [0, total] whose mirror total - x has the same membership; the
        midpoint of an even total always does."""
        m, g, total = self.multiplicity, self.frobenius, self.total
        mem = self.members(total)
        same = sum(map(operator.eq, mem, reversed(mem)))
        symmetric = same == 0
        window = sum(mem[m : g + 1])
        ls = sorted(self.minima)
        return {
            "symmetric": symmetric,
            "pseudo_symmetric": total % 2 == 0 and same == 1,
            "completely_symmetric": symmetric and m == g + 1,
            "almost_symmetric": self._almost_symmetric(mem),
            "window_counts": 2 * window == g - m + 1,
            "sorted_pairing": all(ls[i] + ls[-i - 1] == total + self.a for i in range(1, self.a // 2 + 1)),
            "genus_midpoint": 2 * self.genus == total + 1,
        }

    def _almost_symmetric(self, mem: bytes) -> bool:
        """Every gap x > multiplicity whose mirror is a gap is
        pseudo-Frobenius: x + s - multiplicity is a member for every member
        s in (multiplicity, multiplicity + frobenius]."""
        m, g, total = self.multiplicity, self.frobenius, self.total
        gapmask = int("".join("0" if mem[x] else "1" for x in range(g, -1, -1)), 2)
        shifts = int("".join("1" if mem[t + m] else "0" for t in range(g, 0, -1)) + "0", 2)
        return all(
            (gapmask >> x) & shifts == 0
            for x in range(m + 1, g + 1)
            if not mem[x] and not mem[total - x]
        )


def _minima_p0(gens: tuple[int, ...]) -> tuple[int, ...]:
    a = min(gens)
    dist = [None] * a
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None:
            continue
        dist[r] = d
        for b in gens:
            s = (r + b) % a
            if dist[s] is None:
                heapq.heappush(heap, (d + b, s))
    return tuple(dist)


def _counts(gens: tuple[int, ...], horizon: int) -> list[int]:
    counts = [0] * (horizon + 1)
    counts[0] = 1
    for b in gens:
        for n in range(b, horizon + 1):
            counts[n] += counts[n - b]
    return counts


def instances(gens: tuple[int, ...], p_values: list[int]) -> list[Instance]:
    """One Instance per p, all from a single count table."""
    gens = tuple(gens)
    if p_values == [0]:
        return [Instance(gens, 0, _minima_p0(gens))]
    a, top = min(gens), max(p_values)
    horizon = 2 * max(_minima_p0(gens)) + a
    while True:
        counts = _counts(gens, horizon)
        columns = [counts[j::a] for j in range(a)]
        if all(column[-1] > top for column in columns):
            break
        horizon *= 2
    return [
        Instance(gens, p, tuple(j + bisect_right(c, p) * a for j, c in enumerate(columns)))
        for p in p_values
    ]
