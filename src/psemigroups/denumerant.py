"""Representation counting for a fixed list of generators.

The count for n is the number of coefficient tuples (x_1, ..., x_k) of
non-negative integers with sum_i a_i x_i = n, one slot per listed
generator.  Every listed generator gets a slot, so a generator that is
redundant for the generated semigroup still raises the counts.
"""

from __future__ import annotations

import os
from itertools import accumulate
from math import gcd
from operator import add
from typing import Iterable

from .errors import CapExceededError, PreconditionError
from .reports import Record

DEFAULT_HORIZON_CAP = 10_000_000
HORIZON_CAP_ENV = "PSEMIGROUPS_HORIZON_CAP"


def horizon_cap() -> int:
    """Largest number of units, whatever they count, that one ``charge``
    admits; env var overrides the default."""
    raw = os.environ.get(HORIZON_CAP_ENV)
    if raw is None:
        return DEFAULT_HORIZON_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise PreconditionError(
            f"{HORIZON_CAP_ENV} must be an integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise PreconditionError(f"{HORIZON_CAP_ENV} must be positive, got {cap}")
    return cap


def charge(amount: int, what: str) -> None:
    """Refuse ``amount`` units of work when it exceeds the horizon cap;
    ``what`` names them in the refusal.  The only place the cap refuses."""
    cap = horizon_cap()
    if amount > cap:
        raise CapExceededError(f"{amount} {what}, past the cap {cap}")


class GeneratorSet(Record):
    """Validated generator list.

    ``ordered`` preserves the caller's order; representation tuples are
    indexed by it.  Requires at least two pairwise-distinct integers, each
    >= 2, with overall gcd 1 (duplicates would silently change counts, so
    they are rejected rather than removed).
    """

    __slots__ = ("ordered",)

    ordered: tuple[int, ...]

    def __init__(self, ordered: Iterable[int]) -> None:
        elems = tuple(ordered)
        for a in elems:
            if isinstance(a, bool) or not isinstance(a, int):
                raise PreconditionError(f"generators must be integers, got {a!r}")
        if len(elems) < 2:
            raise PreconditionError("need at least two generators")
        if any(a < 2 for a in elems):
            raise PreconditionError("every generator must be at least 2")
        if len(set(elems)) != len(elems):
            raise PreconditionError("duplicate generators are not allowed")
        if gcd(*elems) != 1:
            raise PreconditionError("generators must have gcd 1")
        super().__init__(elems)

    @property
    def least(self) -> int:
        return min(self.ordered)

    # psgbench's tracer counts table entries with len(table.generators)
    def __len__(self) -> int:
        return len(self.ordered)


def as_generator_set(gens: GeneratorSet | Iterable[int]) -> GeneratorSet:
    if isinstance(gens, GeneratorSet):
        return gens
    return GeneratorSet(tuple(gens))


class DenumerantTable:
    """Count table for one generator list, extendable in place.

    ``counts`` holds d(0..horizon), one list, read-only to callers.  Stage
    i counts tuples over the first i+1 generators only; each stage keeps
    just its last min(g_i, horizon + 1) values, the tail that the next
    growth reads, so growing the horizon fills just the new indices for
    each generator and holds no more than the entries it charged.
    The table grows exactly to the horizon asked for; the caller sets the
    growth schedule.
    """

    def __init__(self, generators: GeneratorSet | Iterable[int], horizon: int = 0) -> None:
        self.generators = as_generator_set(generators)
        if horizon < 0:
            raise PreconditionError("horizon must be non-negative")
        charge(horizon + 1, "count table entries")
        self.counts: list[int] = []
        self._tails: list[list[int]] = [[] for _ in self.generators.ordered]
        self._fill(horizon)

    @property
    def horizon(self) -> int:
        return len(self.counts) - 1

    def _fill(self, new_horizon: int) -> None:
        """Append d(horizon + 1 .. new_horizon): one zero segment, 1 at
        n = 0, passes through every stage.  Stage g adds its tail, its
        last values before the segment (g of them once it has g), to the
        segment's entries below g that they align with, then adds s[n - g]
        to each later s[n] in ascending n: one C-level prefix sum down each
        residue class modulo g with two or more entries in the segment,
        min(g, len - g) of them over len entries, so a stage whose g is at
        least the segment's length makes none, however large g is."""
        segment = [0] * (new_horizon - self.horizon)
        if not self.counts:
            segment[0] = 1
        end = len(segment)
        for g, tail in zip(self.generators.ordered, self._tails):
            lo = g - len(tail)
            segment[lo:g] = map(add, segment[lo:g], tail)
            for r in range(min(g, end - g)):
                segment[r:end:g] = accumulate(segment[r:end:g])
            tail += segment[-g:]
            del tail[:-g]
        self.counts += segment

    def ensure(self, n: int) -> None:
        """Grow the table to horizon n, unless it already reaches n."""
        if n <= self.horizon:
            return
        charge(n + 1, "count table entries")
        self._fill(n)

    def count(self, n: int) -> int:
        if n < 0:
            raise PreconditionError("count index must be non-negative")
        if n > self.horizon:
            raise PreconditionError("n exceeds the table horizon; call ensure(n)")
        return self.counts[n]


def denumerant(gens: GeneratorSet | Iterable[int], n: int) -> int:
    """d(n) for the given generators, from a table built for this call."""
    if n < 0:
        raise PreconditionError("n must be non-negative")
    return DenumerantTable(gens, n).count(n)

