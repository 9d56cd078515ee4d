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
from typing import Iterable, Iterator

from .errors import CapExceededError, PreconditionError
from .reports import Record

DEFAULT_HORIZON_CAP = 10_000_000
HORIZON_CAP_ENV = "PSEMIGROUPS_HORIZON_CAP"


def horizon_cap() -> int:
    """Largest allowed number of table entries; env var overrides the default."""
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

    def __iter__(self) -> Iterator[int]:
        return iter(self.ordered)

    def __len__(self) -> int:
        return len(self.ordered)


def as_generator_set(gens: GeneratorSet | Iterable[int]) -> GeneratorSet:
    if isinstance(gens, GeneratorSet):
        return gens
    return GeneratorSet(tuple(gens))


class DenumerantTable:
    """Count table for one generator list, extendable in place.

    One staged array per generator is kept (stage i counts tuples over the
    first i+1 generators only), so growing the horizon fills just the new
    indices for each generator.  The table grows exactly to the horizon
    asked for; the caller sets the growth schedule.
    """

    def __init__(self, generators: GeneratorSet | Iterable[int], horizon: int = 0) -> None:
        self.generators = as_generator_set(generators)
        if horizon < 0:
            raise PreconditionError("horizon must be non-negative")
        charge(horizon + 1, "count table entries per stage")
        self._stages: list[list[int]] = [[] for _ in self.generators.ordered]
        self._horizon = -1
        self._fill(horizon)

    @property
    def horizon(self) -> int:
        return self._horizon

    @property
    def counts(self) -> tuple[int, ...]:
        """Snapshot of d(0..horizon)."""
        return tuple(self._stages[-1])

    def _fill(self, new_horizon: int) -> None:
        """Extend each stage to ``new_horizon`` from the previous one, one
        slice, then add s[n - g] to each new s[n] in ascending n.  That
        runs either down each residue class modulo g as a prefix sum or
        over blocks of g entries, each block reading only the block before
        it; whichever takes fewer Python steps."""
        lo, end = self._horizon + 1, new_horizon + 1
        for i, g in enumerate(self.generators.ordered):
            stage = self._stages[i]
            if i:
                stage += self._stages[i - 1][lo:end]
            else:
                stage += [0] * (end - lo)
                if lo == 0:
                    stage[0] = 1
            start = max(lo, g)
            if end - start <= g * g:
                for n in range(start, end, g):
                    stage[n : n + g] = map(add, stage[n : n + g], stage[n - g : n])
            else:
                for r in range(start - g, start):
                    stage[r:end:g] = accumulate(stage[r:end:g])
        self._horizon = new_horizon

    def ensure(self, n: int) -> None:
        """Grow the table to horizon n, unless it already reaches n."""
        if n <= self._horizon:
            return
        charge(n + 1, "count table entries per stage")
        self._fill(n)

    def count(self, n: int) -> int:
        if n < 0:
            raise PreconditionError("count index must be non-negative")
        if n > self._horizon:
            raise PreconditionError("n exceeds the table horizon; call ensure(n)")
        return self._stages[-1][n]


def denumerant(gens: GeneratorSet | Iterable[int], n: int) -> int:
    """d(n) for the given generators, from a table built for this call."""
    if n < 0:
        raise PreconditionError("n must be non-negative")
    return DenumerantTable(gens, n).count(n)

