"""The order-p numerical semigroup of a generator list: every n whose
representation count exceeds p.

Within each residue class modulo a generator g the count is non-decreasing
along steps of g (append one more copy of g to any representation), so the
least member of each class, the class minimum, decides membership in the
whole class; every invariant of an instance is derived from its minima
modulo a = min(A), its minima modulo any other g included.

The minima for every p of a range come from one computation at the largest
p, P, along one of two exact routes, picked by the one rule that
``_class_minima`` states:

- the count table, grown geometrically up to that rule's limit; once
  every class column exceeds P within it, each run's minima are read by
  bisection;
- (P+1)-best lists: d(n) counts, with multiplicity, the values t <= n
  congruent to n modulo a that are representable over the generators
  other than a, so the class minimum at p is the (p+1)-th smallest of
  them.  The lists are merged one generator at a time by a round-robin
  walk over the residue cycles of that generator, with no table:
  O((k-1)*a*(P+1)) element work in O((k-1)*a) Python-level merges of
  sorted runs, plus one merge of progressions per cycle; at P = 0, one flat
  list of a integers and O((k-1)*a) steps, Boecker and Liptak's round robin.

An instance is a pure function of its generators and minima, with no p.
Class j's minimum moves once p reaches d(m_j), so a route gives where the
minima at p end, and ``_instances`` makes and checks one instance a run.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, count, islice, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import add, eq, getitem, le, mul, neg
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .denumerant import DenumerantTable, GeneratorSet, as_generator_set, charge, horizon_cap
from .errors import CapExceededError, InternalCheckError, PreconditionError
from .reports import Record

if TYPE_CHECKING:
    # p -> (class minima at p, the least p' > p whose minima differ)
    RunAt = Callable[[int], tuple[tuple[int, ...], int]]

POWER_CAP = 8
# B_0 .. B_(POWER_CAP + 1), every Bernoulli number the power-sum formula
# reads, as integers over their common denominator: exactmath.bernoulli_row
# is their second route
_BERNOULLI_DEN = 210
_BERNOULLI = [210, -105, 35, 0, -7, 0, 5, 0, -7, 0]
# The sum of t^e over t < k is sum_i _FAULHABER[e][i] * C(k, i + 1), with
# _FAULHABER[e][i] = i! * S(e, i), S the Stirling numbers of the second
# kind: t^e = sum_i i! * S(e, i) * C(t, i), and C(t, i) summed over t < k
# is C(k, i + 1).  S(e, i) = i * S(e-1, i) + S(e-1, i-1) makes each row
# i times the sum of the previous row's entries i - 1 and i, from row 0, [1].
_FAULHABER = list(accumulate(
    range(POWER_CAP),
    lambda row, _: [i * (x + y) for i, (x, y) in enumerate(zip([0, *row], [*row, 0]))],
    initial=[1],
))

class PSemigroup(Record):
    """One built semigroup, a pure function of its generators and class
    minima, with no p; immutable, freely shareable, compared by value.

    ``apery_by_residue[j]`` is the least member congruent to j modulo the
    modulus.  The instance holds O(a) data; ``gaps`` is derived from the
    class minima on each access and never stored.
    """

    __slots__ = (
        "generators",
        "modulus",
        "apery_by_residue",
        "apery_sorted",
        "multiplicity",
        "frobenius",
        "conductor",
        "kunz",
    )

    generators: GeneratorSet
    modulus: int
    apery_by_residue: tuple[int, ...]
    apery_sorted: tuple[int, ...]
    multiplicity: int
    frobenius: int
    conductor: int
    kunz: tuple[int, ...]

    def contains(self, n: int) -> bool:
        """Membership test: n is in iff it is at least its class minimum."""
        return n >= 0 and n >= self.apery_by_residue[n % self.modulus]

    __contains__ = contains

    @property
    def gaps(self) -> tuple[int, ...]:
        """The non-members, ascending; all lie below the conductor.  Read
        off the membership flags by ``sets.gap_tuple``."""
        from .sets import gap_tuple

        return gap_tuple(self)


def build(gens: GeneratorSet | Iterable[int], p: int) -> PSemigroup:
    """The instance for the given generators and p, built on each call:
    callers hold it and pass it on rather than building it again."""
    return next(build_range(gens, range(p, p + 1)))[1]


def build_range(
    gens: GeneratorSet | Iterable[int], p_values: range
) -> Iterator[tuple[range, PSemigroup]]:
    """(ps, instance) for each run of ``p_values``, an ascending range, in
    order: ps, a sub-range, holds the p with equal minima.  One computation
    of the class minima up to the last p (and its cap checks) happens here;
    each instance is made when the iterator reaches it.  The runs are one
    chain for ``_validate``: each instance is checked against the run
    before it, the first, when the range starts above 0, against the p = 0
    minima of one flat round robin.  The a class minima of every p are
    charged before any instance is made, with the a integers of that link."""
    A = as_generator_set(gens)
    if p_values.step < 0:
        raise PreconditionError("p range must ascend")
    if not p_values:
        return iter(())
    first, top = p_values[0], p_values[-1]
    if first < 0:
        raise PreconditionError("p must be non-negative")
    instances = (top - first) // p_values.step + 1  # len() stops at 2^63
    charge(A.least * instances, f"class minima of the {instances} instances of the p range")
    run_at = _class_minima(A, top)
    return _instances(A, p_values, run_at, (0, _flat_minima(A)) if first else None)


def _instances(
    A: GeneratorSet, p_values: range, run_at: RunAt, earlier: tuple[int, Sequence[int]] | None
) -> Iterator[tuple[range, PSemigroup]]:
    """(ps, instance) for each run of ``p_values``, one ``run_at`` a run:
    the one place that decides when S_p repeats.  Each is checked against
    ``earlier``, (q, minima at q), the chain's link before it."""
    a, p, stop, step = A.least, p_values.start, p_values.stop, p_values.step
    while p < stop:
        minima, end = run_at(p)
        _validate(A, minima, p, earlier)
        frobenius = max(minima) - a
        ps = range(p, min(end, stop), step)
        yield ps, PSemigroup(A, a, minima, tuple(sorted(minima)), min(minima), frobenius,
                             frobenius + 1, tuple((m - j) // a for j, m in enumerate(minima)))
        earlier = ps[-1], minima
        p = ps[-1] + step


def _class_minima(A: GeneratorSet, top: int) -> RunAt:
    """``RunAt`` of the minima modulo a = min(A) for 0 <= p <= top (an end
    past top: they hold to top); the only place a route is picked, by one rule:

    - the table's limit is (k-1) * a * (top + 1) // k when the lists'
      a * (top + 1) entries fit under the cap, so that its fill, k steps
      an entry, does at most the lists' element work, and the cap when
      they do not;
    - a table settles only when each of its last a counts exceeds top,
      and those counts sum to N(h) <= ``_count_bound(A, h)``, so one is
      tried iff max(A) < limit and
      ``_count_bound(A, limit - 1) >= a * (top + 1)``.  If none is tried,
      or the one tried does not settle, the lists are charged, which
      refuses when they do not fit, and then built.
    """
    cap, k = horizon_cap(), len(A)
    list_entries = A.least * (top + 1)
    limit = (k - 1) * list_entries // k if list_entries <= cap else cap
    run_at = None
    if max(A.ordered) < limit and _count_bound(A, limit - 1) >= list_entries:
        run_at = _minima_from_table(A, top, limit)
    if run_at is None:
        charge(list_entries, f"list entries for the class minima at p = {top}")
        run_at = _minima_from_lists(A, top)
    return run_at


def _minima_from_table(A: GeneratorSet, top: int, limit: int) -> RunAt | None:
    """Count-table route: grow the table from max(A) by h -> 2h + 64, to
    at most ``limit`` entries, until the last entry of every class
    column exceeds ``top``; None when it does not within that size.
    Columns are non-decreasing, so the minimum of class j at p is j + a*i,
    i its column's entries at most p, until p reaches d(m_j), entry i."""
    a = A.least
    table = DenumerantTable(A, max(A.ordered))
    while min(table.counts[-a:]) <= top:
        h = table.horizon
        if h + 1 >= limit:
            return None
        table.ensure(min(2 * h + 64, limit - 1))
    columns = [table.counts[j::a] for j in range(a)]

    def run_at(p: int) -> tuple[tuple[int, ...], int]:
        below = list(map(bisect_right, columns, repeat(p)))
        return tuple(j + a * i for j, i in enumerate(below)), min(map(getitem, columns, below))

    return run_at


def _count_bound(A: GeneratorSet, n: int) -> int:
    """An upper bound on N(n), the number of points (x_b) over the m
    generators b other than a with sum(b * x_b) <= n: the sum of the last
    a counts of a table to horizon n, which ``_class_minima``'s rule
    reads, and so at least each d(t), t <= n, as the a coordinate of a
    representation is fixed by the others.  The unit cubes at those points
    lie in the simplex sum(b * y_b) <= n + sum(b), whose volume bounds N(n)."""
    others = [b for b in A.ordered if b != A.least]
    m = len(others)
    return (n + sum(others)) ** m // (factorial(m) * prod(others))


def _minima_from_lists(A: GeneratorSet, top: int) -> RunAt:
    """(top+1)-best-lists route: for each residue class modulo a, the
    top + 1 smallest values (with multiplicity) representable over the
    generators other than a; the minimum of class j at p is the p-th entry
    of list j (counting from 0), until p passes the entries equal to it."""
    a, keep = A.least, top + 1
    if keep == 1:
        minima = tuple(_flat_minima(A))
        return lambda p: (minima, 1)
    lists: list[list[int]] = [[] for _ in range(a)]
    lists[0].append(0)
    for b in A.ordered:
        if b != a:
            lists = _merge_generator(lists, b, keep)

    def run_at(p: int) -> tuple[tuple[int, ...], int]:
        minima = tuple(values[p] for values in lists)
        return minima, min(map(bisect_right, lists, minima))

    return run_at


def _flat_minima(A: GeneratorSet) -> list[int]:
    """The class minima at p = 0, one flat list of a integers, by one
    ``round_robin`` per generator other than a: O(k*a) steps."""
    a = A.least
    # a * max(A) stands for "none yet": a least value has fewer than a
    # summands, so it is below that
    flat = [a * max(A.ordered)] * a
    flat[0] = 0
    for b in A.ordered:
        if b != a:
            round_robin(flat, b)
    return flat


def round_robin(values: list[int], step: int) -> None:
    """Boecker and Liptak's round robin, in place: with indices modulo
    n = len(values), values[t] becomes min(values[t], values[t - step] + step)
    once round each cycle r, r + step, ... of the gcd(n, step) cycles, the
    indices congruent to r modulo gcd(n, step).  Each walk starts from its
    cycle's least value, which no other value of the cycle can lower."""
    n = len(values)
    g = gcd(n, step)
    for r in range(g):
        s = min(range(r, n, g), key=values.__getitem__)
        for t in range(s + step, s + n // g * step, step):
            values[t % n] = min(values[t % n], values[(t - step) % n] + step)


def _merge_generator(lists: list[list[int]], b: int, keep: int) -> list[list[int]]:
    """The lists once b may be used too: class r keeps the ``keep``
    smallest, with multiplicity, of its old list and of the new list of
    class r - b shifted by b, an exact form of Boecker and Liptak's
    round-robin step (Algorithmica 48, 2007).  The classes fall into
    g = gcd(a, b) cycles s0, s0 + b, ... of length L = a/g, and going once
    round a cycle adds W = L*b.  A first walk round each cycle collects
    the values that reach s0 without going round; the new list of s0 is
    the ``keep`` smallest of x + t*W over them and t >= 0, one merge of
    their progressions, and a second walk feeds it on round the cycle.
    So a generator costs about 2a Python steps, each a merge of two
    ascending runs by one C-level ``list.sort``, and O(a*keep) element
    work, plus one merge of at most ``keep`` progressions per cycle."""
    from heapq import merge

    a = len(lists)
    g = gcd(a, b)
    length = a // g
    new: list[list[int]] = [[] for _ in range(a)]
    for s0 in range(g):
        rest = [s % a for s in range(s0 + b, s0 + length * b, b)]
        fed: list[int] = []
        for s in rest:
            fed = _keep_union(lists[s], fed, b, keep)
        reach = _keep_union(lists[s0], fed, b, keep)
        fed = new[s0] = list(islice(merge(*[count(x, length * b) for x in reach]), keep))
        for s in rest:
            fed = new[s] = _keep_union(lists[s], fed, b, keep)
    return new


def _keep_union(old: list[int], fed: list[int], b: int, keep: int) -> list[int]:
    """The ``keep`` smallest of two ascending lists of at most ``keep``
    values, the second shifted by b; either list may be returned as it is,
    so neither is changed afterwards."""
    if not fed:
        return old
    merged = old + [v + b for v in fed]
    if old:
        merged.sort()
        del merged[keep:]
    return merged


def _validate(
    A: GeneratorSet,
    minima: tuple[int, ...],
    p: int,
    earlier: tuple[int, Sequence[int]] | None = None,
) -> None:
    """O(k*a) checks of class minima at p from either route.  A count
    never drops along a step of a generator b, so the member m_(j-b) + b
    bounds m_j.  At p = 0 the minima are shortest paths in the residue
    graph modulo a (Nijenhuis 1979; Boecker and Liptak 2007), so they are
    exact iff also tight: m_0 = 0 and every other m_j is its least bound.
    At p > 0 no cheap tight certificate is known, so the minima are
    checked as one link of a chain, against ``earlier``, (q, minima at q)
    for some q < p: in a range, the run before, or the p = 0 minima from the
    flat round robin, which neither p > 0 route uses.  From below, the
    minima never decrease as p grows.  From above, d(n + lcm(a, b)) >=
    d(n) + 1 for every b != a: shift each representation of n by
    lcm/a copies of a, then add lcm/b copies of b to the one with the
    fewest a's.  So m_j(p) <= m_j(q) + (p - q) * L, L the least such lcm.
    Exactness beyond these rests on the two routes' agreement and on the
    brute-force tests."""
    a = A.least
    if len(minima) != a:
        raise InternalCheckError("class minima do not cover all residues")
    for j, m in enumerate(minima):
        if m % a != j:
            raise InternalCheckError(f"class minimum {m} is not in class {j}")
        if m < 0:
            raise InternalCheckError("negative Kunz coordinate")
    tight = 0  # byte j is 1 once some m_(j-b) + b equals m_j
    for b in A.ordered:
        if b != a:  # m_j + a bounds m_j, never tightly
            s = b % a
            bound = list(map(add, minima[-s:] + minima[:-s], repeat(b)))  # m_(j-b) + b
            if (j := _first_above(minima, bound)) >= 0:
                raise InternalCheckError(
                    f"class minimum {minima[j]} exceeds {minima[(j - b) % a]} + {b}"
                )
            if p == 0:
                tight |= int.from_bytes(bytes(map(eq, minima, bound)), "little")
    if p == 0:
        j = 0 if minima[0] else (tight | 1).to_bytes(a, "little").find(0)
        if j >= 0:
            least = min(minima[(j - b) % a] + b for b in A.ordered if b != a) if j else 0
            raise InternalCheckError(
                f"class minimum {minima[j]} is not tight at p = 0: {least} expected"
            )
    if earlier is None:
        return
    q, below = earlier
    if (j := _first_above(below, minima)) >= 0:
        raise InternalCheckError(
            f"class minimum {minima[j]} at p = {p} is below {below[j]},"
            f" its class's minimum at p = {q}"
        )
    L = min(lcm(a, b) for b in A.ordered if b != a)
    if (j := _first_above(minima, list(map(add, below, repeat((p - q) * L))))) >= 0:
        raise InternalCheckError(
            f"class minimum {minima[j]} at p = {p} exceeds {below[j]} + {p - q} * {L},"
            f" its class's bound from p = {q}"
        )


def _first_above(lower: Sequence[int], upper: Sequence[int]) -> int:
    """The first index at which ``lower`` exceeds ``upper``, or -1; the
    pass that finds none is one C-level ``all``."""
    if all(map(le, lower, upper)):
        return -1
    return next(j for j, (x, y) in enumerate(zip(lower, upper)) if x > y)


def gap_count(sp: PSemigroup) -> int:
    """Number of gaps, in O(a): the one row of ``gap_power_sums(sp, 0)``,
    so checked against Selmer's genus formula on every call."""
    return gap_power_sums(sp, 0)[0]


def gap_sum(sp: PSemigroup) -> int:
    """Sum of the gaps, in O(a): row mu = 1 of ``gap_power_sums``, so
    checked against Selmer's gap-sum formula on every call, as is the genus
    in row 0."""
    return gap_power_sums(sp, 1)[1]


def check_power(mu: int) -> None:
    """Refuse an exponent outside 0..POWER_CAP: the power sums' Bernoulli
    recurrence and terms grow with it."""
    if mu < 0:
        raise PreconditionError("exponent must be non-negative")
    if mu > POWER_CAP:
        raise CapExceededError(f"exponent {mu} exceeds the cap {POWER_CAP}")


def power_sum_formula(sp: PSemigroup, rows: int) -> list[tuple[int, int]]:
    """``power_sum_bernoulli``'s formula at every mu < rows, each as an
    integer numerator and its denominator a * (mu + 1) * _BERNOULLI_DEN,
    unreduced, so that no rational is made; from one table of the power
    sums S_1..S_rows of the minima: the column of their e-th powers is the
    (e - 1)-th times the minima.  Selmer's genus and gap-sum forms are its
    values at mu = 0 and mu = 1."""
    a, minima = sp.modulus, sp.apery_by_residue
    sums, column = [a, sum(minima)], minima  # S_0 = a, the number of minima
    for _ in range(1, rows):
        column = list(map(mul, column, minima))
        sums.append(sum(column))
    values = []
    for mu in range(rows):
        total = a * _BERNOULLI[mu + 1] * (a ** (mu + 1) - 1)
        for kappa in range(mu + 1):
            total += comb(mu + 1, kappa) * _BERNOULLI[kappa] * a**kappa * sums[mu + 1 - kappa]
        values.append((total, a * (mu + 1) * _BERNOULLI_DEN))
    return values


def gap_power_sums(sp: PSemigroup, mu_max: int) -> list[int]:
    """Rows mu = 0..mu_max of the sums over the gaps of n^mu (0^0 = 1),
    read off the class minima: the gaps of class j are j + t*a for
    t < kunz_j, and nothing F-sized is built.  The exponent is checked
    before any row is summed, and every row is checked against
    ``power_sum_bernoulli``'s formula, all from one table of the power
    sums of the minima.  The weighted rows are
    ``exactmath.weighted_power_sums``.
    """
    check_power(mu_max)
    rows = mu_max + 1
    direct = class_power_sums(sp, rows, 1)
    for mu, (total, formula) in enumerate(zip(direct, power_sum_formula(sp, rows))):
        if formula[0] != total * formula[1]:
            from fractions import Fraction

            raise InternalCheckError(
                f"power sum at mu = {mu} mismatch: by class {total}, formula {Fraction(*formula)}"
            )
    return direct


def class_power_sums(sp: PSemigroup, rows: int, sign: int) -> list[int]:
    """Rows mu < rows of the sum over classes j of sign^j times the sum of
    (j + t*a)^mu over t < kunz_j, sign being 1 or -1, in integers: the
    binomial expansion in t leaves the sums of t^e over t < kunz_j, which
    _FAULHABER writes in the C(kunz_j, i + 1).  O(a * rows^2) steps, each
    over the a classes at once."""
    a = sp.modulus
    binoms = [list(map(comb, sp.kunz, repeat(i + 1))) for i in range(rows)]
    powers = [list(map(pow, range(a), repeat(d))) for d in range(rows)]
    if sign < 0:
        for column in powers:
            column[1::2] = map(neg, column[1::2])
    # moments[d][i] = sum over j of sign^j * j^d * C(kunz_j, i + 1)
    moments = [
        [sum(map(mul, powers[d], binoms[i])) for i in range(rows - d)] for d in range(rows)
    ]
    return [
        sum(
            comb(mu, e) * a**e * sum(f * moments[mu - e][i] for i, f in enumerate(_FAULHABER[e]))
            for e in range(mu + 1)
        )
        for mu in range(rows)
    ]
