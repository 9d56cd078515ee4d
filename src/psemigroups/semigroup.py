"""The order-p numerical semigroup of a generator list: every n whose
representation count exceeds p.

Within each residue class modulo a = min(A) the count is non-decreasing
along steps of a (append one more copy of a to any representation), so the
least member of each class is found by a single upward scan, and membership
everywhere follows from those class minima.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable

from .denumerant import DenumerantTable, GeneratorSet, as_generator_set
from .errors import CapExceededError, InternalCheckError, PreconditionError
from .exactmath import bernoulli

DEFAULT_POWER_CAP = 8


@dataclass(frozen=True)
class PSemigroup:
    """One built (generators, p) instance; immutable and freely shareable.

    ``apery_by_residue[j]`` is the least member congruent to j modulo the
    modulus; ``small_elements`` lists the members up to and including the
    conductor, beyond which every integer is a member.
    """

    generators: GeneratorSet
    p: int
    modulus: int
    apery_by_residue: tuple[int, ...]
    apery_sorted: tuple[int, ...]
    gaps: tuple[int, ...]
    small_elements: tuple[int, ...]
    multiplicity: int
    frobenius: int
    conductor: int
    kunz: tuple[int, ...]

    def contains(self, n: int) -> bool:
        """Membership test: n is in iff it is at least its class minimum."""
        return n >= 0 and n >= self.apery_by_residue[n % self.modulus]

    __contains__ = contains


def build(gens: GeneratorSet | Iterable[int], p: int) -> PSemigroup:
    """Build (and cache) the instance for the given generators and p."""
    A = as_generator_set(gens)
    if p < 0:
        raise PreconditionError("p must be non-negative")
    return _build(A.ordered, p)


@lru_cache(maxsize=512)
def _build(ordered: tuple[int, ...], p: int) -> PSemigroup:
    A = GeneratorSet(ordered)
    a = A.least
    table = DenumerantTable(A, horizon=max(A.ordered))
    minima = _least_members_by_residue(table, p, a)
    frobenius = max(minima) - a
    conductor = frobenius + 1
    table.ensure(max(minima))
    gaps = tuple(n for n in range(frobenius + 1) if table.count(n) <= p)
    small = tuple(n for n in range(conductor + 1) if table.count(n) > p)
    sp = PSemigroup(
        generators=A,
        p=p,
        modulus=a,
        apery_by_residue=tuple(minima),
        apery_sorted=tuple(sorted(minima)),
        gaps=gaps,
        small_elements=small,
        multiplicity=min(minima),
        frobenius=frobenius,
        conductor=conductor,
        kunz=tuple((minima[j] - j) // a for j in range(a)),
    )
    _validate(sp, table)
    return sp


def _least_members_by_residue(
    table: DenumerantTable, p: int, modulus: int
) -> list[int]:
    found: list[int | None] = [None] * modulus
    remaining = modulus
    n = 0
    while remaining:
        table.ensure(n)
        j = n % modulus
        if found[j] is None and table.count(n) > p:
            found[j] = n
            remaining -= 1
        n += 1
    return [v for v in found if v is not None]


def _validate(sp: PSemigroup, table: DenumerantTable) -> None:
    a, p = sp.modulus, sp.p
    for j, m in enumerate(sp.apery_by_residue):
        below = m - a
        ok = (
            m % a == j
            and table.count(m) > p
            and (below < 0 or table.count(below) <= p)
        )
        if not ok:
            raise InternalCheckError(f"class minimum {m} fails its conditions")
    if sorted(n % a for n in sp.apery_by_residue) != list(range(a)):
        raise InternalCheckError("class minima do not cover all residues")
    if sp.small_elements[0] != sp.multiplicity:
        raise InternalCheckError("least member disagrees with class minima")
    if any(k < 0 for k in sp.kunz):
        raise InternalCheckError("negative Kunz coordinate")


def apery_set(
    gens: GeneratorSet | Iterable[int], p: int, modulus: int | None = None
) -> tuple[int, ...]:
    """Least member of each residue class modulo ``modulus`` (default min(A)).

    The modulus must be one of the generators: the single upward scan per
    class is justified by count monotonicity along steps of a generator.
    """
    A = as_generator_set(gens)
    if p < 0:
        raise PreconditionError("p must be non-negative")
    if modulus is None or modulus == A.least:
        return build(A, p).apery_by_residue
    if modulus not in A.ordered:
        raise PreconditionError("modulus must be one of the generators")
    table = DenumerantTable(A, horizon=max(A.ordered))
    return tuple(_least_members_by_residue(table, p, modulus))


def frobenius_p(gens: GeneratorSet | Iterable[int], p: int) -> int:
    """Largest non-member (equals the largest gap)."""
    return build(gens, p).frobenius


def multiplicity_p(gens: GeneratorSet | Iterable[int], p: int) -> int:
    """Least member."""
    return build(gens, p).multiplicity


def genus_p(gens: GeneratorSet | Iterable[int], p: int) -> int:
    """Number of gaps; the class-minima formula is re-derived and compared
    against the direct enumeration on every call."""
    sp = build(gens, p)
    direct = len(sp.gaps)
    total = sum(sp.apery_by_residue)
    formula = Fraction(total, sp.modulus) - Fraction(sp.modulus - 1, 2)
    if formula != direct:
        raise InternalCheckError(
            f"genus mismatch: enumeration {direct}, formula {formula}"
        )
    return direct


def sylvester_sum_p(gens: GeneratorSet | Iterable[int], p: int) -> int:
    """Sum of the gaps, cross-checked against the class-minima formula."""
    sp = build(gens, p)
    direct = sum(sp.gaps)
    a = sp.modulus
    m = sp.apery_by_residue
    formula = (
        Fraction(sum(x * x for x in m), 2 * a)
        - Fraction(sum(m), 2)
        + Fraction(a * a - 1, 12)
    )
    if formula != direct:
        raise InternalCheckError(
            f"gap-sum mismatch: enumeration {direct}, formula {formula}"
        )
    return direct


def kunz_coordinates(gens: GeneratorSet | Iterable[int], p: int) -> tuple[int, ...]:
    """(class minimum - residue) / modulus for each residue class."""
    return build(gens, p).kunz


def _check_power(mu: int, mu_cap: int) -> None:
    if mu < 0:
        raise PreconditionError("exponent must be non-negative")
    if mu > mu_cap:
        raise CapExceededError(f"exponent {mu} exceeds the cap {mu_cap}")


def power_sum_gaps(
    gens: GeneratorSet | Iterable[int],
    p: int,
    mu: int,
    *,
    mu_cap: int = DEFAULT_POWER_CAP,
) -> int:
    """Sum of n^mu over the gaps, by direct summation (0^0 = 1)."""
    _check_power(mu, mu_cap)
    sp = build(gens, p)
    return sum(n**mu for n in sp.gaps)


def power_sum_bernoulli(
    gens: GeneratorSet | Iterable[int],
    p: int,
    mu: int,
    *,
    mu_cap: int = DEFAULT_POWER_CAP,
) -> int:
    """Sum of n^mu over the gaps, evaluated from the class minima.

    Exact-rational evaluation of

        (1/(mu+1)) * sum_{k=0}^{mu} C(mu+1, k) B_k a^(k-1) S_(mu+1-k)
            + (B_(mu+1)/(mu+1)) * (a^(mu+1) - 1)

    with S_e the e-th power sum of the class minima and B the Bernoulli
    numbers (B_1 = -1/2).  Intermediate terms are not integers, so rational
    arithmetic is mandatory; a non-integer final value is a hard failure.
    """
    _check_power(mu, mu_cap)
    sp = build(gens, p)
    a = sp.modulus
    m = sp.apery_by_residue
    total = Fraction(0)
    for kappa in range(mu + 1):
        s = sum(x ** (mu + 1 - kappa) for x in m)
        total += comb(mu + 1, kappa) * bernoulli(kappa) * Fraction(a) ** (kappa - 1) * s
    total /= mu + 1
    total += bernoulli(mu + 1) / (mu + 1) * (a ** (mu + 1) - 1)
    if total.denominator != 1 or total < 0:
        raise InternalCheckError(
            f"power-sum formula produced a non-integer or negative value: {total}"
        )
    return int(total)


def weighted_power_sum(
    gens: GeneratorSet | Iterable[int],
    p: int,
    weight: Fraction | int | str,
    mu: int,
    *,
    mu_cap: int = DEFAULT_POWER_CAP,
) -> Fraction:
    """Sum of weight^n * n^mu over the gaps (0^0 = 1); weight 1 reproduces
    the plain power sum.

    With weight num/den the terms share the denominator den^F (F the
    largest gap), so the numerators num^n * den^(F-n) * n^mu are summed as
    integers, by Horner's rule over the gaps, and reduced once.
    """
    _check_power(mu, mu_cap)
    w = Fraction(weight)
    if w == 0:
        raise PreconditionError("weight must be non-zero")
    sp = build(gens, p)
    num, den = w.numerator, w.denominator
    total, num_power, prev = 0, 1, 0
    for n in sp.gaps:
        num_power *= num ** (n - prev)
        total = total * den ** (n - prev) + num_power * n**mu
        prev = n
    return Fraction(total, den**prev)
