"""Mechanical verifiers for the scaling identities: multiplying all base
generators by a coprime factor (frobenius/genus transport and symmetry
preservation), and dividing out the common factor of all generators after
the first, whose sorted minima modulo the first generator it compares
(``minima_modulo``).
"""

from __future__ import annotations

from math import gcd
from typing import Any, Callable, Iterable

from .denumerant import GeneratorSet, as_generator_set, charge
from .errors import PreconditionError
from .reports import Report
from .semigroup import PSemigroup, build, build_range, gap_count, gap_power_sums, round_robin

_SCALING_SUM_NOTE = (
    "the quadratic gap-sum scaling uses 12 in its final denominator;"
    " a published variant with denominator 2 contradicts direct enumeration"
    " (see extras for the value it would give)"
)


def is_minimal_generator_system(gens: GeneratorSet | Iterable[int]) -> bool:
    """True iff no generator is a non-negative combination of the others.

    The only representation of a listed generator b that uses b is b
    itself, so b is a combination of the others iff it is a member of the
    list's p = 1 semigroup."""
    A = as_generator_set(gens)
    order_one = build(A, 1)
    return not any(b in order_one for b in A.ordered)


def minima_modulo(sp: PSemigroup, g: int) -> tuple[int, ...]:
    """The least member of each residue class modulo g (the Apéry set with
    respect to g) in a + g steps, charged first: members are closed under
    adding a, so one ``round_robin`` walk round each h = gcd(a, g) cycle
    r, r + a, ... of the least class minima settles it.  Each cycle's least
    value is a seed, not the sentinel c + g: some member congruent to r
    modulo h lies in [c, c + h - 1], so the least seed of cycle r is below
    c + g."""
    if g < 1:
        raise PreconditionError("modulus must be positive")
    charge(sp.modulus + g, f"class steps of the minima modulo {g}")
    least = [sp.conductor + g] * g  # above every least member
    for m in reversed(sp.apery_sorted):  # each class keeps its least seed
        least[m % g] = m
    round_robin(least, sp.modulus)
    return tuple(least)


def _scaling_instances(
    alpha: int, beta: int, base: GeneratorSet | Iterable[int]
) -> tuple[dict[str, Any], GeneratorSet, GeneratorSet]:
    """Validate the shared preconditions; return the rows' params and the
    scaled and unscaled generator lists."""
    B = as_generator_set(base)
    if alpha < 2:
        raise PreconditionError("alpha must be at least 2")
    if beta < 1:
        raise PreconditionError("beta must be positive")
    if gcd(alpha, beta) != 1:
        raise PreconditionError("alpha and beta must be coprime")
    if alpha in B.ordered:
        raise PreconditionError("alpha must differ from every base generator")
    if not is_minimal_generator_system(B):
        raise PreconditionError("base generators must form a minimal system")
    if alpha not in build(B, 0):
        raise PreconditionError(
            "alpha must lie in the semigroup generated by the base"
        )
    unscaled = GeneratorSet((alpha, *B.ordered))
    scaled = GeneratorSet((alpha, *(beta * b for b in B.ordered)))
    params = {"alpha": alpha, "beta": beta, "base": list(B.ordered)}
    return params, scaled, unscaled


def _identity_reports(
    identity: str,
    params: dict[str, Any],
    first: GeneratorSet,
    second: GeneratorSet,
    p_values: range,
    sides: Callable[[PSemigroup, PSemigroup], tuple[dict, dict, dict]],
    note: str = "",
) -> list[Report]:
    """One report per p of ``p_values``: ``sides(first's instance at p,
    second's)`` gives the identity's two sides, which pass when they are
    equal, and its extras; ``params`` gains p.  Each list's range is built
    once, the first list's first, so that its charge is the one refused;
    the two lists' runs are walked in step, cut where either ends, and
    ``sides`` runs once a piece, its dicts shared by the piece's rows."""
    firsts, seconds = build_range(first, p_values), build_range(second, p_values)
    reports: list[Report] = []
    qs = range(0)
    for ps, sp in firsts:
        while ps:
            if not qs:
                qs, sq = next(seconds)
            n = min(len(ps), len(qs))
            lhs, rhs, extras = sides(sp, sq)
            reports += [Report("identity", passed=lhs == rhs, note=note, details={
                "identity": identity, "params": {**params, "p": p},
                "lhs": lhs, "rhs": rhs, "extras": extras,
            }) for p in ps[:n]]
            ps, qs = ps[n:], qs[n:]
    return reports


def verify_johnson(
    alpha: int, beta: int, base: GeneratorSet | Iterable[int], p_values: range
) -> list[Report]:
    """Frobenius and genus transport under scaling the base by beta, for
    every p of ``p_values``:

        frobenius(alpha, beta*B) = beta * frobenius(alpha, B) + (beta-1) * alpha
        genus(alpha, beta*B)     = beta * genus(alpha, B) + (alpha-1)(beta-1)/2
    """
    def sides(scaled: PSemigroup, unscaled: PSemigroup) -> tuple[dict, dict, dict]:
        lhs = {"frobenius": scaled.frobenius, "genus": gap_count(scaled)}
        return lhs, {
            "frobenius": beta * unscaled.frobenius + (beta - 1) * alpha,
            "genus": beta * gap_count(unscaled) + (alpha - 1) * (beta - 1) // 2,
        }, {}

    return _identity_reports("johnson", *_scaling_instances(alpha, beta, base), p_values, sides)


def verify_watanabe(
    alpha: int, beta: int, base: GeneratorSet | Iterable[int], p_values: range
) -> list[Report]:
    """Symmetry is preserved under scaling the base by beta, and the least
    member scales by exactly beta, for every p of ``p_values``."""
    from .symmetry import classify

    def sides(scaled: PSemigroup, unscaled: PSemigroup) -> tuple[dict, dict, dict]:
        lhs = {"symmetric": classify(scaled).symmetric, "multiplicity": scaled.multiplicity}
        return lhs, {
            "symmetric": classify(unscaled).symmetric,
            "multiplicity": beta * unscaled.multiplicity,
        }, {}

    return _identity_reports("watanabe", *_scaling_instances(alpha, beta, base), p_values, sides)


def verify_gcd_scaling(
    gens: GeneratorSet | Iterable[int], p_values: range
) -> list[Report]:
    """Dividing the generators after the first by their gcd d relates the two
    instances exactly, for every p of ``p_values``:

        frobenius = d * frobenius' + (d-1) * a1
        genus     = d * genus' + (d-1)(a1-1)/2
        gap sum   = d^2 * sum' + (a1 d (d-1)/2) * genus'
                    + (a1-1)(d-1)(2 a1 d - a1 - d - 1)/12

    and the sorted class minima modulo a1 of the original equal d times
    those of the reduced instance.  The first listed generator plays the
    role of a1 regardless of whether it is the minimum.  Every division is
    exact: d(d-1) is even, and gcd(a1, d) = 1, as it divides every generator,
    so the constant terms are the genus and the gap sum of <a1, d> (Brown
    and Shiue, Fibonacci Quart. 31, 1993).
    """
    A = as_generator_set(gens)
    first, rest = A.ordered[0], A.ordered[1:]
    d = gcd(*rest)
    if d <= 1:
        raise PreconditionError(
            "generators after the first must share a common factor > 1"
        )
    reduced_rest = tuple(x // d for x in rest)
    if any(x < 2 for x in reduced_rest):
        raise PreconditionError("reduced generators must stay at least 2")
    if first in reduced_rest:
        collision = rest[reduced_rest.index(first)]
        raise PreconditionError(
            f"reduced generator {collision}/{d} = {first} repeats the first generator"
        )
    reduced = GeneratorSet((first, *reduced_rest))
    cubic = (first - 1) * (d - 1) * (2 * first * d - first - d - 1)

    def sides(sp: PSemigroup, sp_r: PSemigroup) -> tuple[dict, dict, dict]:
        n, s = gap_power_sums(sp, 1)
        n_r, s_r = gap_power_sums(sp_r, 1)
        lhs = {
            "frobenius": sp.frobenius,
            "genus": n,
            "sylvester_sum": s,
            "apery": sorted(minima_modulo(sp, first)),
        }
        quadratic = d * d * s_r + first * d * (d - 1) // 2 * n_r
        rhs = {
            "frobenius": d * sp_r.frobenius + (d - 1) * first,
            "genus": d * n_r + (d - 1) * (first - 1) // 2,
            "sylvester_sum": quadratic + cubic // 12,
            "apery": sorted(d * x for x in minima_modulo(sp_r, first)),
        }
        return lhs, rhs, {"sylvester_sum_denominator_2_variant": quadratic + cubic // 2}

    params = {"generators": list(A.ordered), "d": d}
    return _identity_reports("gcd-scaling", params, A, reduced, p_values, sides, _SCALING_SUM_NOTE)
