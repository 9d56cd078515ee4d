"""Pseudo-Frobenius data, the symmetry classification and the
member-layout pattern of a built instance.

The mirror of x is total - x, total = multiplicity + frobenius.  Every
verdict reads the class minima, in O(a) with nothing F-sized: the mirror
exchange and |L| class by class.  The verifiers that check these flags
against other characterizations are ``criteria``; the member and mirror
bitmasks that ``analyze`` renders are ``sets.hlk_of_members``.
"""

from __future__ import annotations

from .reports import Record
from .semigroup import PSemigroup

PATTERN_FULL_INTERVAL = "FULL_INTERVAL"
PATTERN_SINGLETON_PLUS_TAIL = "SINGLETON_PLUS_TAIL"
PATTERN_OTHER = "OTHER"


class SymmetryReport(Record):
    """Classification of one instance: the pseudo-Frobenius set, whose size
    is the type, and the four symmetry flags."""

    __slots__ = (
        "pf",
        "symmetric",
        "pseudo_symmetric",
        "almost_symmetric",
        "completely_symmetric",
    )

    pf: tuple[int, ...]
    symmetric: bool
    pseudo_symmetric: bool
    almost_symmetric: bool
    completely_symmetric: bool


def pseudo_frobenius(sp: PSemigroup) -> tuple[int, ...]:
    """Non-members x with x + s - multiplicity a member for every member
    s above the multiplicity.

    Each residue class modulo a is closed upward under adding a, so within
    a class only the least member s above the multiplicity can fail: the
    class minimum, or multiplicity + a in the multiplicity's own class.
    That leaves a shifts t = s - multiplicity.  The shift t = a forces
    x + a to be a member, so every pseudo-Frobenius element is some class
    minimum m minus a, and x + a = m passes it; the test of the a - 1
    others costs O(a^2), independent of the Frobenius number.  They are
    tried smallest first: a candidate that fails usually fails on a small
    one, so the check stops early.
    """
    a, low, minima = sp.modulus, sp.multiplicity, sp.apery_by_residue
    shifts = [m - low for m in sp.apery_sorted[1:]]
    return tuple(
        x
        for x in (m - a for m in sp.apery_sorted if m >= a)
        if all(x + t >= minima[(x + t) % a] for t in shifts)
    )


def class_exchange(sp: PSemigroup) -> tuple[int, int]:
    """(number of x in [0, total] where the mirror exchange fails, |L|), L
    being the x with both sides outside.  O(a).

    Of the points j, j + a, ... <= total of class j the first kunz_j are
    outside, and a prefix has its mirror in: x <= total - m[(total - j)
    mod a].  The exchange fails between the two thresholds, with both
    sides outside (L) where the first is the larger.  Neither count needs
    capping at the points up to total: every gap is at most frobenius, and
    u is at most total.
    """
    a, minima, kunz = sp.modulus, sp.apery_by_residue, sp.kunz
    total = sp.frobenius + sp.multiplicity
    mismatches = l_count = 0
    for j, below in enumerate(kunz):
        u = total - minima[(total - j) % a]  # congruent to j
        mirror_in = max(0, (u - j) // a + 1)
        mismatches += abs(below - mirror_in)
        if below > mirror_in:
            l_count += below - mirror_in
    return mismatches, l_count


def pf_in_l(sp: PSemigroup, pf: tuple[int, ...]) -> int:
    """|PF ∩ L|: PF holds gaps in [0, frobenius], so f is in L iff its
    mirror total - f is a gap, and L is in PF iff this is |L|."""
    total = sp.frobenius + sp.multiplicity
    return sum(not sp.contains(total - f) for f in pf)


def classify(sp: PSemigroup) -> SymmetryReport:
    """First-principles evaluation of the four symmetry flags.

    symmetric: the mirror x -> total - x exchanges members and non-members
    exactly (each pair summing to the mirror total holds exactly one
    member).  pseudo_symmetric: the mirror total is even and the exchange
    is exact away from the midpoint, which is its own mirror.
    almost_symmetric: every both-sides-outside element is pseudo-Frobenius,
    so |L| is the ``pf_in_l`` count.
    completely_symmetric: symmetric with the least member at the conductor.

    The exchange must hold in both directions: one gap mirroring onto
    another breaks it, but so do two members mirroring onto each other,
    which can happen here because members need not be closed downward.
    Failures come in mirror pairs but for the midpoint of an even total,
    which always fails.  All read off ``class_exchange``, with no F-sized
    structure.
    """
    pf = pseudo_frobenius(sp)
    mismatches, l_count = class_exchange(sp)
    total = sp.frobenius + sp.multiplicity
    symmetric = mismatches == 0
    return SymmetryReport(
        pf=pf,
        symmetric=symmetric,
        pseudo_symmetric=total % 2 == 0 and mismatches == 1,
        almost_symmetric=l_count == pf_in_l(sp, pf),
        completely_symmetric=symmetric and sp.multiplicity == sp.conductor,
    )


def detect_pattern(sp: PSemigroup) -> str:
    """Tag the two distinguished almost-symmetric member layouts.

    FULL_INTERVAL: no gap at or above the least member (the members are one
    unbroken tail).  SINGLETON_PLUS_TAIL: the least member stands alone
    before the conductor tail, with at least two integers missing between
    them.  Everything else is OTHER.  Both named layouts force almost
    symmetry.

    No member lies strictly between the least one and the conductor iff
    every other class minimum is at least the conductor and so is the next
    member of the least one's class: an O(a) test on the minima.
    """
    low, c = sp.multiplicity, sp.conductor
    if low == c:
        return PATTERN_FULL_INTERVAL
    if (
        c >= low + 3
        and low + sp.modulus >= c
        and all(m == low or m >= c for m in sp.apery_by_residue)
    ):
        return PATTERN_SINGLETON_PLUS_TAIL
    return PATTERN_OTHER
