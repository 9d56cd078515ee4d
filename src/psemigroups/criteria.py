"""The symmetry verifiers, each asserting that several characterizations
of one notion agree on a built instance.

Every check reads the class minima, in O(a) with nothing F-sized, and
re-derives its flags by ``symmetry.classify``'s route.  Only ``verify``
reads them, so the package loads this module on first use.
"""

from __future__ import annotations

from typing import Iterable

from .denumerant import GeneratorSet, as_generator_set
from .reports import Report, verdicts_report
from .semigroup import PSemigroup, build, gap_count
from .symmetry import class_exchange, classify, pf_in_l

# Index arithmetic for the residue-pairing checks reads m(t) as the class
# minimum of t's residue class; paired indices always sum to
# frobenius + multiplicity.  This is the only reading under which the
# pairing identities hold on the worked symmetric instances.
_PAIRING_NOTE = (
    "indices are reduced to residue classes; paired indices sum to"
    " frobenius + multiplicity"
)


def _pair_sums(sp: PSemigroup) -> list[int]:
    """m_r + m_((total - r) mod a) for every class r, m the class minima
    and total = frobenius + multiplicity."""
    a, minima = sp.modulus, sp.apery_by_residue
    total = sp.frobenius + sp.multiplicity
    return [m + minima[(total - r) % a] for r, m in enumerate(minima)]


def verify_symmetry_equivalences(sp: PSemigroup) -> Report:
    """Evaluate five characterizations of mirror symmetry and report
    whether they all agree, in O(a) with nothing F-sized.

    definition: the mirror total is odd and the minima of every class r
    and of its mirror class (total - r) mod a sum to total + modulus, so
    that the members of class r start just above the mirrors of those of
    class (total - r) mod a.  complementary_pairs: of every non-negative
    pair summing to the mirror total, exactly one side is a member (the
    exact mirror exchange), from ``classify``'s per-class route.
    window_counts: members and gaps split the window [multiplicity,
    frobenius] in half.  sorted_pairing: opposite entries of the sorted
    class minima sum to total + modulus.  genus_midpoint: twice the gap
    count is total + 1.

    window_counts and genus_midpoint are one equation: the members in the
    window number frobenius + 1 - genus and its gaps genus - multiplicity,
    so an even split is 2 * genus = total + 1.  Both verdicts hold on every
    symmetric instance and can hold on one that is not, which is why the
    five disagree there.
    """
    g, low, a = sp.frobenius, sp.multiplicity, sp.modulus
    total = g + low
    mirrored = all(s == total + a for s in _pair_sums(sp))
    mismatches, _ = class_exchange(sp)
    genus = gap_count(sp)
    # every non-member up to the largest gap is a gap, and no member lies
    # below the multiplicity, so the members up to it are those of the window
    members_in_window = g + 1 - genus
    gaps_in_window = (g - low + 1) - members_in_window

    ls = sp.apery_sorted
    verdicts = {
        "definition": total % 2 == 1 and mirrored,
        "window_counts": members_in_window == gaps_in_window,
        "complementary_pairs": mismatches == 0,
        "sorted_pairing": all(
            ls[i] + ls[a - i - 1] == total + a for i in range(1, a // 2 + 1)
        ),
        "genus_midpoint": 2 * genus == total + 1,
    }
    return verdicts_report("symmetry-equivalences", verdicts, len(set(verdicts.values())) == 1)


def verify_apery_pairings(sp: PSemigroup) -> Report:
    """Residue-pairing characterizations of symmetric (odd mirror total) and
    pseudo-symmetric (even total), checked against the definitional flags,
    read as ``classify`` reads them off ``class_exchange``'s mismatch count.

    With m(t) the class minimum of t mod modulus: for odd totals, symmetric
    should be equivalent to m((total+1)/2 + j) + m((total-1)/2 - j) =
    total + modulus for every j.  For even totals, pseudo-symmetric should
    be equivalent to m(mid + j) + m(mid - j) = total + 2*modulus when both
    indices fall in the midpoint class and the midpoint is a gap, total when
    it is a member, and total + modulus otherwise.  Each sum depends only on
    the class of its first index, so one ``_pair_sums`` entry per class
    settles every j.

    A pseudo-symmetric instance also has gap count mid + 1 (midpoint gap)
    or mid (midpoint member); that count identity is necessary but not
    sufficient (it can hold by accident on asymmetric instances), so only
    its necessity direction enters the overall verdict and the raw count
    check is reported alongside.
    """
    a = sp.modulus
    total = sp.frobenius + sp.multiplicity
    mismatches, _ = class_exchange(sp)
    sums = _pair_sums(sp)
    if total % 2 == 1:
        pairing = all(s == total + a for s in sums)
        verdicts = {"pairing": pairing, "matches_classification": pairing == (mismatches == 0)}
    else:
        mid = total // 2
        midpoint_gap = not sp.contains(mid)
        expected = [total + a] * a
        expected[mid % a] = total + 2 * a if midpoint_gap else total
        pairing = sums == expected
        genus_offset = gap_count(sp) == mid + midpoint_gap
        verdicts = {
            "midpoint_pairing": pairing,
            "matches_classification": pairing == (mismatches == 1),
            "genus_offset": genus_offset,
            "genus_offset_necessity": mismatches != 1 or genus_offset,
        }
    passed = verdicts["matches_classification"] and verdicts.get("genus_offset_necessity", True)
    return verdicts_report("apery-pairings", verdicts, passed, note=_PAIRING_NOTE)


def verify_pf_consequences(sp: PSemigroup) -> Report:
    """Claimed consequences of the symmetry flags for the pseudo-Frobenius
    set, each re-derived from the definitions.

    Symmetric forces PF = {frobenius}, type 1, and frobenius and
    multiplicity of opposite parity.  Pseudo-symmetric is claimed to force
    PF = {frobenius, midpoint} and type 2 when the midpoint is a gap, and
    PF = {frobenius}, type 1, when it is a member.  The midpoint-gap claim
    can fail (the midpoint need not be pseudo-Frobenius when members are
    not closed downward); this function reports such failures rather than
    assuming the claim.  Vacuously passes when neither flag holds.
    """
    flags = classify(sp)
    g, low = sp.frobenius, sp.multiplicity
    verdicts: dict[str, bool] = {}
    if flags.symmetric:
        verdicts["symmetric_pf_singleton"] = flags.pf == (g,)
        verdicts["symmetric_type_one"] = len(flags.pf) == 1
        verdicts["symmetric_parity"] = (g - low) % 2 == 1
    if flags.pseudo_symmetric:
        mid = (g + low) // 2
        if sp.contains(mid):
            verdicts["pseudo_pf_singleton"] = flags.pf == (g,)
            verdicts["pseudo_type_one"] = len(flags.pf) == 1
        else:
            verdicts["pseudo_pf_pair"] = set(flags.pf) == {mid, g}
            verdicts["pseudo_type_two"] = len(flags.pf) == 2
    applicable = bool(verdicts)
    note = "" if applicable else "neither symmetry hypothesis holds"
    return verdicts_report("pf-consequences", verdicts, all(verdicts.values()), applicable, note)


def _l_count(sp: PSemigroup) -> int:
    """|L| in O(a): [0, total] holds genus gaps and genus gap mirrors, and
    the x of class j with both sides members run from m_j to its mirror's."""
    a, m = sp.modulus, sp.apery_by_residue
    total = sp.frobenius + sp.multiplicity
    both_in = sum(max(0, (total - m[(total - j) % a] - x) // a + 1) for j, x in enumerate(m))
    return 2 * gap_count(sp) - (total + 1) + both_in


def verify_almost_symmetric_equivalences(sp: PSemigroup) -> Report:
    """Three characterizations of almost symmetry, asserted to coincide:
    L is in PF and PF is L plus F, by counting L as Nari (Semigroup Forum
    86, 2013) does at p = 0 (L and PF hold gaps; F is in PF, not in L);
    every gap mirrors to a member or is PF, by ``classify``'s route."""
    flags, l_count = classify(sp), _l_count(sp)
    l_subset_pf = l_count == pf_in_l(sp, flags.pf)
    verdicts = {
        "l_subset_pf": l_subset_pf,
        "pf_is_l_plus_frobenius": l_subset_pf and len(flags.pf) == l_count + 1,
        "mirror_or_pf": flags.almost_symmetric,
    }
    passed = len(set(verdicts.values())) == 1
    return verdicts_report("almost-symmetric-equivalences", verdicts, passed)


def verify_nari(gens: GeneratorSet | Iterable[int]) -> Report:
    """At p = 0: if twice the gap count equals frobenius + type, the
    semigroup must be almost symmetric.  Only the implication is checked;
    the converse is not claimed."""
    sp = build(as_generator_set(gens), 0)
    flags = classify(sp)
    count_identity = 2 * gap_count(sp) == sp.frobenius + len(flags.pf)
    verdicts = {
        "count_identity": count_identity,
        "almost_symmetric": flags.almost_symmetric,
    }
    return verdicts_report("nari", verdicts, (not count_identity) or flags.almost_symmetric)
