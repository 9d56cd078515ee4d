import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import acceptance_instances, generator_tuples, small_p
from oracles import (
    brute_l_set,
    brute_pseudo_frobenius,
    full_shift_pseudo_frobenius,
    mirror_pairs_exactly_one,
    mirrored_member_mask,
    set_hlk_sets,
    window_apery_pairings,
)
from psemigroups import (
    PATTERN_FULL_INTERVAL,
    PATTERN_OTHER,
    PATTERN_SINGLETON_PLUS_TAIL,
    build,
    classify,
    detect_pattern,
    pseudo_frobenius,
    verify_almost_symmetric_equivalences,
    verify_apery_pairings,
    verify_nari,
    verify_pf_consequences,
    verify_symmetry_equivalences,
)
from psemigroups import criteria, sets, symmetry
from psemigroups.sets import bit_positions, hlk_of_members


def _hlk(sp):
    """H, L and K up to the mirror total, ascending, from
    ``hlk_of_members``: K is the clear bits of H below total + 1, and holds
    every integer above the mirror total as well."""
    _, h, l = hlk_of_members(sp)
    k_below = ((1 << (sp.frobenius + sp.multiplicity + 1)) - 1) & ~h
    return tuple(tuple(bit_positions(mask)) for mask in (h, l, k_below))


def test_pf_goldens():
    assert pseudo_frobenius(build((17, 18, 19), 5)) == tuple(range(219, 231))
    assert pseudo_frobenius(build((6, 7, 17), 14)) == (127, 128, 129, 130)
    assert pseudo_frobenius(build((2, 3), 0)) == (1,)


def test_type_goldens():
    assert len(pseudo_frobenius(build((17, 18, 19), 5))) == 12
    assert len(pseudo_frobenius(build((6, 7, 17), 16))) == 1
    assert len(pseudo_frobenius(build((2, 3), 0))) == 1


def test_hlk_goldens_171819_p5():
    sp = build((17, 18, 19), 5)
    h, l, k_below = _hlk(sp)
    assert l == tuple(range(181, 192)) + tuple(range(200, 211)) + tuple(range(219, 230))
    expected_h = tuple(range(180)) + tuple(range(192, 197)) + (211, 212, 213, 230)
    assert h == expected_h
    expected_k_below = (
        tuple(range(180, 192))
        + tuple(range(197, 211))
        + tuple(range(214, 230))
        + tuple(range(231, 411))
    )
    assert k_below == expected_k_below
    assert sp.frobenius + sp.multiplicity + 1 == 411
    assert 231 in k_below and 230 not in k_below


def test_hlk_goldens_6717():
    sp14 = build((6, 7, 17), 14)
    _, l14, k14_below = _hlk(sp14)
    assert l14 == (127, 128, 129)
    k14 = set(k14_below) | set(range(sp14.frobenius + sp14.multiplicity + 1, 300))
    assert k14 >= {126, 127, 128, 129, 131}
    assert 130 not in k14
    _, l16, _ = _hlk(build((6, 7, 17), 16))
    assert l16 == ()


def test_classification_goldens():
    assert classify(build((8, 12, 15, 18), 8)).symmetric
    assert classify(build((8, 4, 5, 6), 8)).symmetric
    r14 = classify(build((6, 7, 17), 14))
    assert (r14.symmetric, r14.pseudo_symmetric, r14.almost_symmetric) == (False, False, True)
    assert classify(build((6, 7, 17), 0)).pseudo_symmetric
    assert classify(build((17, 18, 19), 9)).completely_symmetric


def test_symmetry_excludes_member_member_mirrors():
    # members 139 and 140 mirror onto each other here, so the exchange is
    # not exact even though every gap mirrors to a member
    sp = build((6, 7, 17), 16)
    r = classify(sp)
    total = sp.frobenius + sp.multiplicity
    assert all(sp.contains(total - x) for x in sp.gaps)
    assert not r.symmetric
    assert r.almost_symmetric


def test_equivalences_all_true_on_symmetric_instance():
    bundle = verify_symmetry_equivalences(build((8, 4, 5, 6), 8))
    assert bundle.passed
    assert all(bundle.details["verdicts"].values())
    sp = build((8, 4, 5, 6), 8)
    assert sp.apery_sorted == (24, 26, 29, 31)
    assert 24 + 31 == 26 + 29 == sp.frobenius + sp.multiplicity + sp.modulus == 55


def test_equivalences_all_false_on_asymmetric_instance():
    bundle = verify_symmetry_equivalences(build((17, 18, 19), 5))
    assert bundle.passed
    assert not any(bundle.details["verdicts"].values())


def test_equivalences_trivial_instance():
    bundle = verify_symmetry_equivalences(build((2, 3), 0))
    assert bundle.passed and all(bundle.details["verdicts"].values())


def test_counting_criteria_alone_are_not_sufficient():
    # documented counterexample: the window splits evenly and twice the
    # genus hits total + 1, yet the mirror exchange fails, so the counting
    # characterizations cannot be equivalences in general
    bundle = verify_symmetry_equivalences(build((28, 20, 26, 25), 3))
    v = bundle.details["verdicts"]
    assert v["window_counts"] and v["genus_midpoint"]
    assert not v["definition"] and not v["complementary_pairs"] and not v["sorted_pairing"]
    assert not bundle.passed


def test_apery_pairing_examples():
    odd = verify_apery_pairings(build((8, 4, 5, 6), 8))
    assert odd.details["verdicts"]["pairing"] and odd.passed
    even = verify_apery_pairings(build((3, 5, 7), 0))
    assert even.details["verdicts"]["midpoint_pairing"] and even.passed
    trivial = verify_apery_pairings(build((2, 3), 0))
    assert trivial.details["verdicts"]["pairing"] and trivial.passed


def test_apery_pairing_even_case_details():
    sp = build((3, 5, 7), 0)
    assert sp.gaps == (1, 2, 4)
    mid = (sp.frobenius + sp.multiplicity) // 2
    assert mid == 2 and not sp.contains(mid)
    # midpoint class minimum sits one modulus above the midpoint
    assert sp.apery_by_residue[mid % 3] == mid + 3


def test_pf_consequences_goldens():
    sym = verify_pf_consequences(build((8, 12, 15, 18), 8))
    assert sym.passed and sym.details["verdicts"]["symmetric_pf_singleton"]
    assert classify(build((8, 12, 15, 18), 8)).pf == (97,)
    pseudo = verify_pf_consequences(build((3, 5, 7), 0))
    assert pseudo.passed and pseudo.details["verdicts"]["pseudo_pf_pair"]
    assert set(classify(build((3, 5, 7), 0)).pf) == {2, 4}
    trivial = verify_pf_consequences(build((2, 3), 0))
    assert trivial.passed and trivial.details["verdicts"]["symmetric_pf_singleton"]


def test_almost_symmetric_equivalences_goldens():
    all_true = verify_almost_symmetric_equivalences(build((6, 7, 17), 14))
    assert all_true.passed and all(all_true.details["verdicts"].values())
    all_false = verify_almost_symmetric_equivalences(build((17, 18, 19), 5))
    assert all_false.passed and not any(all_false.details["verdicts"].values())
    trivial = verify_almost_symmetric_equivalences(build((2, 3), 0))
    assert trivial.passed and all(trivial.details["verdicts"].values())


def test_patterns():
    assert detect_pattern(build((6, 7, 17), 16)) == PATTERN_OTHER
    assert detect_pattern(build((6, 7, 17), 14)) == PATTERN_SINGLETON_PLUS_TAIL
    assert detect_pattern(build((2, 3), 0)) == PATTERN_OTHER
    assert detect_pattern(build((17, 18, 19), 9)) == PATTERN_FULL_INTERVAL


def test_nari_examples():
    report = verify_nari((3, 5, 7))
    assert report.passed and report.details["verdicts"]["count_identity"]
    assert verify_nari((2, 3)).passed
    assert verify_nari((4, 5, 6)).passed


@given(gens=generator_tuples(max_value=12, max_size=3), p=small_p)
def test_pf_matches_brute_force(gens, p):
    assert list(pseudo_frobenius(build(gens, p))) == brute_pseudo_frobenius(gens, p)


@given(instance=st.sampled_from(acceptance_instances()), p=st.integers(0, 15))
def test_pf_matches_full_shift_reference(instance, p):
    sp = build(instance[0], p)
    assert pseudo_frobenius(sp) == full_shift_pseudo_frobenius(sp)


def test_pf_matches_full_shift_reference_near_frobenius_1e4():
    for gens, p, frobenius, type_count in (
        ((151, 157, 163), 20, 15334, 42),
        ((101, 103, 107), 30, 8358, 41),
        ((31, 37), 8, 10255, 1),
        ((2, 3), 1666, 9997, 1),
    ):
        sp = build(gens, p)
        assert (sp.frobenius, len(pseudo_frobenius(sp))) == (frobenius, type_count)
        assert pseudo_frobenius(sp) == full_shift_pseudo_frobenius(sp)


@settings(max_examples=200)
@given(instance=st.sampled_from(acceptance_instances()), p=st.integers(0, 15))
def test_bitmask_flags_and_hlk_match_the_set_routes(instance, p):
    sp = build(instance[0], p)
    total = sp.frobenius + sp.multiplicity
    report = classify(sp)
    h, l, k_below = set_hlk_sets(sp)
    assert _hlk(sp) == (h, l, k_below)
    # the per-class exchange that classify reads, against the masks; the
    # member mask and H, the mirror's, against the membership test
    members, h_mask, _ = hlk_of_members(sp)
    mirror = mirrored_member_mask(sp, total + 1)
    assert members == sum(1 << n for n in range(total + 1) if sp.contains(n))
    assert h_mask == mirror
    full = (1 << (total + 1)) - 1
    mismatches, l_count = symmetry.class_exchange(sp)
    assert mismatches == (full & ~(members ^ mirror)).bit_count()
    assert l_count == len(l)
    symmetric = mirror_pairs_exactly_one(sp, exception=None)
    pseudo = total % 2 == 0 and mirror_pairs_exactly_one(sp, exception=total // 2)
    assert (report.symmetric, report.pseudo_symmetric) == (symmetric, pseudo)
    assert report.almost_symmetric == (set(l) <= set(report.pf))
    verdicts = verify_symmetry_equivalences(sp).details["verdicts"]
    members_in_window = sum(sp.contains(n) for n in range(sp.multiplicity, sp.frobenius + 1))
    assert verdicts["definition"] == verdicts["complementary_pairs"] == symmetric
    assert verdicts["definition"] == (members ^ mirror == full)
    assert verdicts["window_counts"] == (
        2 * members_in_window == sp.frobenius - sp.multiplicity + 1
    )
    assert verdicts["genus_midpoint"] == (2 * len(sp.gaps) == total + 1)
    almost = verify_almost_symmetric_equivalences(sp).details["verdicts"]
    assert set(almost.values()) == {report.almost_symmetric}


def test_classify_builds_no_bitmask(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("classify built an F-sized bitmask")

    monkeypatch.setattr(sets, "_member_flags", refuse)
    assert classify(build((8, 12, 15, 18), 8)).symmetric
    assert classify(build((6, 7, 17), 0)).pseudo_symmetric
    r14 = classify(build((6, 7, 17), 14))
    assert (r14.symmetric, r14.pseudo_symmetric, r14.almost_symmetric) == (False, False, True)
    assert not classify(build((13, 23, 30), 3)).almost_symmetric
    assert classify(build((17, 18, 19), 9)).completely_symmetric


def test_almost_symmetric_answers_allocating_nothing_f_sized(monkeypatch):
    # F = 2*10^7 + 1: L is counted off the class minima, so under a cap of
    # 1000 the verifier answers, as classify does, with no F-bit integer
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "1000")
    sp = build((4, 6, 19999999), 0)
    tracemalloc.start()
    try:
        report = verify_almost_symmetric_equivalences(sp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert report.passed
    assert set(report.details["verdicts"].values()) == {classify(sp).almost_symmetric}


@given(gens=generator_tuples(max_value=12, max_size=3), p=small_p)
def test_l_set_matches_brute_force(gens, p):
    _, l, _ = _hlk(build(gens, p))
    assert list(l) == brute_l_set(gens, p)


@given(gens=generator_tuples(max_value=12, max_size=3), p=small_p)
def test_l_count_matches_brute_force(gens, p):
    assert criteria._l_count(build(gens, p)) == len(brute_l_set(gens, p))


@given(gens=generator_tuples(), p=small_p)
def test_frobenius_number_tops_the_pf_set(gens, p):
    sp = build(gens, p)
    pf = pseudo_frobenius(sp)
    assert pf and max(pf) == sp.frobenius
    low, g = sp.multiplicity, sp.frobenius
    assert all(low < x <= g or (x == g and low == sp.conductor) for x in pf)


@given(gens=generator_tuples(), p=small_p)
def test_coverage_of_nonnegatives(gens, p):
    sp = build(gens, p)
    h, l, _ = _hlk(sp)
    hs, ls = set(h), set(l)
    assert all(
        n in hs or n in ls or sp.contains(n) for n in range(sp.conductor + 1)
    )


@given(gens=generator_tuples(), p=small_p)
def test_symmetric_forces_singleton_pf_and_empty_l(gens, p):
    sp = build(gens, p)
    r = classify(sp)
    _, l, _ = _hlk(sp)
    if r.symmetric:
        assert l == ()
        assert r.pf == (max(r.pf),)
        assert r.almost_symmetric
    if r.pseudo_symmetric:
        mid = (sp.frobenius + sp.multiplicity) // 2
        assert set(l) <= {mid}
        assert r.almost_symmetric == (set(l) <= set(r.pf))
    if r.completely_symmetric:
        assert r.symmetric


@given(gens=generator_tuples(), p=small_p)
def test_classification_is_order_insensitive(gens, p):
    reversed_gens = tuple(reversed(gens))
    a, b = classify(build(gens, p)), classify(build(reversed_gens, p))
    assert (a.symmetric, a.pseudo_symmetric, a.almost_symmetric, a.completely_symmetric) == (
        b.symmetric,
        b.pseudo_symmetric,
        b.almost_symmetric,
        b.completely_symmetric,
    )
    assert a.pf == b.pf


@given(gens=generator_tuples(), p=small_p)
def test_named_patterns_imply_almost_symmetry(gens, p):
    sp = build(gens, p)
    if detect_pattern(sp) != PATTERN_OTHER:
        assert classify(sp).almost_symmetric


@given(gens=generator_tuples(), p=small_p)
def test_pairings_agree_with_classification(gens, p):
    assert verify_apery_pairings(build(gens, p)).passed


@given(gens=generator_tuples(max_value=40), p=st.integers(0, 15))
@example(gens=(8, 4, 5, 6), p=8)  # odd total, symmetric
@example(gens=(5, 7, 9), p=0)  # odd total, not symmetric
@example(gens=(3, 4, 5), p=0)  # even total, midpoint a gap, pseudo-symmetric
@example(gens=(3, 10, 11), p=0)  # even total, midpoint a gap, not pseudo-symmetric
@example(gens=(3, 4, 11), p=1)  # even total, midpoint a member, pseudo-symmetric
@example(gens=(5, 7, 13), p=2)  # even total, midpoint a member, not pseudo-symmetric
def test_pairing_verdicts_match_the_window_scan(gens, p):
    # one pair sum per class settles the window of 4a + 1 values of j
    sp = build(gens, p)
    report = verify_apery_pairings(sp)
    verdicts = report.details["verdicts"]
    assert verdicts == window_apery_pairings(sp)
    assert report.passed == (
        verdicts["matches_classification"] and verdicts.get("genus_offset_necessity", True)
    )


@given(gens=generator_tuples(), p=small_p)
def test_exchange_criteria_agree_and_counting_is_necessary(gens, p):
    v = verify_symmetry_equivalences(build(gens, p)).details["verdicts"]
    assert v["definition"] == v["complementary_pairs"] == v["sorted_pairing"]
    if v["definition"]:
        assert v["window_counts"] and v["genus_midpoint"]


@given(gens=generator_tuples(), p=small_p)
def test_pf_structure_under_symmetry_flags(gens, p):
    # the provable parts: symmetric pins PF exactly; pseudo-symmetric pins
    # it up to the midpoint, which may or may not qualify
    sp = build(gens, p)
    r = classify(sp)
    g = sp.frobenius
    if r.symmetric:
        assert r.pf == (g,)
        assert (g - sp.multiplicity) % 2 == 1
    if r.pseudo_symmetric:
        mid = (g + sp.multiplicity) // 2
        if sp.contains(mid):
            assert r.pf == (g,)
        else:
            assert g in r.pf and set(r.pf) <= {g, mid}


def test_midpoint_need_not_be_pseudo_frobenius():
    # documented counterexample: pseudo-symmetric with a midpoint gap whose
    # midpoint is not pseudo-Frobenius (member 210 sends it to the gap 224),
    # so the claimed two-element PF set and the almost-symmetry implication
    # both fail here
    sp = build((13, 23, 30), 3)
    r = classify(sp)
    mid = (sp.frobenius + sp.multiplicity) // 2
    assert r.pseudo_symmetric and not sp.contains(mid)
    assert mid == 217 and sp.contains(210) and not sp.contains(217 + 210 - 203)
    assert r.pf == (231,)
    assert _hlk(sp)[1] == (217,)
    assert not r.almost_symmetric
    assert not verify_pf_consequences(sp).passed


def test_genus_offset_can_hold_by_accident():
    # the pseudo-symmetry count identity holds here although the instance
    # is not pseudo-symmetric; only its necessity direction is sound
    sp = build((9, 12, 29, 16), 2)
    bundle = verify_apery_pairings(sp)
    assert not classify(sp).pseudo_symmetric
    assert bundle.details["verdicts"]["genus_offset"]
    assert bundle.details["verdicts"]["genus_offset_necessity"]
    assert bundle.details["verdicts"]["matches_classification"]
    assert bundle.passed


@given(gens=generator_tuples(), p=small_p)
def test_almost_symmetric_routes_coincide(gens, p):
    assert verify_almost_symmetric_equivalences(build(gens, p)).passed
