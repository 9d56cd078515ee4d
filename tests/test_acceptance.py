"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them).

Two sub-criteria assert reference summary values that three independent
computations (the library, a from-scratch dynamic program, and exhaustive
coefficient enumeration) all contradict; they are implemented exactly as
stated, marked xfail(strict=True), and accompanied by green tests pinning
the enumerated truth.
"""

from fractions import Fraction

import pytest

from conftest import acceptance_instances
from oracles import representations, row_power_sum, small_elements
from psemigroups import (
    build,
    classify,
    denumerant,
    gap_count,
    gap_power_sums,
    gap_sum,
    is_arf,
    pseudo_frobenius,
    verify_arf_conductor_kunz,
    verify_arf_heredity,
    verify_almost_symmetric_equivalences,
    verify_gcd_scaling,
    verify_johnson,
    verify_pf_consequences,
    verify_symmetry_equivalences,
    verify_watanabe,
    PreconditionError,
)
from psemigroups.sets import bit_positions, hlk_of_members

INSTANCES = acceptance_instances(200, seed=20260810)


def _passline(cid: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {cid}: PASS{': ' + detail if detail else ''}")


def _failline(cid: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: FAIL: {detail}")


# -- criterion 1 ------------------------------------------------------------

def test_c01_golden_frobenius_sequences():
    golden = {
        (4, 5, 6): [7, 13, 19, 23, 27, 31, 33, 37, 39, 43, 43],
        (8, 4, 5, 6): [7, 11, 15, 19, 19, 23, 23, 27, 27, 27, 31],
        (8, 12, 15, 18): [37, 49, 61, 73, 73, 85, 85, 97, 97, 97, 109],
    }
    for gens, expected in golden.items():
        assert [build(gens, p).frobenius for p in range(11)] == expected, gens
    _passline("1", "three frobenius sequences, p = 0..10, exact")


# -- criterion 2 ------------------------------------------------------------

def test_c02_denumerant_goldens():
    assert denumerant((4, 5, 6), 25) == 4
    assert set(representations((4, 5, 6), 25)) == {
        (0, 5, 0), (1, 3, 1), (2, 1, 2), (5, 1, 0),
    }
    assert denumerant((8, 4, 5, 6), 25) == 7
    assert set(representations((8, 4, 5, 6), 25)) == {
        (0, 0, 5, 0), (0, 1, 3, 1), (0, 2, 1, 2), (0, 5, 1, 0),
        (1, 0, 1, 2), (1, 3, 1, 0), (2, 1, 1, 0),
    }
    _passline("2", "representation counts and tuple sets for 25")


# -- criterion 3 ------------------------------------------------------------

def test_c03_appendix_golden():
    assert build((4, 7, 8), 2).frobenius == 33
    _passline("3", "frobenius of {4,7,8} at p = 2")


# -- criterion 4 ------------------------------------------------------------

def _mirror_sets(sp):
    """H and L as ascending tuples, and K as a membership test, from the
    bitmasks of ``hlk_of_members``: K is the clear bits of H up to the
    mirror total, and everything above it."""
    _, h, l = hlk_of_members(sp)
    total = sp.frobenius + sp.multiplicity

    def in_k(n):
        return n > total or (h >> n) & 1 == 0

    return tuple(bit_positions(h)), tuple(bit_positions(l)), in_k


def test_c04_section5_set_goldens():
    sp = build((17, 18, 19), 5)
    report = classify(sp)
    h, l, in_k = _mirror_sets(sp)
    assert sp.multiplicity == 180 and sp.frobenius == 230
    assert report.pf == tuple(range(219, 231))
    assert l == (
        tuple(range(181, 192)) + tuple(range(200, 211)) + tuple(range(219, 230))
    )
    assert h == (
        tuple(range(180)) + tuple(range(192, 197)) + (211, 212, 213, 230)
    )
    expected_k_members = (
        set(range(180, 192)) | set(range(197, 211)) | set(range(214, 230))
    )
    for n in range(180, 260):
        assert in_k(n) == (n in expected_k_members or n >= 231), n

    sp14 = build((6, 7, 17), 14)
    r14 = classify(sp14)
    _, l14, in_k14 = _mirror_sets(sp14)
    assert small_elements(sp14) == (126, 131) and sp14.frobenius == 130
    assert l14 == (127, 128, 129)
    assert r14.pf == (127, 128, 129, 130)
    for n in range(120, 140):
        assert in_k14(n) == (n in {126, 127, 128, 129} or n >= 131), n

    sp16 = build((6, 7, 17), 16)
    r16 = classify(sp16)
    assert _mirror_sets(sp16)[1] == ()
    assert r16.pf == (141,)
    _passline("4", "mirror decompositions for {17,18,19} and {6,7,17}")


# -- criterion 5 ------------------------------------------------------------

REFERENCE_PARTITION_171819 = {
    "not_almost": set(range(0, 7)) | set(range(13, 21)) | set(range(22, 29)),
    "almost_only": {7, 12, 21, 29, 30, 44},
    "completely": set(range(8, 12)) | set(range(31, 44)),
}

# partition confirmed by the library, an independent dynamic program, and
# exhaustive coefficient enumeration; differs from the reference lists at
# p in {17, 20, 21, 27, 29}
ENUMERATED_PARTITION_171819 = {
    "not_almost": (
        set(range(0, 7)) | set(range(13, 17)) | {18, 19} | set(range(21, 27)) | {28}
    ),
    "almost_only": {7, 12, 17, 20, 27, 30, 44},
    "completely": set(range(8, 12)) | {29} | set(range(31, 44)),
}


def _bucket_171819(p: int) -> str:
    r = classify(build((17, 18, 19), p))
    if r.completely_symmetric:
        return "completely"
    if r.symmetric or r.pseudo_symmetric:
        return "sym_or_pseudo"
    if r.almost_symmetric:
        return "almost_only"
    return "not_almost"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the reference classification list for {17,18,19} disagrees with"
        " exhaustive enumeration at p in {17, 20, 21, 27, 29}; the"
        " companion test pins the enumerated partition"
    ),
)
def test_c05a_schedule_171819_as_stated():
    buckets: dict[str, set[int]] = {"not_almost": set(), "almost_only": set(), "completely": set()}
    for p in range(45):
        buckets.setdefault(_bucket_171819(p), set()).add(p)
    _failline(
        "5a",
        "reference {17,18,19} partition not reproduced; enumeration differs"
        " at p in {17, 20, 21, 27, 29}",
    )
    assert buckets["not_almost"] == REFERENCE_PARTITION_171819["not_almost"]
    assert buckets["almost_only"] == REFERENCE_PARTITION_171819["almost_only"]
    assert buckets["completely"] == REFERENCE_PARTITION_171819["completely"]


def test_c05a_schedule_171819_enumerated_truth():
    buckets: dict[str, set[int]] = {"not_almost": set(), "almost_only": set(), "completely": set()}
    for p in range(45):
        bucket = _bucket_171819(p)
        assert bucket != "sym_or_pseudo", p
        buckets[bucket].add(p)
    assert buckets == ENUMERATED_PARTITION_171819

    # re-derive the five disputed values with an independent dynamic program
    # and naive set logic
    gens = (17, 18, 19)
    horizon = 1500
    counts = [0] * (horizon + 1)
    counts[0] = 1
    for a in gens:
        for n in range(a, horizon + 1):
            counts[n] += counts[n - a]
    for p, expected in ((17, "almost_only"), (20, "almost_only"),
                        (21, "not_almost"), (27, "almost_only"),
                        (29, "completely")):
        gaps = [n for n in range(horizon + 1) if counts[n] <= p]
        g = max(gaps)
        assert g + 100 < horizon
        gapset = set(gaps)
        low = min(x for x in range(g + 2) if x not in gapset)

        def member(x: int) -> bool:
            return x >= 0 and (x > g or x not in gapset)

        total = g + low
        pairs_exact = all(
            member(x) != member(total - x) for x in range(total // 2 + 1)
        )
        l_set = [x for x in gaps if x > low and not member(total - x)]
        pf = []
        for x in gaps:
            shifts = [s - low for s in range(low + 1, low + g - x + 1) if member(s)]
            if all(member(x + t) for t in shifts):
                pf.append(x)
        almost = set(l_set) <= set(pf)
        if pairs_exact and low == g + 1:
            bucket = "completely"
        elif pairs_exact or (total % 2 == 0 and all(
            member(x) != member(total - x)
            for x in range(total // 2) if x != total // 2
        )):
            bucket = "sym_or_pseudo"
        elif almost:
            bucket = "almost_only"
        else:
            bucket = "not_almost"
        assert bucket == expected, (p, bucket)
    _passline("5a*", "enumerated {17,18,19} partition, cross-checked at the five disputed p")


def test_c05b_schedule_6717():
    symmetric, pseudo, almost_only = [], [], []
    for p in range(26):
        r = classify(build((6, 7, 17), p))
        if r.symmetric:
            symmetric.append(p)
        if r.pseudo_symmetric:
            pseudo.append(p)
        if r.almost_symmetric and not r.symmetric and not r.pseudo_symmetric:
            almost_only.append(p)
    assert symmetric == [1, 6, 7, 8, 9, 10, 11, 12, 13, 15, 17, 18, 21, 22, 24]
    assert pseudo == [0, 4, 5, 19, 20, 23, 25]
    assert almost_only == [14, 16]
    _passline("5b", "{6,7,17} symmetric/pseudo/almost-only lists, p = 0..25, exact")


# -- criterion 6 ------------------------------------------------------------

def test_c06_formula_enumeration_equivalence_on_random_instances():
    for gens, p in INSTANCES:
        sp = build(gens, p)
        a, m = sp.modulus, sp.apery_by_residue
        assert max(m) - a == max(sp.gaps), (gens, p)
        assert sp.frobenius >= sp.modulus - 1, (gens, p)
        assert Fraction(sum(m), a) - Fraction(a - 1, 2) == gap_count(sp), (gens, p)
        assert (
            Fraction(sum(x * x for x in m), 2 * a)
            - Fraction(sum(m), 2)
            + Fraction(a * a - 1, 12)
            == gap_sum(sp)
        ), (gens, p)
        assert [row_power_sum(sp, mu) for mu in range(4)] == gap_power_sums(sp, 3), (gens, p)
    _passline("6", "class-minima formulas match enumeration on 200 instances")


# -- criterion 7 ------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason=(
        "the five symmetry characterizations are not equivalent for p >= 1:"
        " on ({28,20,26,25}, p=3) the window split is even and twice the"
        " genus is total+1 while the mirror exchange fails; the companion"
        " test pins the corrected relationship"
    ),
)
def test_c07a_five_symmetry_criteria_identical_on_random_instances():
    offenders = [
        (gens, p)
        for gens, p in INSTANCES
        if not verify_symmetry_equivalences(build(gens, p)).passed
    ]
    _failline("7a", f"five-way agreement fails on {offenders}")
    assert not offenders


def test_c07a_exchange_criteria_agree_and_counting_criteria_are_necessary():
    for gens, p in INSTANCES:
        v = verify_symmetry_equivalences(build(gens, p)).details["verdicts"]
        assert v["definition"] == v["complementary_pairs"] == v["sorted_pairing"], (
            gens,
            p,
        )
        if v["definition"]:
            assert v["window_counts"] and v["genus_midpoint"], (gens, p)
    # the known accident: counting criteria hold, exchange criteria fail
    v = verify_symmetry_equivalences(build((28, 20, 26, 25), 3)).details["verdicts"]
    assert v["window_counts"] and v["genus_midpoint"] and not v["definition"]
    _passline(
        "7a*",
        "exchange criteria agree everywhere; counting criteria are necessary"
        " but provably not sufficient",
    )


def test_c07b_pf_consequences_hold_whenever_hypotheses_do():
    for gens, p in INSTANCES:
        assert verify_pf_consequences(build(gens, p)).passed, (gens, p)
    _passline("7b", "symmetric/pseudo-symmetric PF consequences on 200 instances")


def test_c07c_almost_symmetric_conditions_coincide():
    for gens, p in INSTANCES:
        assert verify_almost_symmetric_equivalences(build(gens, p)).passed, (gens, p)
    _passline("7c", "three almost-symmetry conditions coincide on 200 instances")


def test_c07d_mirror_sets_cover_the_nonnegatives():
    for gens, p in INSTANCES:
        sp = build(gens, p)
        h, l, _ = _mirror_sets(sp)
        hs, ls = set(h), set(l)
        assert all(
            n in hs or n in ls or sp.contains(n) for n in range(sp.conductor + 1)
        ), (gens, p)
    _passline("7d", "H, L and the members cover the non-negatives on 200 instances")


# -- criterion 8 ------------------------------------------------------------

def test_c08_scaling_identities():
    ran = skipped = 0
    for alpha, beta in ((8, 3), (8, 5), (9, 2)):
        for base in ((4, 5, 6), (5, 6, 7)):
            try:
                for p in range(11):
                    one = range(p, p + 1)
                    assert verify_johnson(alpha, beta, base, one)[0].passed, (alpha, beta, base, p)
                    assert verify_watanabe(alpha, beta, base, one)[0].passed, (alpha, beta, base, p)
                ran += 1
            except PreconditionError:
                skipped += 1
    assert ran == 3 and skipped == 3  # every (alpha, *, {5,6,7}) combination skips

    for p in range(9):
        report = verify_gcd_scaling((8, 12, 15, 18), range(p, p + 1))[0]
        assert report.passed, p
        assert "12" in report.note
    for p in range(4):
        assert verify_gcd_scaling((5, 4, 6), range(p, p + 1))[0].passed, p

    # the denominator-2 variant demonstrably fails: 3828 != 3618
    report = verify_gcd_scaling((8, 12, 15, 18), range(8, 9))[0]
    assert report.details["lhs"]["sylvester_sum"] == 3618
    variant = report.details["extras"]["sylvester_sum_denominator_2_variant"]
    assert variant == 3828
    assert variant != report.details["lhs"]["sylvester_sum"]
    _passline("8", "johnson/watanabe matrix and gcd scaling with the corrected constant")


# -- criterion 9 ------------------------------------------------------------

def test_c09_arf_suite():
    assert is_arf(build((2, 3), 0)).passed
    open_report = is_arf(build((3, 4), 0))
    assert not open_report.passed and open_report.details["witness"] == (4, 4, 3)

    for a, b in ((2, 3), (2, 5), (2, 7)):
        assert verify_arf_heredity(a, b, 5).passed, (a, b)

    residues_seen = set()
    for gens, p_max in (((2, 3), 5), ((2, 5), 5), ((2, 7), 5), ((3, 5, 7), 0)):
        for p in range(p_max + 1):
            sp = build(gens, p)
            report = is_arf(sp)
            if not report.passed:
                continue
            checks = verify_arf_conductor_kunz(sp)
            assert checks.details["apery_checks"] == (True, True), (gens, p)
            assert checks.details["kunz_checks"] == (True, True), (gens, p)
            residues_seen.add(0 if sp.conductor % sp.modulus == 0 else 1)
    assert residues_seen == {0, 1}  # both conductor-residue branches exercised
    _passline("9", "closure checks, heredity, and conductor/kunz structure")


# -- criterion 10 -----------------------------------------------------------

def test_c10_deterministic_json():
    import subprocess
    import sys

    cmd = [
        sys.executable, "-m", "psemigroups",
        "analyze", "--gens", "6,7,17", "--p", "14",
    ]
    runs = [
        subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1] and runs[0].startswith("{")
    _passline("10", "byte-identical analyze output across processes")
