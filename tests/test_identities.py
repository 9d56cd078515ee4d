from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import generator_tuples, small_p
from oracles import brute_count, brute_gap_set
from psemigroups import (
    PreconditionError,
    build,
    gap_count,
    gap_sum,
    is_minimal_generator_system,
    verify_gcd_scaling,
    verify_johnson,
    verify_watanabe,
)
from psemigroups import identities, semigroup


def test_minimality():
    assert is_minimal_generator_system((4, 5, 6))
    assert not is_minimal_generator_system((8, 4, 5, 6))
    assert is_minimal_generator_system((2, 3))
    assert is_minimal_generator_system((17, 18, 19))


@st.composite
def lists_with_shared_factors(draw):
    """k = 2..5 generators <= 60 with gcd 1, all but one sharing a factor
    d <= 6, so that sub-lists like (4, 6) of (4, 6, 9) have gcd > 1."""
    k = draw(st.integers(2, 5))
    d = draw(st.integers(1, 6))
    factors = st.lists(st.integers(1, 60 // d), min_size=k - 1, max_size=k - 1)
    gens = [*(d * x for x in draw(factors)), draw(st.integers(2, 60))]
    assume(min(gens) >= 2 and len(set(gens)) == k and gcd(*gens) == 1)
    return tuple(draw(st.permutations(gens)))


@settings(max_examples=150)
@example(gens=(4, 6, 9), alpha=13)
@example(gens=(4, 6, 9), alpha=11)
@given(gens=lists_with_shared_factors(), alpha=st.integers(2, 120))
def test_membership_preconditions_match_brute_force(gens, alpha):
    minimal = all(
        brute_count(tuple(x for x in gens if x != b), b) == 0 for b in gens
    )
    assert is_minimal_generator_system(gens) == minimal
    if not minimal or alpha in gens:
        return
    in_base = brute_count(gens, alpha) > 0
    try:
        verify_johnson(alpha, 1, gens, range(0, 1))[0]
    except PreconditionError as err:
        assert not in_base and "alpha must lie" in str(err)
    else:
        assert in_base


def test_alpha_membership_is_read_off_the_base_semigroup(monkeypatch):
    # minimality builds B at p = 1, and alpha in <B> is read off B at p = 0
    calls = []

    def spy(gens, p):
        calls.append((gens.ordered, p))
        return build(gens, p)

    monkeypatch.setattr(identities, "build", spy)
    assert verify_johnson(8, 3, (4, 5, 6), range(1))[0].passed
    assert calls == [((4, 5, 6), 1), ((4, 5, 6), 0)]


def test_johnson_golden_columns():
    # scaled column must be 3 * unscaled + 16 throughout
    scaled = [build((8, 12, 15, 18), p).frobenius for p in range(11)]
    unscaled = [build((8, 4, 5, 6), p).frobenius for p in range(11)]
    assert scaled == [3 * g + 16 for g in unscaled]
    for p in range(11):
        assert verify_johnson(8, 3, (4, 5, 6), range(p, p + 1))[0].passed


def test_johnson_genus_golden():
    report = verify_johnson(8, 3, (4, 5, 6), range(8, 9))[0]
    assert report.passed
    assert report.details["lhs"]["genus"] == 85 == 3 * 26 + 7


def test_johnson_beta_one_degenerates():
    report = verify_johnson(8, 1, (4, 5, 6), range(3, 4))[0]
    assert report.passed
    assert report.details["lhs"] == report.details["rhs"]


def test_johnson_preconditions():
    with pytest.raises(PreconditionError):
        verify_johnson(4, 3, (4, 5, 6), range(0, 1))[0]  # alpha equals a base generator
    with pytest.raises(PreconditionError):
        verify_johnson(8, 2, (4, 5, 6), range(0, 1))[0]  # alpha, beta not coprime
    with pytest.raises(PreconditionError):
        verify_johnson(7, 3, (4, 5, 6), range(0, 1))[0]  # alpha outside the base semigroup
    with pytest.raises(PreconditionError):
        verify_johnson(8, 3, (8, 4, 5, 6), range(0, 1))[0]  # base not minimal
    with pytest.raises(PreconditionError):
        verify_johnson(8, 3, (5, 6, 7), range(0, 1))[0]  # 8 not representable over {5,6,7}


def test_watanabe_golden():
    report = verify_watanabe(8, 3, (4, 5, 6), range(8, 9))[0]
    assert report.passed
    assert report.details["lhs"] == {"symmetric": True, "multiplicity": 72}
    assert report.details["rhs"] == {"symmetric": True, "multiplicity": 72}


def test_watanabe_beta_one_degenerates():
    report = verify_watanabe(8, 1, (4, 5, 6), range(2, 3))[0]
    assert report.passed and report.details["lhs"] == report.details["rhs"]


def test_watanabe_across_p_range():
    for p in range(11):
        assert verify_watanabe(8, 3, (4, 5, 6), range(p, p + 1))[0].passed


def test_gcd_scaling_golden_8form():
    report = verify_gcd_scaling((8, 12, 15, 18), range(8, 9))[0]
    assert report.passed
    assert report.details["lhs"]["frobenius"] == 97 == 3 * 27 + 2 * 8
    assert report.details["lhs"]["genus"] == 85 == 3 * 26 + 7
    assert report.details["lhs"]["sylvester_sum"] == 3618 == 9 * 328 + 24 * 26 + 42
    assert report.details["extras"]["sylvester_sum_denominator_2_variant"] == 3828
    assert "12" in report.note


def test_gcd_scaling_golden_546():
    report = verify_gcd_scaling((5, 4, 6), range(0, 1))[0]
    assert report.passed
    assert report.details["lhs"]["frobenius"] == 7 == 2 * 1 + 5
    assert report.details["lhs"]["genus"] == 4 == 2 * 1 + 2
    assert report.details["lhs"]["sylvester_sum"] == 13 == 4 + 5 + 4


def test_gcd_scaling_apery_relation_uses_first_generator_as_modulus():
    report = verify_gcd_scaling((5, 4, 6), range(0, 1))[0]
    assert report.details["lhs"]["apery"] == [0, 4, 6, 8, 12]
    assert report.details["rhs"]["apery"] == [2 * x for x in (0, 2, 3, 4, 6)]


def test_gcd_scaling_preconditions():
    with pytest.raises(PreconditionError):
        verify_gcd_scaling((17, 18, 19), range(0, 1))[0]  # gcd of the tail is 1
    with pytest.raises(PreconditionError):
        verify_gcd_scaling((3, 2, 4), range(0, 1))[0]  # tail/d drops below 2
    # 6/3 = 2 is the first generator: the reduced list would repeat it
    with pytest.raises(PreconditionError, match=r"6/3 = 2 repeats the first generator"):
        verify_gcd_scaling((2, 6, 9), range(0, 1))


def test_gcd_scaling_sums_each_instance_gaps_once(monkeypatch):
    # one gap_power_sums(sp, 1) gives an instance's genus and gap sum
    calls = []
    class_power_sums = semigroup.class_power_sums

    def spy(sp, rows, sign):
        calls.append((sp.generators.ordered, sp.apery_by_residue, rows))
        return class_power_sums(sp, rows, sign)

    monkeypatch.setattr(semigroup, "class_power_sums", spy)
    reports = verify_gcd_scaling((203, 366, 388), range(0, 8))
    assert len(reports) == 8 and all(r.passed for r in reports)
    assert [r.details["params"]["p"] for r in reports] == list(range(8))
    assert sorted(calls) == sorted(
        (gens, build(gens, p).apery_by_residue, 2)
        for gens in ((203, 366, 388), (203, 183, 194)) for p in range(8)
    )


SCALING_CALLS = {
    "johnson": (verify_johnson, (9, 2, (4, 5), range(1000, 1100))),
    "watanabe": (verify_watanabe, (9, 2, (4, 5), range(1000, 1100))),
    "gcd-scaling": (verify_gcd_scaling, ((7, 10, 12), range(300, 341))),
}


@pytest.mark.parametrize("split", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("name", SCALING_CALLS)
def test_a_piece_ends_where_either_lists_run_ends(monkeypatch, name, split):
    # the two lists' runs coincide wherever the identity holds, so no real
    # input cuts a run; splitting one list's runs into one-p runs of the
    # same instances must leave every row as it was
    verifier, args = SCALING_CALLS[name]
    expected = verifier(*args)
    built, build_range = [], identities.build_range

    def split_range(gens, p_values):
        runs = list(build_range(gens, p_values))
        if len(built) == split:
            assert any(len(ps) > 1 for ps, _ in runs)
            runs = [(range(p, p + 1), sp) for ps, sp in runs for p in ps]
        built.append(gens)
        return iter(runs)

    monkeypatch.setattr(identities, "build_range", split_range)
    assert verifier(*args) == expected
    assert len(built) == 2


def test_printed_denominator_2_variant_fails_enumeration():
    # the denominator-2 form of the quadratic scaling term would predict
    # 3828 here, while the enumerated gap sum is 3618
    report = verify_gcd_scaling((8, 12, 15, 18), range(8, 9))[0]
    variant = report.details["extras"]["sylvester_sum_denominator_2_variant"]
    assert variant != report.details["lhs"]["sylvester_sum"]


@pytest.mark.parametrize("a1", range(2, 16))
def test_gcd_scalings_constant_terms_are_the_two_generator_genus_and_gap_sum(a1):
    # gcd(a1, d) = 1 in every gcd-scaling call, so its constant terms are
    # integers: the genus and the gap sum of <a1, d>
    for d in range(2, 16):
        if gcd(a1, d) != 1:
            continue
        gaps = brute_gap_set((a1, d), 0)
        cubic = (a1 - 1) * (d - 1) * (2 * a1 * d - a1 - d - 1)
        assert cubic % 12 == 0 and cubic // 12 == sum(gaps)
        assert (a1 - 1) * (d - 1) % 2 == 0 and (a1 - 1) * (d - 1) // 2 == len(gaps)


@pytest.mark.parametrize("gens, p_values", [
    ((8, 12, 15, 18), range(0, 9)),
    ((5, 4, 6), range(0, 4)),
    ((7, 10, 12), range(300, 306)),
    ((203, 366, 388), range(0, 3)),
])
def test_every_side_of_a_gcd_scaling_report_is_an_int(gens, p_values):
    for report in verify_gcd_scaling(gens, p_values):
        sides = report.details["lhs"], report.details["rhs"], report.details["extras"]
        values = [v for side in sides for value in side.values()
                  for v in (value if isinstance(value, list) else [value])]
        assert values and all(type(v) is int for v in values)


def test_generator_dropping_reduction_only_valid_at_p_zero():
    # 5 = 2 + 3 is redundant for the generated semigroup, so dropping it
    # keeps p = 0 values; at higher p its representations change the counts
    assert build((2, 5, 3), 0).frobenius == build((2, 3), 0).frobenius == 1
    assert build((2, 5, 3), 1).frobenius == 4
    assert build((2, 3), 1).frobenius == 7
    assert build((2, 5, 3), 1).frobenius != build((2, 3), 1).frobenius


def test_johnson_specializes_gcd_scaling():
    # scaling the base of {alpha} u B by beta is the tail-gcd scaling of
    # {alpha} u beta*B with d = beta
    for p in range(5):
        johnson = verify_johnson(8, 3, (4, 5, 6), range(p, p + 1))[0]
        scaling = verify_gcd_scaling((8, 12, 15, 18), range(p, p + 1))[0]
        assert johnson.passed and scaling.passed
        assert johnson.details["lhs"]["frobenius"] == scaling.details["lhs"]["frobenius"]
        assert johnson.details["lhs"]["genus"] == scaling.details["lhs"]["genus"]


@given(gens=generator_tuples(max_value=14, max_size=3), p=small_p)
def test_scaled_tail_instances_satisfy_gcd_scaling(gens, p):
    # build {a1} u 2*rest from any small instance whose first entry is odd
    first, rest = gens[0], gens[1:]
    if first % 2 == 0:
        first += 1
    scaled = (first, *(2 * x for x in rest))
    if len(set(scaled)) != len(scaled):
        return
    try:
        report = verify_gcd_scaling(scaled, range(p, p + 1))[0]
    except PreconditionError:
        return
    assert report.passed


@given(p=small_p)
def test_gcd_scaling_consistency_with_direct_values(p):
    report = verify_gcd_scaling((8, 12, 15, 18), range(p, p + 1))[0]
    assert report.passed
    sp = build((8, 12, 15, 18), p)
    assert report.details["lhs"]["frobenius"] == sp.frobenius
    assert report.details["lhs"]["genus"] == gap_count(sp)
    assert report.details["lhs"]["sylvester_sum"] == gap_sum(sp)
