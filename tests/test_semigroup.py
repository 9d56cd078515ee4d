import random
import time
import tracemalloc
from collections import deque
from fractions import Fraction
from functools import reduce
from hashlib import sha256
from math import comb, gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import generator_tuples, small_p
from oracles import (
    arithmetic_count,
    brute_class_minima,
    brute_count,
    brute_gap_set,
    dp_counts,
    flags_minima_modulo,
    heap_best_lists,
    heap_merge_lists,
    row_power_sum,
    row_weighted_power_sum,
    small_elements,
)
from psemigroups import (
    CapExceededError,
    DenumerantTable,
    GeneratorSet,
    InternalCheckError,
    PreconditionError,
    build,
    build_range,
    gap_count,
    gap_power_sums,
    gap_sum,
    minima_modulo,
    power_sum_bernoulli,
    weighted_power_sums,
)
from psemigroups import cli, cli_more, exactmath, semigroup, sets
from psemigroups.exactmath import bernoulli_row, eulerian_row
from psemigroups.semigroup import (
    POWER_CAP,
    _BERNOULLI,
    _BERNOULLI_DEN,
    _FAULHABER,
    _count_bound,
    _minima_from_lists,
    _minima_from_table,
    _validate,
)
from psemigroups.sets import _compress_positions, _split_positions, bit_positions

GOLDEN_FROBENIUS = {
    (4, 5, 6): [7, 13, 19, 23, 27, 31, 33, 37, 39, 43, 43],
    (8, 4, 5, 6): [7, 11, 15, 19, 19, 23, 23, 27, 27, 27, 31],
    (8, 12, 15, 18): [37, 49, 61, 73, 73, 85, 85, 97, 97, 97, 109],
}


def test_smallest_instance():
    sp = build((2, 3), 0)
    assert sp.apery_by_residue == (0, 3)
    assert sp.gaps == (1,)
    assert sp.frobenius == 1
    assert sp.multiplicity == 0
    assert sp.kunz == (0, 1)


def test_build_golden_8456():
    sp = build((8, 4, 5, 6), 8)
    assert small_elements(sp)[:3] == (24, 26, 28)
    assert sp.frobenius == 27
    assert sp.gaps == tuple(range(24)) + (25, 27)
    assert sp.kunz == (6, 7, 6, 7)
    assert sp.apery_by_residue == (24, 29, 26, 31)


def test_build_golden_171819():
    sp = build((17, 18, 19), 5)
    assert sp.multiplicity == 180
    assert sp.frobenius == 230


@pytest.mark.parametrize("gens,expected", sorted(GOLDEN_FROBENIUS.items()))
def test_frobenius_sequences(gens, expected):
    assert [build(gens, p).frobenius for p in range(11)] == expected


def test_frobenius_appendix_value():
    assert build((4, 7, 8), 2).frobenius == 33


def test_frobenius_two_generators_p3():
    # brute-force gap scan agrees and the value matches (p+1)*6 - 5
    assert build((2, 3), 3).frobenius == max(brute_gap_set((2, 3), 3)) == 19


def test_genus_and_sum_goldens():
    sp = build((8, 4, 5, 6), 8)
    assert gap_count(sp) == 26
    assert gap_sum(sp) == 328
    sp = build((2, 3), 0)
    assert gap_count(sp) == 1
    assert gap_sum(sp) == 1


def _power_sum(sp, mu):
    """The row mu of ``gap_power_sums``, its last."""
    return gap_power_sums(sp, mu)[mu]


def _weighted_sum(sp, weight, mu):
    """The row mu of ``weighted_power_sums``, its last."""
    return weighted_power_sums(sp, mu, weight)[mu]


def _charged_blocks(sp, mu_max, weight):
    """The blocks ``weighted_power_sums`` charges, read off its refusal
    under a cap of 1 (two printed integers cost at least 2)."""
    with mock.patch.dict("os.environ", {"PSEMIGROUPS_HORIZON_CAP": "1"}):
        with pytest.raises(CapExceededError) as refused:
            weighted_power_sums(sp, mu_max, weight)
    return int(str(refused.value).split()[0])


def test_power_sum_goldens():
    assert _power_sum(build((2, 3), 0), 2) == 1
    assert _power_sum(build((8, 4, 5, 6), 8), 1) == 328
    sp = build((2, 3), 1)
    assert gap_power_sums(sp, 2) == [7, 22, 104]
    assert sp.gaps == (0, 1, 2, 3, 4, 5, 7)


def test_power_sum_formula_path_matches_direct_path():
    assert power_sum_bernoulli(build((2, 3), 0), 0) == 1
    assert power_sum_bernoulli(build((8, 4, 5, 6), 8), 1) == 328
    sp = build((17, 18, 19), 5)
    assert power_sum_bernoulli(sp, 0) == len(sp.gaps)


def test_weighted_power_sum_values():
    sp = build((2, 3), 0)
    assert _weighted_sum(sp, 1, 1) == 1
    assert _weighted_sum(sp, 2, 1) == 2
    # direct rational sum over the gap set {0,1,2,3,4,5,7}
    expected = sum(Fraction(1, 2) ** n for n in (0, 1, 2, 3, 4, 5, 7))
    assert expected == Fraction(253, 128)
    assert _weighted_sum(build((2, 3), 1), Fraction(1, 2), 0) == expected


def test_weighted_power_sum_guards():
    sp = build((2, 3), 0)
    with pytest.raises(PreconditionError, match="non-zero"):
        weighted_power_sums(sp, 1, 0)
    for power_sums in (gap_power_sums, lambda sp, mu: weighted_power_sums(sp, mu, 2)):
        with pytest.raises(PreconditionError, match="non-negative"):
            power_sums(sp, -1)
        with pytest.raises(CapExceededError):
            power_sums(sp, 9)


# {2, 3} at p = 1 has F = 7 and largest class minimum 9; den = 2^5000
# makes each of the a = 2 Horner steps work on an integer of just over
# 9 * 5000 bits, 11 blocks of 4096, 22 in all; row 0 is built over
# (den^2 - 1) * den^9, just over 11 * 5000 bits, 108 units of 512 and
# 108^2 blocks; its numerator and denominator print to just over
# 7 * 5000 bits, 69 units each, 69^2 blocks
HEAVY_WEIGHT = Fraction(1, 2**5000)
HEAVY_BLOCKS = 22 + 108**2 + 2 * 69**2


def test_weighted_power_sum_charges_its_blocks(monkeypatch):
    sp = build((2, 3), 1)
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", str(HEAVY_BLOCKS))
    assert gap_power_sums(sp, 0) == [7]
    assert weighted_power_sums(sp, 0, HEAVY_WEIGHT) == [sum(HEAVY_WEIGHT**n for n in sp.gaps)]
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", str(HEAVY_BLOCKS - 1))
    with pytest.raises(CapExceededError, match=f"{HEAVY_BLOCKS} 4096-bit blocks"):
        weighted_power_sums(sp, 0, HEAVY_WEIGHT)


def test_sums_refuses_an_over_cap_weight_before_it_sums_any_row(monkeypatch):
    # the weighted rows are charged before any row, direct or weighted, is
    # summed; under the full charge the spies see both kinds summed
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in (
        (semigroup, "class_power_sums"), (exactmath, "class_power_sums"), (exactmath, "_horner")
    ):
        spy(module, name)
    gens = GeneratorSet((2, 3))
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", str(HEAVY_BLOCKS - 1))
    with pytest.raises(CapExceededError, match=f"{HEAVY_BLOCKS} 4096-bit blocks"):
        cli_more.sums_document(gens, 1, 0, HEAVY_WEIGHT)
    assert calls == []
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", str(HEAVY_BLOCKS))
    assert cli_more.sums_document(gens, 1, 0, HEAVY_WEIGHT)["rows"][0]["direct"] == 7
    assert sorted(calls) == ["_horner", "_horner", "class_power_sums"]


def test_weighted_charge_reads_log2_to_a_64th_bit():
    # F = 206 843 and the largest class minimum 207 852: weight 1/2 costs
    # 65/64 bits a unit of it, so 52 blocks for each of the a = 1009 Horner
    # steps, where bit_length (2 bits for the base 2) charged 102; row mu
    # is built on (mu + 1) * 1009 + 207 852 units of it, 415^2 blocks at
    # mu = 0 and 417^2 at mu = 1; the two printed integers of 210 075 bits
    # are 2 * 411^2 blocks
    sp = build((1009, 1013, 1019), 0)
    one_row = 1009 * 52 + 2 * 411**2
    assert _charged_blocks(sp, 0, Fraction(1, 2)) == one_row + 415**2
    assert _charged_blocks(sp, 1, Fraction(-1, 2)) == 2 * one_row + 415**2 + 417**2


@given(num_bits=st.integers(1, 400), den_bits=st.integers(1, 400), seed=st.randoms())
@example(num_bits=128, den_bits=1, seed=random.Random(0))
@example(num_bits=1, den_bits=129, seed=random.Random(0))
def test_weighted_charge_reads_the_top_128_bits(num_bits, den_bits, seed):
    # log2 to a 64th of a bit: exact up to 128 bits, and beyond an upper
    # bound by at most one 64th of a bit
    weight = Fraction(
        seed.getrandbits(num_bits) | 1 << (num_bits - 1),
        seed.getrandbits(den_bits) | 1 << (den_bits - 1),
    )
    top = max(weight.numerator, weight.denominator)
    sp = build((2, 3), 1)  # a = 2, F = 7, largest class minimum 9

    def blocks(log64):
        steps = 2 * -(-9 * log64 // (64 * 4096))
        return steps + (-(-11 * log64 // (64 * 512))) ** 2 + 2 * (-(-7 * log64 // (64 * 512))) ** 2

    exact = (top**64).bit_length()
    charged = _charged_blocks(sp, 0, weight)
    if top.bit_length() <= 128:
        assert charged == blocks(exact)
    assert blocks(exact) <= charged <= blocks(exact + 1)


def test_huge_weight_is_charged_without_its_power():
    # (2^(10^7))^64 would be an 80 MB integer; the charge reads 128 bits
    sp = build((2, 3), 1)
    start = time.perf_counter()
    with pytest.raises(CapExceededError):
        weighted_power_sums(sp, 0, Fraction(1, 1 << 10**7))
    assert time.perf_counter() - start < 1.0


def test_kunz_goldens():
    assert build((8, 4, 5, 6), 8).kunz == (6, 7, 6, 7)
    assert build((2, 3), 0).kunz == (0, 1)
    sp = build((2, 3), 1)
    assert sp.kunz == (3, 4)
    assert sp.apery_by_residue == (6, 9)


def test_membership():
    sp = build((17, 18, 19), 5)
    assert sp.contains(198)
    assert not sp.contains(229)
    assert not sp.contains(-1)
    assert 198 in sp and 229 not in sp
    assert sp.contains(sp.frobenius + 1000)


def test_apery_with_non_minimum_modulus():
    # least members of classes modulo a listed non-minimal generator
    assert sorted(minima_modulo(build((5, 4, 6), 0), 5)) == [0, 4, 6, 8, 12]


def test_minima_modulo_checks_its_scan_against_the_cap(monkeypatch):
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "1000")
    sp = build((2, 3), 0)  # conductor 2, so modulo g the scan covers 2 + g integers
    assert minima_modulo(sp, 998)[:4] == (0, 999, 2, 3)
    with pytest.raises(CapExceededError):
        minima_modulo(sp, 999)
    with pytest.raises(PreconditionError):
        minima_modulo(sp, 0)


def test_gap_count_and_sum_match_power_sums():
    sp = build((8, 4, 5, 6), 8)
    assert [gap_count(sp), gap_sum(sp)] == gap_power_sums(sp, 1) == [26, 328]


def _forged(sp, **fields):
    """``sp`` with the given fields replaced, none of them checked."""
    return semigroup.PSemigroup(*(fields.get(f, getattr(sp, f)) for f in sp.__slots__))


@pytest.mark.parametrize("gens, p", [((2, 3), 0), ((8, 4, 5, 6), 8), ((6, 7, 17), 14)])
def test_each_power_sum_check_fires_on_a_shifted_direct_route(monkeypatch, gens, p):
    # one more gap in class 1 shifts every row summed by class, not the
    # formula over the minima, also under a weighted sums call; so does a
    # direct route off by one in its last row alone, and with it the gap
    # count and sum, its rows 0 and 1
    sp = build(gens, p)
    assert (gap_count(sp), gap_sum(sp)) == (len(sp.gaps), sum(sp.gaps))
    kunz = list(sp.kunz)
    kunz[1] += 1
    shifted = _forged(sp, kunz=tuple(kunz))
    monkeypatch.setattr(cli_more, "build", lambda gens, p: shifted)

    def weighted_sums(sp):
        return cli_more.sums_document(sp.generators, p, 8, Fraction(2, 3))

    for check in (gap_count, gap_sum, weighted_sums):
        with pytest.raises(InternalCheckError, match="power sum at mu = 0 mismatch"):
            check(shifted)
    class_power_sums = semigroup.class_power_sums

    def last_row_off_by_one(sp, rows, sign):
        return [*class_power_sums(sp, rows - 1, sign), class_power_sums(sp, rows, sign)[-1] + 1]

    monkeypatch.setattr(semigroup, "class_power_sums", last_row_off_by_one)
    with pytest.raises(InternalCheckError, match="power sum at mu = 8 mismatch"):
        gap_power_sums(sp, 8)
    with pytest.raises(InternalCheckError, match="power sum at mu = 0 mismatch"):
        gap_count(sp)
    with pytest.raises(InternalCheckError, match="power sum at mu = 1 mismatch"):
        gap_sum(sp)
    with pytest.raises(InternalCheckError, match="power sum at mu = 1 mismatch"):
        cli.table_document(GeneratorSet(gens), range(0, 3), ["sylvester_sum"])


def test_the_integer_bernoulli_row_is_exactmaths():
    # the power-sum formula reads B_0 .. B_(POWER_CAP + 1) as integers over
    # one denominator; the recurrence in exactmath is their second route
    assert [Fraction(b, _BERNOULLI_DEN) for b in _BERNOULLI] == bernoulli_row(POWER_CAP + 1)


def test_the_stirling_faulhaber_rows_are_worpitzkys():
    # the sums of t^e over t < k, written in the C(k, i + 1), by Worpitzky's
    # identity sum_m <e, m> C(k + m, e + 1) and Vandermonde's, from
    # exactmath's Eulerian rows: the second route of the recurrence
    worpitzky = [
        [sum(c * comb(m, e - i) for m, c in enumerate(eulerian_row(e))) for i in range(e + 1)]
        for e in range(POWER_CAP + 1)
    ]
    assert _FAULHABER == worpitzky


def test_the_faulhaber_rows_sum_powers():
    for e, row in enumerate(_FAULHABER):
        for k in range(13):
            assert sum(f * comb(k, i + 1) for i, f in enumerate(row)) == sum(t**e for t in range(k))


def test_a_power_sum_mismatch_prints_the_formula_reduced():
    # the formula is an unreduced numerator over a * (mu + 1) * 210; the
    # message prints the rational it stands for
    sp = build((6, 7, 17), 14)
    kunz = list(sp.kunz)
    kunz[1] += 1
    numerator, denominator = semigroup.power_sum_formula(sp, 1)[0]
    assert denominator == 6 * _BERNOULLI_DEN and numerator == gap_count(sp) * denominator
    with pytest.raises(InternalCheckError) as raised:
        gap_count(_forged(sp, kunz=tuple(kunz)))
    assert str(raised.value) == (
        f"power sum at mu = 0 mismatch: by class {gap_count(sp) + 1}, formula {gap_count(sp)}"
    )


def test_power_sum_bernoulli_refuses_a_non_integer_value():
    # minima (0, 2) modulo 2 are not a numerical semigroup's: the genus
    # formula reads 2/2 - 1/2
    forged = _forged(build((2, 3), 0), apery_by_residue=(0, 2))
    with pytest.raises(InternalCheckError, match="non-integer or negative value: 1/2"):
        power_sum_bernoulli(forged, 0)


@pytest.mark.parametrize(
    "gens, p, minima, earlier, message",
    [
        ((3, 5), 0, (0, 10), None, "class minima do not cover all residues"),
        ((3, 5), 0, (0, 10, 6), None, "class minimum 6 is not in class 2"),
        ((3, 5), 0, (0, -2, 5), None, "negative Kunz coordinate"),
        ((3, 5), 0, (0, 13, 5), None, "class minimum 13 exceeds 5 \\+ 5"),
        # too small: every bound holds, but no sum of 7s and 9s is 1
        ((5, 7, 9), 0, (0, 1, 2, 3, 4), None,
         "class minimum 1 is not tight at p = 0: 11 expected"),
        ((3, 4), 0, (3, 7, 11), None, "class minimum 3 is not tight at p = 0: 0 expected"),
        # the same, too small at p = 1, where no minimum is tight
        ((5, 7, 9), 1, (0, 1, 2, 3, 4), 0,
         "class minimum 1 at p = 1 is below 16, its class's minimum at p = 0"),
        # {3, 5}'s minima at p = 0 passed off as those at p = 2, after p = 1
        ((3, 5), 2, (0, 10, 5), 1,
         "class minimum 0 at p = 2 is below 15, its class's minimum at p = 1"),
    ],
)
def test_validate_refuses_forged_minima(gens, p, minima, earlier, message):
    # each forgery breaks one check, made with the true minima at
    # ``earlier`` as the chain's link before p; without it, at p > 0 only
    # the bounds are checked, which minima too small do not break
    gens = GeneratorSet(gens)
    if earlier is not None:
        earlier = earlier, build(gens, earlier).apery_by_residue
    _validate(gens, build(gens, p).apery_by_residue, p, earlier)
    with pytest.raises(InternalCheckError, match=message):
        _validate(gens, minima, p, earlier)
    if "tight" in message:
        _validate(gens, minima, 1)


def _forge_routes(monkeypatch, forgeries):
    """Stand in for every minima route: the minima of ``forgeries`` at
    their p and the true minima elsewhere, each run ending at the next
    forged p, or at p + 1 after the last, so that every forged p is read."""
    class_minima = semigroup._class_minima

    def forged(A, top):
        true = class_minima(A, top)
        return lambda p: (forgeries.get(p) or true(p)[0],
                          min((q for q in forgeries if q > p), default=p + 1))

    monkeypatch.setattr(semigroup, "_class_minima", forged)


@pytest.mark.parametrize(
    "forgeries, p_values, error, message",
    [
        ({2: (0, 1, 2)}, range(2, 3), InternalCheckError,
         "class minimum 1 at p = 2 is below 10, its class's minimum at p = 0"),
        ({2: (0, 10, 5)}, range(1, 4), InternalCheckError,
         "class minimum 0 at p = 2 is below 15, its class's .* p = 1"),
        # the p = 1 minima repeated at p = 2 and 3, then the p = 0 minima:
        # the drop is found against p = 3, the repeat just before it
        ({2: (15, 25, 20), 3: (15, 25, 20), 4: (0, 10, 5)}, range(1, 6), InternalCheckError,
         "class minimum 0 at p = 4 is below 15, its class's minimum at p = 3"),
        # refused before any minima are computed
        ({2: (0, 10, 5)}, range(3, 0, -1), PreconditionError, "p range must ascend"),
        ({2: (0, 10, 5)}, range(-1, 3), PreconditionError, "p must be non-negative"),
    ],
)
def test_range_build_checks_each_instance_from_below(
    monkeypatch, forgeries, p_values, error, message
):
    # {3, 5}'s minima forged at the p of ``forgeries``: below the p = 0
    # minima that seed a range starting above 0, or as its minima at p = 0,
    # which fail against the p before them
    _forge_routes(monkeypatch, forgeries)
    with pytest.raises(error, match=message):
        list(build_range((3, 5), p_values))


def test_range_build_seeds_its_chain_at_p_0_only_when_it_starts_above_0(monkeypatch):
    # a range from p = 0 is its own p = 0 link, certified tight; one that
    # starts above 0 takes one flat round robin; a single p = 0 build reads
    # its minima from that round robin
    calls, flat_minima = [], semigroup._flat_minima

    def spy(A):
        calls.append(A)
        return flat_minima(A)

    monkeypatch.setattr(semigroup, "_flat_minima", spy)
    counted = []
    for make in (
        lambda: list(build_range((3, 5), range(0, 4))),
        lambda: list(build_range((3, 5), range(2, 4))),
        lambda: build((3, 5), 0),
    ):
        calls.clear()
        make()
        counted.append(len(calls))
    assert counted == [0, 1, 1]


@pytest.mark.parametrize(
    "gens, forgeries, p_values, message",
    [
        # {3, 5}: d(n + 15) = d(n) + 1, so the bound is tight and a shift
        # by a is past it
        ((3, 5), {2: (33, 43, 38)}, range(1, 3),
         "class minimum 33 at p = 2 exceeds 15 \\+ 1 \\* 15, its class's bound from p = 1"),
        # the first p of a range that starts above 0, against the p = 0 link
        ((3, 5), {2: (33, 43, 38)}, range(2, 3),
         "class minimum 33 at p = 2 exceeds 0 \\+ 2 \\* 15, its class's bound from p = 0"),
        # the p = 1 minima repeated at p = 2: the jump is found against p = 2
        ((3, 5), {2: (15, 25, 20), 3: (33, 43, 38)}, range(1, 4),
         "class minimum 33 at p = 3 exceeds 15 \\+ 1 \\* 15, its class's bound from p = 2"),
        # the p = 1 minima as one run of p = 1 and 2: the jump is found
        # against the run's last p, not its first
        ((3, 5), {3: (33, 43, 38)}, range(1, 4),
         "class minimum 33 at p = 3 exceeds 15 \\+ 1 \\* 15, its class's bound from p = 2"),
        # {4, 5, 6}'s minima at p = 2, (16, 21, 18, 23), shifted up by
        # a * 2: by a * 1 they are those of p = 3, which no check refuses
        ((4, 5, 6), {2: (24, 29, 26, 31)}, range(1, 3),
         "class minimum 26 at p = 2 exceeds 10 \\+ 1 \\* 12, its class's bound from p = 1"),
    ],
)
def test_range_build_checks_each_link_from_above(monkeypatch, gens, forgeries, p_values, message):
    # for b != a, d(n + lcm(a, b)) >= d(n) + 1, so no minimum climbs more
    # than the least such lcm a step of p: each forgery passes every other
    # check, and is refused against the p before it
    _forge_routes(monkeypatch, forgeries)
    with pytest.raises(InternalCheckError, match=message):
        list(build_range(gens, p_values))


def test_a_link_checks_bounds_not_exactness():
    # {4, 5, 6}'s minima at p = 3 passed off as those at p = 2 climb at
    # most 12 a class from p = 1, so no check of the link refuses them
    A = GeneratorSet((4, 5, 6))
    _validate(A, build(A, 3).apery_by_residue, 2, (1, build(A, 1).apery_by_residue))


@given(gens=generator_tuples(max_value=12), p=st.integers(0, 60), q=st.integers(0, 60))
@example(gens=(10, 11, 12, 18), p=3789, q=3790)
@example(gens=(10, 11, 12, 18), p=3797, q=3798)
def test_instances_are_equal_exactly_when_their_minima_are(gens, p, q):
    # an instance holds no p: it is its generators and its class minima
    sp, sq = build(gens, p), build(gens, q)
    assert (sp == sq) == (sp.apery_by_residue == sq.apery_by_residue)


@pytest.mark.parametrize("p_values", [range(3, 3), range(5, 2)])
def test_an_empty_range_builds_nothing_and_charges_nothing(monkeypatch, p_values):
    # an empty range (a step of 1 that ends at or below its start) returns
    # before any charge, so even a cap of 1 does not refuse it
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "1")
    assert list(build_range((4, 5, 6), p_values)) == []


@given(
    gens=generator_tuples(max_value=12),
    start=st.integers(0, 60),
    step=st.integers(2, 5),
    count=st.integers(1, 12),
    over=st.integers(1, 4),
)
@example(gens=(10, 11, 12, 18), start=3789, step=5, count=40, over=3)
@example(gens=(8, 9, 10), start=1321, step=2, count=30, over=1)
def test_a_stepped_range_is_the_runs_of_its_p_values(gens, start, step, count, over):
    # the stop lies 1 .. step - 1 past the last p, off the step; a run may
    # end between two p of the range, and the next starts at the first p
    # past that end
    last = start + (count - 1) * step
    p_values = range(start, last + 1 + over % (step - 1), step)
    runs = list(build_range(gens, p_values))
    assert [p for ps, _ in runs for p in ps] == list(p_values)
    assert all(sp == build(gens, p) for ps, sp in runs for p in ps)
    minima = [sp.apery_by_residue for _, sp in runs]
    assert all(m != n for m, n in zip(minima, minima[1:]))


@given(gens=generator_tuples(max_value=12, max_size=3), p=st.integers(0, 2))
def test_gaps_match_brute_force(gens, p):
    sp, expected = build(gens, p), brute_gap_set(gens, p)
    assert list(sp.gaps) == expected
    assert gap_count(sp) == len(expected)
    assert gap_sum(sp) == sum(expected)


@given(gens=generator_tuples(), p=small_p)
def test_structural_invariants(gens, p):
    sp = build(gens, p)
    a = sp.modulus
    assert sorted(m % a for m in sp.apery_by_residue) == list(range(a))
    assert sp.apery_sorted == tuple(sorted(sp.apery_by_residue))
    assert all(
        sp.apery_sorted[i] < sp.apery_sorted[i + 1] for i in range(a - 1)
    )
    assert sp.conductor == sp.frobenius + 1
    assert sp.multiplicity == min(sp.apery_by_residue)
    assert all(m == k * a + j for j, (m, k) in enumerate(zip(sp.apery_by_residue, sp.kunz)))
    # every n below the least member is a gap; everything above frobenius is in
    assert all(not sp.contains(n) for n in range(sp.multiplicity))
    assert sp.contains(sp.frobenius + 1)
    if p >= 1:
        assert 0 in sp.gaps
    else:
        assert sp.multiplicity == 0


@given(gens=generator_tuples(), p=small_p)
def test_formula_paths_agree_on_random_instances(gens, p):
    sp = build(gens, p)
    a, m = sp.modulus, sp.apery_by_residue
    assert max(m) - a == max(sp.gaps)
    assert Fraction(sum(m), a) - Fraction(a - 1, 2) == gap_count(sp)
    assert (
        Fraction(sum(x * x for x in m), 2 * a)
        - Fraction(sum(m), 2)
        + Fraction(a * a - 1, 12)
        == gap_sum(sp)
    )
    assert [power_sum_bernoulli(sp, mu) for mu in range(4)] == gap_power_sums(sp, 3)


@given(gens=generator_tuples(), p=small_p)
def test_weight_one_reduces_to_plain_power_sum(gens, p):
    sp = build(gens, p)
    assert weighted_power_sums(sp, 2, 1) == gap_power_sums(sp, 2)


@given(
    gens=generator_tuples(),
    p=small_p,
    weight=st.sampled_from([1, -1, 3, -2, Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7)]),
)
@example(gens=(2, 3), p=0, weight=Fraction(-5, 7))
@example(gens=(2, 3), p=1, weight=Fraction(2, 3))
@example(gens=(4, 5, 7), p=0, weight=-1)
@example(gens=(6, 7, 17), p=5, weight=-1)
@example(gens=(5, 7, 9), p=3, weight=3)
@example(gens=(5, 7, 9), p=3, weight=-2)
def test_shared_gap_walk_matches_the_per_row_oracles(gens, p, weight):
    # every row read off the class minima against one walk of the gaps per
    # row, at every mu_max: z = weight^a is 1 at weight 1 and at weight -1
    # with a even (4 and 6 above), and at p > 0, 0 is a gap
    sp = build(gens, p)
    mus = range(POWER_CAP + 1)
    expected = [row_power_sum(sp, mu) for mu in mus]
    expected_weighted = [row_weighted_power_sum(sp, Fraction(weight), mu) for mu in mus]
    assert gap_power_sums(sp, POWER_CAP) == expected
    for mu in mus:
        rows = mu + 1
        assert gap_power_sums(sp, mu) == expected[:rows]
        assert weighted_power_sums(sp, mu, weight) == expected_weighted[:rows]


@given(gens=generator_tuples(max_value=12, max_size=3), p=st.integers(0, 2))
def test_members_are_closed_under_addition(gens, p):
    sp = build(gens, p)
    members = [n for n in small_elements(sp) if n <= sp.frobenius]
    for x in members[:6]:
        for y in members[:6]:
            assert sp.contains(x + y)


@given(gens=generator_tuples(), p=small_p, seed=st.randoms())
def test_build_ignores_generator_order(gens, p, seed):
    shuffled = list(gens)
    seed.shuffle(shuffled)
    a, b = build(gens, p), build(tuple(shuffled), p)
    assert a.gaps == b.gaps
    assert a.apery_by_residue == b.apery_by_residue


def test_membership_of_first_class_minimum():
    # d(n) within one residue class never decreases, so the first n in a
    # class with d(n) > p settles the whole class
    sp = build((4, 7, 9), 2)
    for j, m in enumerate(sp.apery_by_residue):
        assert m % 4 == j
        assert brute_count((4, 7, 9), m) > 2
        if m >= 4:
            assert brute_count((4, 7, 9), m - 4) <= 2


@given(
    gens=generator_tuples(max_value=12),
    bounds=st.just((0, 0)) | st.tuples(st.integers(0, 40), st.integers(0, 40)),
)
def test_minima_routes_agree_with_each_other_build_and_brute_force(gens, bounds):
    # draws are unsorted and need not be minimal; each route is forced
    # through its own function, the lists at p = 0 being the flat round
    # robin, and the minima modulo several g are read off the top instance.
    # Each route's run from every p is exact: its minima hold at every p'
    # up to its end, by the other route and by brute force, and change there
    lo, hi = sorted(bounds)
    A = GeneratorSet(gens)
    by_table = _minima_from_table(A, hi, 10**7)
    by_lists = _minima_from_lists(A, hi)
    brute = {p: brute_class_minima(gens, p, A.least) for p in range(lo, hi + 1)}
    for run_at, other in ((by_table, by_lists), (by_lists, by_table)):
        for p in range(lo, hi + 1):
            minima, end = run_at(p)
            assert end > p, p
            for q in range(p, min(end, hi + 1)):
                assert minima == other(q)[0] == brute[q], (p, q)
            if end <= hi:
                assert run_at(end)[0] != minima, p
    runs = list(build_range(gens, range(lo, hi + 1)))
    in_range = [sp for ps, sp in runs for _ in ps]
    assert [sp.apery_by_residue for sp in in_range] == [
        build(gens, p).apery_by_residue for p in range(lo, hi + 1)
    ]
    assert [sp.apery_by_residue for sp in in_range] == [
        by_lists(p)[0] for p in range(lo, hi + 1)
    ]
    # modulo every generator, 1, moduli just below and past a, one below
    # a - 1 (where a seed can exceed the sentinel c + g), one sharing a
    # factor with a, and one past the conductor
    sp = in_range[-1]
    a = sp.modulus
    for g in {*gens, 1, a - 1, a + 1, max(2, a // 3), 2 * a, 6, sp.conductor + 3}:
        expected = brute_class_minima(gens, hi, g)
        assert minima_modulo(sp, g) == flags_minima_modulo(sp, g) == expected, g


def test_arithmetic_count_is_the_brute_force_count():
    for k, a, d in [(2, 5, 3), (3, 7, 2), (3, 4, 5), (4, 5, 1), (4, 6, 5), (5, 7, 3), (5, 3, 4)]:
        gens = tuple(a + i * d for i in range(k))
        assert [arithmetic_count(a, d, k, n) for n in range(90)] == [
            brute_count(gens, n) for n in range(90)
        ], gens


# the largest a and p drawn at each k: the count's cost grows with k
_ARITHMETIC_SIZES = {3: (3000, 500), 4: (1000, 200), 5: (500, 100)}


@st.composite
def arithmetic_draws(draw):
    """(a, d, k, p) with gcd(a, d) = 1 and k = 3..5."""
    k = draw(st.sampled_from(sorted(_ARITHMETIC_SIZES)))
    a_max, p_max = _ARITHMETIC_SIZES[k]
    a, d = draw(st.integers(2, a_max)), draw(st.integers(1, 60))
    assume(gcd(a, d) == 1)
    return a, d, k, draw(st.integers(0, p_max))


@settings(max_examples=15)
@given(draw=arithmetic_draws())
@example(draw=(1009, 4, 3, 500))
@example(draw=(3001, 7, 3, 20))
@example(draw=(401, 2, 4, 5))
@example(draw=(997, 2, 5, 200))
def test_arithmetic_sequence_minima_are_certified_by_their_counts(draw):
    # ROADMAP item 16: counts do not fall along steps of a, so m is its
    # class's minimum iff d(m) > p and, unless m < a, d(m - a) <= p.  The
    # count reads no table and no lists: it checks whichever route
    # ``build`` takes, at F up to about 6 * 10^6
    a, d, k, p = draw
    sp = build(tuple(a + i * d for i in range(k)), p)
    for m in sp.apery_by_residue:
        assert arithmetic_count(a, d, k, m) > p, m
        assert m < a or arithmetic_count(a, d, k, m - a) <= p, m
    assert sp.frobenius == max(sp.apery_by_residue) - a
    assert gap_count(sp) == sum((m - j) // a for j, m in enumerate(sp.apery_by_residue))


@st.composite
def lists_route_draws(draw):
    """(generators, top p) for the lists route, unsorted and not always
    minimal: small lists up to p = 40; pairs up to p = 300, whose one merge
    closes a long progression; and lists whose least generator shares a
    factor f with another, whose classes then fall into f cycles or more
    for that generator."""
    kind = draw(st.sampled_from(("small", "pair", "shared")))
    if kind == "small":
        return draw(generator_tuples(max_value=12)), draw(st.integers(0, 40))
    if kind == "pair":
        return draw(generator_tuples(max_value=30, max_size=2)), draw(st.integers(0, 300))
    f = draw(st.integers(2, 4))
    u, v = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True))
    low, high = sorted((f * u, f * v))
    c = draw(st.integers(low + 1, 13).filter(lambda c: gcd(c, f) == 1 and c != high))
    gens = [f * u, f * v, c]
    if draw(st.booleans()) and sum(gens[:2]) not in gens:
        gens.append(sum(gens[:2]))
    return tuple(draw(st.permutations(gens))), draw(st.integers(0, 20))


@given(draw=lists_route_draws())
@example(draw=((6, 4, 9), 0))
@example(draw=((4, 8, 6, 15), 1))
@example(draw=((7, 5), 300))
def test_round_robin_lists_agree_with_heap_merge_and_brute_force(draw):
    gens, top = draw
    A = GeneratorSet(gens)
    a = A.least
    by_lists = _minima_from_lists(A, top)
    heap_lists = heap_best_lists(gens, top)
    for p in range(top + 1):
        assert by_lists(p)[0] == tuple(values[p] for values in heap_lists), p
    if len(gens) == 2:
        # over one other generator b the lists are b*t, t = j/b mod a + p*a
        b = max(gens)
        inverse = pow(b, -1, a)
        assert by_lists(top)[0] == tuple(b * (j * inverse % a + top * a) for j in range(a))
    if top <= 40 and max(gens) <= 20:
        assert by_lists(top)[0] == brute_class_minima(gens, top, a)
    assert build(A, 1).apery_by_residue == tuple(
        values[1] for values in heap_best_lists(gens, 1)
    )


@st.composite
def shared_factor_generators(draw):
    """Lists of 2 to 5 generators, unsorted and not always minimal, whose
    least generator a shares a factor f with another, so that the classes
    modulo a fall into f or more cycles of that generator."""
    f = draw(st.integers(2, 5))
    a = f * draw(st.integers(1, 6))
    shared = f * draw(st.integers(a // f + 1, 16))
    rest = draw(st.lists(st.integers(a + 1, 80), min_size=1, max_size=3))
    gens = list(dict.fromkeys([a, shared, *rest]))
    if draw(st.booleans()) and len(gens) < 5 and a + shared not in gens:
        gens.append(a + shared)
    assume(reduce(gcd, gens) == 1)
    return tuple(draw(st.permutations(gens)))


@given(gens=shared_factor_generators())
@example(gens=(6, 4, 9))
@example(gens=(10, 4, 6, 25, 15))
def test_round_robin_at_p0_agrees_with_heap_merge(gens):
    by_lists = _minima_from_lists(GeneratorSet(gens), 0)
    assert by_lists(0)[0] == tuple(values[0] for values in heap_best_lists(gens, 0))


@st.composite
def round_robin_inputs(draw):
    """(values, step), values drawn from small integers and one large
    sentinel, so that at times a whole cycle holds only the sentinel."""
    n = draw(st.integers(1, 24))
    step = draw(st.integers(1, 60))
    sentinel = 1000
    values = draw(st.lists(st.integers(0, 50) | st.just(sentinel), min_size=n, max_size=n))
    return values, step


def _relaxation_fixpoint(values, step):
    """values[t] = min(values[t], values[t - step] + step), indices modulo
    len(values), repeated until nothing changes."""
    values, n, changed = values.copy(), len(values), True
    while changed:
        changed = False
        for t in range(n):
            lowered = values[(t - step) % n] + step
            if lowered < values[t]:
                values[t], changed = lowered, True
    return values


@given(draw=round_robin_inputs())
# a cycle that holds only the sentinel, beside one with a seed; a step that
# is a multiple of the length, so that every cycle is one index
@example(draw=([0, 1000, 7, 1000], 2))
@example(draw=([1000, 1000, 1000], 6))
@example(draw=([5, 3, 9, 1000, 2, 1000], 4))
def test_round_robin_reaches_the_relaxation_fixpoint(draw):
    values, step = draw
    walked = values.copy()
    semigroup.round_robin(walked, step)
    assert walked == _relaxation_fixpoint(values, step)


_WINDOW = sets._SPLIT_WINDOW


@given(
    digits=st.sampled_from([0, 1, 2, 64, _WINDOW - 1, _WINDOW, _WINDOW + 1])
    | st.integers(0, 300),
    share=st.sampled_from([0.0, 0.05, 0.15, 0.17, 0.2, 0.25, 0.3, 0.6, 1.0]),
    seed=st.integers(0, 2**32),
)
@example(digits=0, share=0.0, seed=0)
@example(digits=_WINDOW - 1, share=0.05, seed=1)
@example(digits=_WINDOW, share=0.2, seed=2)
@example(digits=_WINDOW + 1, share=0.05, seed=3)
@example(digits=_WINDOW + 1, share=0.6, seed=4)
def test_bit_positions_match_a_brute_force_scan(digits, share, seed):
    # the top digit is set, and a drawn share of the others, on either side
    # of the sixth at which bit_positions changes kernel; both kernels
    # are checked whichever it takes, across the splitting kernel's window
    rng = random.Random(seed)
    bits = [int(rng.random() < share) for _ in range(digits - 1)] + [1] * (digits > 0)
    mask = int("".join(map(str, reversed(bits))) or "0", 2)
    expected = [i for i, bit in enumerate(bits) if bit]
    assert list(bit_positions(mask)) == expected
    assert list(_split_positions(mask)) == expected
    assert list(_compress_positions(mask)) == expected


def test_splitting_scan_peaks_no_higher_than_the_compress_scan():
    # a quarter of 10^6 digits set: split whole, the digits would hold one
    # run string per set bit at once, several times what compress holds
    rng = random.Random(17)
    digits = 10**6
    mask = rng.getrandbits(digits) & rng.getrandbits(digits) | 1 << (digits - 1)
    peaks = {}
    for kernel in (_compress_positions, _split_positions):
        tracemalloc.start()
        try:
            deque(kernel(mask), maxlen=0)
            _, peaks[kernel] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[_split_positions] <= 1.1 * peaks[_compress_positions]


@st.composite
def merge_inputs(draw):
    """(lists, b, keep): for each class r modulo a, at most ``keep``
    ascending values congruent to r, and a generator b > a, at times a
    multiple of a.  Unlike lists grown from {0}, these often start a
    cycle's merge from several values."""
    a = draw(st.integers(1, 12))
    b = draw(st.integers(a + 1, 40))
    keep = draw(st.integers(1, 12))
    lists = [
        sorted(draw(st.lists(st.integers(0, 20).map(lambda t, r=r: r + a * t), max_size=keep)))
        for r in range(a)
    ]
    return lists, b, keep


@given(draw=merge_inputs())
# a repeated value, with gcd(a, b) = 3 leaving two of the three cycles
# empty; one value that goes round its cycle many times
@example(draw=([[0, 0, 6], [], [], [3], [], []], 9, 12))
@example(draw=([[0], [], [], []], 7, 12))
def test_round_robin_merge_agrees_with_heap_merge(draw):
    lists, b, keep = draw
    before = [values.copy() for values in lists]
    assert semigroup._merge_generator(lists, b, keep) == heap_merge_lists(lists, b, keep)
    assert lists == before


def test_table_route_gives_up_within_its_size_limit():
    # {10007, 10009, 10037} at p = 0 has F = 6814761, far past 20000 entries
    A = GeneratorSet((10007, 10009, 10037))
    assert _minima_from_table(A, 0, 20_000) is None
    assert max(_minima_from_lists(A, 0)(0)[0]) == 6814761 + 10007


@given(gens=generator_tuples(max_value=12), n=st.integers(0, 60), top=st.integers(0, 20))
def test_count_bound_holds_up_to_n(gens, n, top):
    A = GeneratorSet(gens)
    bound = _count_bound(A, n)
    assert max(brute_count(gens, t) for t in range(n + 1)) <= bound
    # the bound the cap rule rests on: the last a counts of a table to
    # horizon n sum to N(n), the points over the other generators with
    # sum(b * x_b) <= n, and so to at most the bound
    others = tuple(b for b in A.ordered if b != A.least)
    tail = sum(DenumerantTable(A, n).counts[-A.least:])
    assert tail == sum(dp_counts(others, n)) <= bound
    # so where the bound is short of a * (top + 1), some last count is at
    # most top, and no table to horizon n settles
    if n >= max(A.ordered) and bound < A.least * (top + 1):
        assert _minima_from_table(A, top, n + 1) is None


def test_table_route_refuses_a_hopeless_top_p_before_any_table(monkeypatch):
    # N(n) <= (n + 3) // 3 for {2, 3} (_count_bound), so whether or not
    # the lists fit, no table can settle at p = 10^12, and none is made
    monkeypatch.setattr(semigroup, "DenumerantTable", None)
    A, top = GeneratorSet((2, 3)), 10**12
    # the lists' 2 * (10^12 + 1) entries fit: a table would need that many
    # counts in its last 2 entries below 10^12 + 1; a stub stands in for
    # the lists
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", str(3 * 10**12))
    monkeypatch.setattr(semigroup, "_minima_from_lists", lambda A, top: "lists")
    assert semigroup._class_minima(A, top) == "lists"
    # they do not fit: a table's last 2 entries would need 2 * (10^12 + 1)
    # counts between them below the cap, and the lists' charge refuses
    monkeypatch.delenv("PSEMIGROUPS_HORIZON_CAP")
    with pytest.raises(CapExceededError, match="^2000000000002 list entries .* cap 10000000$"):
        semigroup._class_minima(A, top)


# Instances of the ladder and mid-sweep benchmark workloads at seed 0, and
# {17,18,19} at p = 5: on each, max(A) < limit but _count_bound(A, limit - 1)
# is short of a * (top + 1), so no table could settle below its limit
HOPELESS_TABLES = [
    ((1009, 1013, 1019), 50),
    ((128, 218, 231), 29),
    ((279, 349, 403, 471), 55),
    ((201, 207, 322), 16),
    ((249, 391, 397, 470), 60),
    ((146, 214, 291), 19),
    ((203, 366, 388), 7),
    ((203, 183, 194), 7),
    ((254, 273, 489, 525), 48),
    ((254, 91, 163, 175), 48),
    ((151, 157, 163), 20),
    ((17, 18, 19), 5),
]


@pytest.mark.parametrize("gens, top", HOPELESS_TABLES)
def test_no_table_is_filled_where_none_can_settle(monkeypatch, gens, top):
    monkeypatch.delenv("PSEMIGROUPS_HORIZON_CAP", raising=False)
    monkeypatch.setattr(semigroup, "DenumerantTable", None)
    by_lists = _minima_from_lists(GeneratorSet(gens), top)
    assert build(gens, top).apery_by_residue == by_lists(top)[0]


# The high-p benchmark workload's tops at seed 0: each table settles
@pytest.mark.parametrize(
    "gens, top",
    [
        ((8, 9, 10), 1832),
        ((25, 27, 30, 47), 1231),
        ((21, 33, 38), 1088),
        ((10, 11, 12, 18), 4300),
        ((17, 22, 25), 1159),
        ((12, 14, 17, 21), 1928),
    ],
)
def test_the_table_route_answers_where_its_table_settles(monkeypatch, gens, top):
    monkeypatch.delenv("PSEMIGROUPS_HORIZON_CAP", raising=False)
    answers = []
    table = semigroup._minima_from_table

    def spy(A, top, limit):
        answers.append(table(A, top, limit))
        return answers[-1]

    monkeypatch.setattr(semigroup, "_minima_from_table", spy)
    sp = build(gens, top)
    assert len(answers) == 1 and answers[0] is not None
    assert answers[0](top)[0] == sp.apery_by_residue


@pytest.mark.parametrize(
    "gens, top, fills",
    [
        ((8, 9, 10), 1832, [10, 84, 232, 528, 1120, 2304]),
        ((21, 33, 38), 1088, [38, 140, 344, 752, 1568, 3200, 6464, 12992]),
    ],
)
def test_table_route_grows_by_doubling_from_the_largest_generator(monkeypatch, gens, top, fills):
    # the route sets the schedule, h -> 2h + 64 below its limit; the table
    # fills exactly to each horizon asked for
    seen = []

    class Recording(DenumerantTable):
        def _fill(self, new_horizon):
            seen.append(new_horizon)
            super()._fill(new_horizon)

    monkeypatch.setattr(semigroup, "DenumerantTable", Recording)
    sp = build(gens, top)
    assert sp.apery_by_residue == _minima_from_lists(GeneratorSet(gens), top)(top)[0]
    assert seen == fills


# For each (generators, top p, cap): the horizons each table was filled
# to, the route that answered ("table", "lists", or None for a refusal),
# and the first 16 hex digits of the SHA-256 of the repr of the minima at
# the top p, or the refusal.  Recorded before the route rule moved into
# _class_minima alone; the cases after {25,27,30,47} were drawn once from
# random.Random(28), and {37,48,63,75} is a table that cannot settle
# within the cap of 1000.  The fills list only the tables the bound
# admits, _count_bound(A, limit - 1) >= a * (top + 1).
ROUTE_RECORDS = [
    ((17, 18, 19), 5, 1000, [], "lists", "ccb02836436bed97"),
    ((17, 18, 19), 5, None, [], "lists", "ccb02836436bed97"),
    ((3000, 3001, 3002), 3400, 1000, [], None,
     "3000 class minima of the 1 instances of the p range, past the cap 1000"),
    ((3000, 3001, 3002), 3400, None, [], None,
     "10203000 list entries for the class minima at p = 3400, past the cap 10000000"),
    ((2, 3), 10**12, 1000, [], None,
     "2000000000002 list entries for the class minima at p = 1000000000000, past the cap 1000"),
    ((2, 3), 10**12, None, [], None,
     "2000000000002 list entries for the class minima at p = 1000000000000,"
     " past the cap 10000000"),
    ((8, 9, 10), 1832, 1000, [], None,
     "14664 list entries for the class minima at p = 1832, past the cap 1000"),
    ((8, 9, 10), 1832, None, [10, 84, 232, 528, 1120, 2304], "table", "76a2e7e2360e6f2a"),
    ((21, 33, 38), 1088, 1000, [], None,
     "22869 list entries for the class minima at p = 1088, past the cap 1000"),
    ((21, 33, 38), 1088, None, [38, 140, 344, 752, 1568, 3200, 6464, 12992], "table",
     "2e9f1d9447b876a8"),
    ((1009, 1013, 1019), 50, 1000, [], None,
     "1009 class minima of the 1 instances of the p range, past the cap 1000"),
    ((1009, 1013, 1019), 50, None, [], "lists", "5a85f679cc19bfe9"),
    ((6, 7, 11, 13), 200, 1000, [13, 90, 244], "table", "0f83295ec59d00d3"),
    ((6, 7, 11, 13), 200, None, [13, 90, 244], "table", "0f83295ec59d00d3"),
    ((30, 31, 32), 40, 1000, [], None,
     "1230 list entries for the class minima at p = 40, past the cap 1000"),
    ((30, 31, 32), 40, None, [], "lists", "0194863f916895ee"),
    ((25, 27, 30, 47), 1231, 1000, [], None,
     "30800 list entries for the class minima at p = 1231, past the cap 1000"),
    ((25, 27, 30, 47), 1231, None, [47, 158, 380, 824, 1712, 3488], "table", "6e47771397681beb"),
    ((19, 72), 20, 1000, [], "lists", "5a6dead49ebb98c8"),
    ((19, 72), 20, None, [], "lists", "5a6dead49ebb98c8"),
    ((19, 23, 27), 7, 1000, [], "lists", "2fc19c898744a093"),
    ((19, 23, 27), 7, None, [], "lists", "2fc19c898744a093"),
    ((15, 56), 29, 1000, [], "lists", "95cd992c019964b1"),
    ((15, 56), 29, None, [], "lists", "95cd992c019964b1"),
    ((67, 69), 24, 1000, [], None,
     "1675 list entries for the class minima at p = 24, past the cap 1000"),
    ((67, 69), 24, None, [], "lists", "1f0ae6ff50fc1c01"),
    ((19, 28, 32, 60), 30, 1000, [], "lists", "44a6a20e335d8adc"),
    ((19, 28, 32, 60), 30, None, [], "lists", "44a6a20e335d8adc"),
    ((13, 36, 69, 71), 0, 1000, [], "lists", "512b3cacde2b4bf2"),
    ((13, 36, 69, 71), 0, None, [], "lists", "512b3cacde2b4bf2"),
    ((7, 57), 1681, 1000, [], None,
     "11774 list entries for the class minima at p = 1681, past the cap 1000"),
    ((7, 57), 1681, None, [], "lists", "db02205aa1900438"),
    ((23, 35, 51), 27, 1000, [], "lists", "e2b88fedd90e6994"),
    ((23, 35, 51), 27, None, [], "lists", "e2b88fedd90e6994"),
    ((37, 48, 63, 75), 27, 1000, [75, 214, 492, 999], None,
     "1036 list entries for the class minima at p = 27, past the cap 1000"),
    ((37, 48, 63, 75), 27, None, [], "lists", "f2533ad39027c782"),
]


@pytest.mark.parametrize("gens, top, cap, fills, route, outcome", ROUTE_RECORDS)
def test_class_minima_keep_their_recorded_routes(
    monkeypatch, gens, top, cap, fills, route, outcome
):
    seen, answered = [], []
    lists = semigroup._minima_from_lists

    class Recording(DenumerantTable):
        def _fill(self, new_horizon):
            seen.append(new_horizon)
            super()._fill(new_horizon)

    def spy(A, top):
        answered.append(top)
        return lists(A, top)

    monkeypatch.setattr(semigroup, "DenumerantTable", Recording)
    monkeypatch.setattr(semigroup, "_minima_from_lists", spy)
    if cap is None:
        monkeypatch.delenv("PSEMIGROUPS_HORIZON_CAP", raising=False)
    else:
        monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", str(cap))
    try:
        minima = build(gens, top).apery_by_residue
    except CapExceededError as refusal:
        got = None, str(refusal)
    else:
        got = "lists" if answered else "table", sha256(repr(minima).encode()).hexdigest()[:16]
    assert (seen, *got) == (fills, route, outcome)


def test_range_build_checks_the_cap_at_its_top_p(monkeypatch):
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "1000")
    with pytest.raises(CapExceededError):
        build_range((2, 3), range(0, 10**12 + 1))
    # F = 6p + 1 for {2, 3}: 601 at p = 100 stays under the cap
    rows = build_range((2, 3), range(0, 101))
    assert [next(rows)[1].frobenius for _ in range(3)] == [1, 7, 13]
