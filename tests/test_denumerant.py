import importlib
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import generator_tuples
from oracles import brute_count, dp_counts, representations
from psemigroups import (
    CapExceededError,
    DenumerantTable,
    GeneratorSet,
    PreconditionError,
    build_range,
    denumerant,
)

# the module, which the package's denumerant function shadows
denumerant_module = importlib.import_module("psemigroups.denumerant")

REMARK_TUPLES_456 = {(0, 5, 0), (1, 3, 1), (2, 1, 2), (5, 1, 0)}
REMARK_TUPLES_8456 = {
    (0, 0, 5, 0),
    (0, 1, 3, 1),
    (0, 2, 1, 2),
    (0, 5, 1, 0),
    (1, 0, 1, 2),
    (1, 3, 1, 0),
    (2, 1, 1, 0),
}


def test_generator_set_validation():
    with pytest.raises(PreconditionError):
        GeneratorSet((4,))
    with pytest.raises(PreconditionError):
        GeneratorSet((1, 3))
    with pytest.raises(PreconditionError):
        GeneratorSet((4, 4, 5))
    with pytest.raises(PreconditionError):
        GeneratorSet((4, 6))
    gens = GeneratorSet((8, 4, 5, 6))
    assert gens.ordered == (8, 4, 5, 6)
    assert gens.least == 4


def test_counts_start_with_the_empty_representation():
    assert DenumerantTable((4, 5, 6), 0).count(0) == 1
    assert denumerant((4, 5, 6), 1) == 0


def test_remark_counts():
    assert denumerant((4, 5, 6), 25) == 4
    assert denumerant((8, 4, 5, 6), 25) == 7
    assert DenumerantTable((4, 5, 6), 25).count(25) == 4
    assert DenumerantTable((8, 4, 5, 6), 25).count(25) == 7


def test_remark_representation_tuples():
    assert set(representations((4, 5, 6), 25)) == REMARK_TUPLES_456
    assert set(representations((8, 4, 5, 6), 25)) == REMARK_TUPLES_8456


def test_representation_of_zero_is_empty_tuple():
    assert representations((7, 9), 0) == [(0, 0)]


def test_small_golden_against_recursion():
    assert denumerant((2, 3), 6) == brute_count((2, 3), 6) == 2


@given(gens=generator_tuples(max_value=12, max_size=3), n=st.integers(0, 80))
def test_table_matches_recursive_oracle(gens, n):
    assert DenumerantTable(gens, n).count(n) == brute_count(gens, n)


@given(gens=generator_tuples(), n=st.integers(0, 120))
def test_shift_monotonicity(gens, n):
    table = DenumerantTable(gens, n + max(gens))
    for a in gens:
        assert table.count(n + a) >= table.count(n)


@given(gens=generator_tuples(), n=st.integers(0, 120), seed=st.randoms())
def test_counts_ignore_generator_order(gens, n, seed):
    shuffled = list(gens)
    seed.shuffle(shuffled)
    assert denumerant(gens, n) == denumerant(tuple(shuffled), n)


@given(gens=generator_tuples(max_value=12, max_size=3), n=st.integers(0, 60), extra=st.integers(2, 40))
def test_extra_generator_never_lowers_counts(gens, n, extra):
    if extra in gens:
        extra += max(gens)
    if extra in gens:
        return
    augmented = (extra, *gens)
    assert denumerant(augmented, n) >= denumerant(gens, n)


@given(gens=generator_tuples(max_value=15, max_size=3), n=st.integers(0, 200))
def test_enumeration_cardinality_matches_count(gens, n):
    assert len(representations(gens, n)) == denumerant(gens, n)


def test_table_extension_preserves_counts():
    table = DenumerantTable((4, 7, 9), 30)
    before = [table.count(n) for n in range(31)]
    table.ensure(120)
    assert [table.count(n) for n in range(31)] == before
    assert table.count(120) == brute_count((4, 7, 9), 120)


@given(
    gens=generator_tuples(max_value=30, max_size=5),
    start=st.integers(0, 300),
    targets=st.lists(st.integers(0, 5000), max_size=5),
    steps=st.lists(st.integers(1, 30), max_size=5),
)
def test_grown_table_matches_plain_dp(gens, start, targets, steps):
    # a growth step of at most g entries makes no prefix sum at stage g,
    # a longer one sums each residue class with two or more entries; a
    # step shorter than g keeps part of that stage's old tail
    table = DenumerantTable(gens, start)
    assert table.counts == dp_counts(gens, start)
    for n in targets:
        table.ensure(n)
        assert table.counts == dp_counts(gens, table.horizon)
    for step in steps:
        table.ensure(table.horizon + step)
        assert table.counts == dp_counts(gens, table.horizon)


def test_grown_table_holds_one_count_list():
    # d(0..horizon) as one list, a slot and an int object an entry, plus a
    # tail of g values a stage: about 40 bytes an entry at k = 4, where k
    # full stages would hold about 100
    gens = (101, 103, 107, 109)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = DenumerantTable(gens, max(gens))
        while table.horizon < 200_000:
            table.ensure(min(2 * table.horizon + 64, 200_000))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.horizon == len(table.counts) - 1 == 200_000
    assert held <= 50 * (table.horizon + 1)


def _spy_fill(monkeypatch):
    """Lists that fill as the tables grow: one entry per prefix sum made,
    and the segment length of each ``_fill`` call."""
    made, lengths = [], []
    monkeypatch.setattr(denumerant_module, "accumulate",
                        lambda values: made.append(1) or accumulate(values))
    fill = DenumerantTable._fill
    monkeypatch.setattr(DenumerantTable, "_fill",
                        lambda table, n: lengths.append(n - table.horizon) or fill(table, n))
    return made, lengths


# The seed-0 high-p calls whose class minima come off a count table:
# generators, p range, and the prefix sums that their fills make.
HIGH_P_TABLE_RANGES = [
    ((10, 11, 12, 18), range(3789, 4301), 229),
    ((12, 14, 17, 21), range(1417, 1929), 280),
    ((25, 27, 30, 47), range(1000, 1232), 708),
    ((17, 22, 25), range(1000, 1160), 398),
    ((21, 33, 38), range(1000, 1089), 669),
    ((8, 9, 10), range(1321, 1833), 141),
]


@pytest.mark.parametrize("gens, p_values, prefix_sums", HIGH_P_TABLE_RANGES)
def test_fill_makes_one_prefix_sum_per_residue_class_with_two_entries(
    monkeypatch, gens, p_values, prefix_sums
):
    # stage g of a fill over a segment of length end sums the classes
    # modulo g with two or more entries in it, min(g, end - g) of them
    made, lengths = _spy_fill(monkeypatch)
    list(build_range(gens, p_values))
    assert len(made) == sum(max(0, min(g, end - g)) for end in lengths for g in gens)
    assert len(made) == prefix_sums


def test_table_below_its_generators_holds_only_what_it_charged(monkeypatch):
    # a stage's tail is at most horizon + 1 values, so a short table over
    # large generators allocates what its charge covers, not sum(A); each
    # residue class of a stage has one entry, so no prefix sum is made
    gens = (10_000_019, 10_000_079)
    made, _ = _spy_fill(monkeypatch)
    tracemalloc.start()
    try:
        table = DenumerantTable(gens, 5)
        table.ensure(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.counts == [1] + [0] * 9
    assert [len(tail) for tail in table._tails] == [10, 10]
    assert peak < 10_000
    assert not made
    assert denumerant((1000000007, 1000000009), 5) == 0


def test_table_invariant_shift_monotonicity_whole_table():
    table = DenumerantTable((3, 5), 60)
    counts = table.counts
    for a in (3, 5):
        for n in range(len(counts) - a):
            assert counts[n + a] >= counts[n]


def test_horizon_cap_guard(monkeypatch):
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "100")
    with pytest.raises(CapExceededError):
        DenumerantTable((4, 5, 6), 1000)
    table = DenumerantTable((4, 5, 6), 10)
    with pytest.raises(CapExceededError):
        table.ensure(5000)


def test_table_grows_exactly_to_the_horizon_asked_for():
    table = DenumerantTable((4, 5, 6), 10)
    for n in (11, 12, 500, 501):
        table.ensure(n)
        assert table.horizon == n
    table.ensure(7)
    assert table.horizon == 501


def test_horizon_cap_env_override(monkeypatch):
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "50")
    with pytest.raises(CapExceededError):
        DenumerantTable((4, 5, 6), 1000)
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "bogus")
    with pytest.raises(PreconditionError):
        DenumerantTable((4, 5, 6), 10)


def test_negative_n_rejected():
    with pytest.raises(PreconditionError):
        denumerant((4, 5, 6), -1)
    with pytest.raises(PreconditionError, match="horizon must be non-negative"):
        DenumerantTable((4, 5, 6), -1)
    table = DenumerantTable((4, 5, 6), 10)
    with pytest.raises(PreconditionError, match="count index must be non-negative"):
        table.count(-1)
    with pytest.raises(PreconditionError, match="n exceeds the table horizon; call ensure"):
        table.count(11)
