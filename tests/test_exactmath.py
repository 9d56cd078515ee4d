import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from psemigroups import (
    CapExceededError,
    PreconditionError,
    bernoulli,
    eulerian,
    exactmath,
    verify_eulerian_gf,
)


def test_bernoulli_base_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_recurrence_identity_even_indices():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 must hold exactly for n in 2..20
    for n in range(2, 21):
        total = sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert total == 0, n


def test_bernoulli_odd_indices_vanish():
    for k in range(1, 10):
        assert bernoulli(2 * k + 1) == 0


def test_bernoulli_negative_index_rejected():
    with pytest.raises(PreconditionError):
        bernoulli(-1)
    with pytest.raises(PreconditionError, match="Eulerian row index must be non-negative"):
        eulerian(-1, 0)


def test_eulerian_base_values():
    assert eulerian(0, 0) == 1
    assert eulerian(1, 0) == 1
    assert eulerian(3, 1) == 4
    assert eulerian(4, 1) == 11
    assert eulerian(3, -1) == 0
    assert eulerian(3, 3) == 0
    assert eulerian(0, 1) == 0
    # outside the triangle, refused before any row is built
    assert eulerian(10**6, -1) == 0


@pytest.mark.parametrize("n", range(9))
def test_eulerian_row_sums_are_factorials(n):
    assert sum(eulerian(n, m) for m in range(max(n, 1))) == factorial(n)


def test_eulerian_symmetry():
    for n in range(1, 9):
        for m in range(n):
            assert eulerian(n, m) == eulerian(n, n - 1 - m)


def test_series_check_passes_on_known_orders():
    assert verify_eulerian_gf(1, 10).passed
    assert verify_eulerian_gf(3, 12).passed


def test_series_check_rejects_small_order():
    with pytest.raises(PreconditionError):
        verify_eulerian_gf(2, 3)
    with pytest.raises(PreconditionError, match="series exponent n must be positive"):
        verify_eulerian_gf(0, 5)


def test_series_check_reports_its_first_mismatch(monkeypatch):
    # row 3 is [1, 4, 1]; with its middle entry wrong, degree 2 is the
    # first whose coefficients differ
    true_row = exactmath.eulerian_row
    monkeypatch.setattr(
        exactmath, "eulerian_row", lambda n: [1, 5, 1] if n == 3 else true_row(n)
    )
    check = verify_eulerian_gf(3, 12)
    assert not check.passed
    assert check.details == {"first_mismatch": 2}


def test_series_check_is_bounded_by_the_horizon_cap(monkeypatch):
    # order 12 at exponent 3 sums (12 + 1) * (3 + 2) = 65 terms
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "65")
    assert verify_eulerian_gf(3, 12).passed
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "64")
    with pytest.raises(CapExceededError):
        verify_eulerian_gf(3, 12)


def test_series_check_holds_nothing_after_it_returns():
    # only row n of the Eulerian triangle is built, and no table is cached
    tracemalloc.start()
    try:
        assert verify_eulerian_gf(400, 500).passed
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


@given(n=st.integers(1, 6), extra=st.integers(2, 12))
def test_series_check_passes_generally(n, extra):
    check = verify_eulerian_gf(n, n + extra)
    assert check.passed and check.details["first_mismatch"] is None
