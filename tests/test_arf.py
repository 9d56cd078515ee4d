import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import acceptance_instances, generator_tuples, small_p
from oracles import full_scan_arf, small_elements
from psemigroups import arf
from psemigroups import (
    CapExceededError,
    build,
    is_arf,
    verify_arf_conductor_kunz,
    verify_arf_heredity,
)


def _naive_arf(sp, limit):
    members = [n for n in range(limit) if sp.contains(n)]
    for x in members:
        for y in members:
            if y > x:
                continue
            for z in members:
                if z > y:
                    continue
                if not sp.contains(x + y - z):
                    return False, (x, y, z)
    return True, None


def test_smallest_closed_instance():
    assert is_arf(build((2, 3), 0)).passed


def test_witness_for_open_instance():
    report = is_arf(build((3, 4), 0))
    assert not report.passed
    assert report.details["witness"] == (4, 4, 3)
    x, y, z = report.details["witness"]
    sp = build((3, 4), 0)
    assert x >= y >= z
    assert sp.contains(x) and sp.contains(y) and sp.contains(z)
    assert not sp.contains(x + y - z)


def test_higher_p_instance_is_closed():
    sp = build((2, 3), 1)
    assert small_elements(sp) == (6, 8)
    assert is_arf(sp).passed


def test_heredity_families():
    assert verify_arf_heredity(2, 3, 5).passed
    assert verify_arf_heredity(2, 5, 5).passed
    assert verify_arf_heredity(2, 7, 4).passed
    skipped = verify_arf_heredity(3, 4, 3)
    assert not skipped.applicable
    assert "witness" in skipped.note


def test_heredity_scans_each_instance_once(monkeypatch):
    # the base verdict serves as the p = 0 row
    scanned = []

    def spy(sp):
        scanned.append(sp)
        return is_arf(sp)

    monkeypatch.setattr(arf, "is_arf", spy)
    assert verify_arf_heredity(2, 3, 5).passed
    assert scanned == [build((2, 3), p) for p in range(6)]


def test_conductor_kunz_zero_residue_branch():
    report = verify_arf_conductor_kunz(build((2, 3), 1))
    sp = build((2, 3), 1)
    assert sp.conductor == 8 and sp.conductor % 2 == 0
    assert report.details["apery_checks"] == (True, True)
    assert report.details["kunz_checks"] == (True, True)
    assert sp.apery_by_residue[1] == 9
    assert sp.kunz[1] == 4

    report25 = verify_arf_conductor_kunz(build((2, 5), 0))
    assert report25.details["apery_checks"] == (True, True)
    assert build((2, 5), 0).apery_by_residue[1] == 5

    trivial = verify_arf_conductor_kunz(build((2, 3), 0))
    assert trivial.details["apery_checks"] == (True, True)
    assert build((2, 3), 0).apery_by_residue[1] == 3


def test_conductor_kunz_nonzero_residue_branch():
    sp = build((3, 5, 7), 0)
    assert is_arf(sp).passed
    assert sp.conductor % sp.modulus == 2
    report = verify_arf_conductor_kunz(sp)
    assert report.details["apery_checks"] == (True, True)
    assert report.details["kunz_checks"] == (True, True)
    assert sp.apery_by_residue[1] == 7 and sp.apery_by_residue[2] == 5
    assert sp.kunz[1] == 2 and sp.kunz[2] == 1


def test_scan_charges_each_difference(monkeypatch):
    # every integer from 40 on is a member, so the instance is closed and
    # the scan reaches t = 39, charged 40 * 39 class steps
    gens = tuple(range(40, 80))
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "1560")
    sp = build(gens, 0)
    assert is_arf(sp).passed
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "1559")
    with pytest.raises(CapExceededError, match="1560 class steps"):
        is_arf(sp)


def test_not_applicable_on_open_instance():
    report = verify_arf_conductor_kunz(build((3, 4), 0))
    assert not report.applicable and not report.passed
    assert report.details["witness"] == (4, 4, 3)


@given(gens=generator_tuples(max_value=12, max_size=3), p=st.integers(0, 2))
def test_bitmask_scan_matches_naive_triples(gens, p):
    sp = build(gens, p)
    verdict, _ = _naive_arf(sp, sp.conductor)
    assert is_arf(sp).passed == verdict


@given(b=st.integers(3, 19).filter(lambda b: b % 2 == 1), p=st.integers(0, 4))
def test_two_generator_even_family_is_closed(b, p):
    assert is_arf(build((2, b), p)).passed


def _assert_matches_full_scan(sp):
    report = is_arf(sp)
    closed, witness = full_scan_arf(sp)
    assert (report.passed, report.details["witness"]) == (closed, witness)
    if witness is not None:
        _, y, z = witness
        assert y - z < sp.modulus


@settings(max_examples=200)
@given(
    gens=st.one_of(
        st.sampled_from([gens for gens, _ in acceptance_instances()]),
        generator_tuples(max_value=45),
    ),
    p=st.integers(0, 25),
)
def test_scan_below_modulus_matches_full_scan(gens, p):
    _assert_matches_full_scan(build(gens, p))


def test_scan_below_modulus_matches_full_scan_near_conductor_1e4():
    for gens, p, closed in (
        ((151, 157, 163), 20, False),
        ((101, 103, 107), 30, False),
        ((2, 3), 1666, True),
        ((2, 10001), 0, True),
    ):
        sp = build(gens, p)
        assert 8000 < sp.conductor < 16000
        assert is_arf(sp).passed == closed
        _assert_matches_full_scan(sp)
