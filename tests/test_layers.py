"""The checks of ``tests/layers.py``, run alone, with no timings, and the
linear references they rest on."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import layers
from conftest import generator_tuples, small_p
from oracles import (
    brute_pseudo_frobenius,
    full_shift_pseudo_frobenius,
    interval_runs,
    is_run_text,
    mask_pseudo_frobenius,
)
from psemigroups import Report, build, semigroup


@pytest.mark.parametrize("p", range(4))
def test_every_layer_gives_its_reference_value(p):
    layers.check((4, 5, 6), p)


@pytest.mark.parametrize("gens, p", [((3, 4, 5), 0), ((5, 7, 13), 2)])
def test_every_layer_gives_its_reference_value_at_an_even_mirror_total(gens, p):
    # {4,5,6} p 0..3 and every rung have odd mirror totals; the pairing
    # verdicts of an even one, its midpoint a gap, then a member
    layers.check(gens, p)


def test_the_count_table_rung_gives_its_reference_values(monkeypatch):
    # the one rung whose class minima come off a count table
    tables = []
    real = semigroup._minima_from_table
    monkeypatch.setattr(semigroup, "_minima_from_table",
                        lambda *args: tables.append(real(*args)) or tables[-1])
    layers.check(*layers.RUNGS[-1])
    assert tables and None not in tables


def _shifted(real):
    def wrong(sp, *args):
        value = real(sp, *args)
        return value[:-1] if isinstance(value, tuple) else [value[0], value[1] + 1]
    return wrong


def _flipped_verdict(real):
    def wrong(sp):
        report = real(sp)
        verdicts = report.details["verdicts"]
        first = next(iter(verdicts))
        details = {**report.details, "verdicts": {**verdicts, first: not verdicts[first]}}
        return Report(report.kind, report.passed, report.applicable, report.note, details)
    return wrong


def _extra_gap(real):
    def wrong(gens, p):
        doc = real(gens, p)
        return {**doc, "gaps": doc["gaps"] + ",99"}
    return wrong


def _swapped_h_and_k(real):
    def wrong(sp, pf, expand):
        sets = real(sp, pf, expand)
        return {**sets, "h_set": sets["k_set"]["below"],
                "k_set": {**sets["k_set"], "below": sets["h_set"]}}
    return wrong


@pytest.mark.parametrize("name, wrong, layer", [
    ("pseudo_frobenius", _shifted, "^pseudo_frobenius"),
    ("gap_power_sums", _shifted, "rows 0-1"),
    ("verify_apery_pairings", _flipped_verdict, "verify pairings"),
    ("analyze_sets", _swapped_h_and_k, "sets: h_set"),
    ("analyze_document", _extra_gap, "analyze: sets"),
])
def test_a_wrong_layer_fails_its_check(monkeypatch, name, wrong, layer):
    monkeypatch.setattr(layers, name, wrong(getattr(layers, name)))
    with pytest.raises(AssertionError, match=layer):
        layers.check((4, 5, 6), 2)


@given(gens=generator_tuples(max_value=14, max_size=3), p=small_p)
def test_mask_pseudo_frobenius_matches_the_full_shift_scan(gens, p):
    sp = build(gens, p)
    assert mask_pseudo_frobenius(sp) == full_shift_pseudo_frobenius(sp)


def test_mask_pseudo_frobenius_matches_the_definition():
    for gens in ((4, 5, 6), (5, 7, 9), (6, 10, 15)):
        for p in range(4):
            assert list(mask_pseudo_frobenius(build(gens, p))) == brute_pseudo_frobenius(gens, p)


@given(flags=st.lists(st.integers(0, 1), max_size=40).map(bytes))
def test_run_text_is_the_interval_runs_of_the_set_bytes(flags):
    text = interval_runs(i for i, flag in enumerate(flags) if flag)
    assert is_run_text(text, flags)
    assert not is_run_text(text + ",99", flags)
    assert not is_run_text(text[:-1], flags) or not text
