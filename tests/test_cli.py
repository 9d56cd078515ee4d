import ast
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import takewhile
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import acceptance_instances
from oracles import (
    interval_runs,
    jsonify,
    set_cofinite_doc,
    set_finite_doc,
    set_hlk_sets,
    set_pattern,
    small_elements,
)
import psemigroups
from psemigroups import cli, cli_more, semigroup, sets
from psemigroups import symmetry as sym_mod
from psemigroups import (
    InternalCheckError,
    as_generator_set,
    build,
    classify,
    detect_pattern,
    gap_count,
    gap_power_sums,
    gap_sum,
    is_arf,
    power_sum_bernoulli,
    weighted_power_sums,
)
from psemigroups.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CAP,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_VERIFIER_FAILED,
    analyze_document,
    main,
    verify_exit_code,
)
from psemigroups.cli_more import sums_document
from psemigroups.sets import hlk_of_members, mask_runs, sorted_set_doc, split_docs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _mask(values):
    return sum(1 << x for x in set(values))


def test_interval_runs():
    assert mask_runs(_mask([0, 1, 2, 3, 5, 7, 8])) == "0-3,5,7-8"
    assert mask_runs(_mask([])) == ""
    assert mask_runs(_mask([4])) == "4"


@given(
    values=st.sets(st.integers(0, 200)),
    all_from=st.integers(0, 210),
    expand=st.booleans(),
)
def test_mask_rendering_matches_the_tuple_oracle(values, all_from, expand):
    assert mask_runs(_mask(values)) == interval_runs(values)
    assert sorted_set_doc(tuple(sorted(values)), expand) == set_finite_doc(values, expand)
    below = {x for x in values if x < all_from}
    assert split_docs(_mask(below), all_from, expand) == (
        set_finite_doc(below, expand),
        set_finite_doc(set(range(all_from)) - below, expand),
    )


_CHUNK = sets._JOIN_RUNS


@pytest.mark.parametrize("lengths", [(1,), (5,), (1, 5), (5, 1)], ids=str)
@pytest.mark.parametrize(
    "runs",
    [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 1],
)
def test_mask_rendering_across_join_chunks(runs, lengths):
    # run i has lengths[i % len(lengths)] elements, so each side of a chunk
    # boundary sees singletons, long runs, or one of each in either order;
    # the holes between runs are 1 to 3 wide
    bits, values = bytearray(), []
    for i in range(runs):
        n = lengths[i % len(lengths)]
        values.extend(range(len(bits), len(bits) + n))
        bits += b"1" * n + b"0" * (1 + i % 3)
    mask = int(bits[::-1] or b"0", 2)
    rendered = mask_runs(mask)
    assert rendered == interval_runs(values)
    assert rendered.count(",") == max(runs - 1, 0)
    # the clear runs share the boundaries, the first run of either kind
    # may start at 0, and the last clear run ends at the length, if below
    top = values[-1] + 1 if values else 0
    for length in (top, top + 1):
        assert split_docs(mask, length, False) == (
            rendered,
            interval_runs(set(range(length)) - set(values)),
        )


_KEYS = st.text(alphabet='ab"\\/\n\x00é \U0001f600', max_size=4) | st.text(max_size=4)
_HUGE = st.integers(min_value=10**4300) | st.integers(max_value=-(10**4300))
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | _HUGE
    | st.fractions()
    | st.integers().map(Fraction)
    | st.builds(Fraction, _HUGE, st.integers(1, 10**6))
    | _KEYS
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)
_ROWS = st.lists(st.dictionaries(_KEYS, _VALUES, max_size=3), min_size=1, max_size=3)
_DOCS = (
    st.dictionaries(_KEYS, _VALUES, max_size=6)
    | st.builds(lambda d: {**d, "rows": []}, st.dictionaries(_KEYS, _VALUES, max_size=3))
    | st.builds(
        lambda d, rows: {**d, "rows": rows},
        st.dictionaries(_KEYS, _VALUES, max_size=3),
        _ROWS | _ROWS.map(tuple),
    )
)


def _emitted(doc, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit(doc, fmt)
    return out.getvalue()


@contextlib.contextmanager
def _no_digit_limit():
    """Lift the int -> str digit limit, as ``emit`` does while it writes."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@settings(max_examples=200)
@given(doc=_DOCS)
def test_json_is_written_as_json_dumps_writes_it(doc):
    with _no_digit_limit():
        expected = json.dumps(jsonify(doc), sort_keys=True, separators=(",", ":"))
    assert _emitted(doc, "json") == expected + "\n"


@pytest.mark.parametrize("fmt", ["tsv", "pretty"])
@settings(max_examples=150)
@given(doc=_DOCS)
# a "rows" that is not a list of dicts
@example(doc={"rows": {"": None}})
@example(doc={"rows": [None]})
@example(doc={"rows": ({"a": 1}, 2)})
def test_tsv_and_pretty_render_the_document_as_jsonify_would(fmt, doc):
    # Fractions, integral ones too, print as "num/den" and tuples as lists,
    # with no converted copy of the document
    with _no_digit_limit():
        reference = jsonify(doc)
    assert _emitted(doc, fmt) == _emitted(reference, fmt)


@pytest.mark.parametrize("rows", [{"a": 1}, [None], [{"a": 1}, 2], (3,)])
def test_tsv_writes_a_rows_that_is_not_a_list_of_dicts_as_a_key(rows):
    assert _emitted({"rows": rows, "b": 1}, "tsv") == f"b\t1\nrows\t{cli.to_json(jsonify(rows))}\n"


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_emit_refuses_what_json_cannot_encode(fmt):
    # pretty writes each leaf by str(), so only the encoder can refuse
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        _emitted({"rows": [{"x": [object()]}]}, fmt)


class _CountedWriter(io.TextIOWrapper):
    written = 0
    writes = 0

    def write(self, text):
        self.written += len(text)
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "options, ratio",
    [
        ((), 2),
        (("--format", "tsv"), 2),
        (("--format", "pretty"), 2),
        (("--expand", "--format", "pretty"), 4),
    ],
    ids=["json", "tsv", "pretty", "expand-pretty"],
)
def test_analyze_peak_memory_is_bounded_by_its_output(options, ratio):
    # F = 206 843: the rendered sets, not the class minima, set the peak
    # here, and the output is all ASCII, so its length is its size in bytes;
    # expanded, each listed int outweighs its printed line
    out = _CountedWriter(open(os.devnull, "wb"))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["analyze", "--gens", "1009,1013,1019", "--p", "0", *options])
            out.flush()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        out.close()
    assert code == EXIT_OK
    assert out.written > 10**6
    assert peak <= ratio * out.written


@pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
def test_output_is_written_in_large_pieces(fmt):
    # with stdout unbuffered every write is a system call: the expanded
    # sets' lines (about six characters each) are joined into writes of at
    # most 64 KiB, and a longer piece is written alone
    out = _CountedWriter(open(os.devnull, "wb"))
    try:
        with contextlib.redirect_stdout(out):
            code = main(["analyze", "--gens", "1009,1013,1019", "--p", "0", "--expand", "--format", fmt])
    finally:
        out.close()
    assert code == EXIT_OK
    assert out.written > 10**6
    assert out.writes <= out.written // 2**15 + 40


def test_emit_joins_short_pieces_and_writes_a_long_one_alone(monkeypatch):
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    long = "7" * 2**16
    cli.emit({"a": 1, "b": long, "c": 2}, "json")
    assert writes == ['{"a":1,"b":', f'"{long}"', ',"c":2}\n']
    writes.clear()
    cli.emit({"rows": [{"p": 0, "v": long}, {"p": 1, "v": 3}]}, "tsv")
    assert writes == ["p\tv\n", f"0\t{long}", "\n1\t3\n"]
    writes.clear()
    cli.emit({"rows": [{"p": p} for p in range(10**5)]}, "tsv")
    assert "".join(writes) == "p\n" + "".join(f"{p}\n" for p in range(10**5))
    assert all(2**15 < len(w) <= 2**16 for w in writes[:-1])


@settings(max_examples=150)
@given(
    instance=st.sampled_from(acceptance_instances()),
    p=st.integers(0, 15),
    expand=st.booleans(),
)
# at p = 0, 0 is a member, total = F and K's tail starts at total + 1; at
# p > 0 it starts at c; the smallest instance has F = 1; at F = 87 975 the
# sparse boundary scans cross a 2^16-digit window, at F = 206 843 the dense
# ones run
@example(instance=((2, 3), 0), p=0, expand=False)
@example(instance=((2, 3), 0), p=1, expand=False)
@example(instance=((2, 3), 0), p=0, expand=True)
@example(instance=((5, 7, 9), 0), p=0, expand=False)
@example(instance=((5, 7, 9), 0), p=4, expand=False)
@example(instance=((97, 101), 0), p=8, expand=False)
@example(instance=((97, 101), 0), p=8, expand=True)
@example(instance=((1009, 1013, 1019), 0), p=0, expand=False)
def test_analyze_document_matches_the_set_rendering(instance, p, expand):
    gens = as_generator_set(instance[0])
    doc = analyze_document(gens, p, expand)
    sp = build(gens, p)
    h, l, k_below = set_hlk_sets(sp)
    total = sp.frobenius + sp.multiplicity
    expected = {
        "genus": len(sp.gaps),
        "sylvester_sum": sum(sp.gaps),
        "gaps": set_finite_doc(sp.gaps, expand),
        "members": set_cofinite_doc(
            [n for n in small_elements(sp) if n <= sp.frobenius], sp.conductor, expand
        ),
        "pseudo_frobenius": set_finite_doc(classify(sp).pf, expand),
        "h_set": set_finite_doc(h, expand),
        "l_set": set_finite_doc(l, expand),
        "k_set": set_cofinite_doc(k_below, total + 1, expand),
        "pattern": set_pattern(sp),
    }
    assert {key: doc[key] for key in expected} == expected


@pytest.mark.parametrize("expand", [False, True])
def test_analyze_builds_no_gap_tuples(monkeypatch, expand):
    # an instance keeps only its O(a) fields: nothing the renderer, the
    # power sums, the closure scan or the mirror masks walk is stored on
    # it; analyze and sums each build one instance, which is held here
    held = []

    def build_and_hold(gens, p):
        held.append(build(gens, p))
        return held[-1]

    monkeypatch.setattr(cli, "build", build_and_hold)
    monkeypatch.setattr(cli_more, "build", build_and_hold)
    for gens, p in (((17, 18, 19), 5), ((2, 3), 1), ((6, 7, 17), 14)):
        analyze_document(as_generator_set(gens), p, expand)
        sums_document(as_generator_set(gens), p, 3, Fraction(1, 2))
        sp = build(gens, p)
        gap_power_sums(sp, 2)
        weighted_power_sums(sp, 2, Fraction(2, 3))
        for mu in range(3):
            power_sum_bernoulli(sp, mu)
        gap_count(sp)
        gap_sum(sp)
        is_arf(sp)
        hlk_of_members(sp)
        held.append(sp)
    stored = set(semigroup.PSemigroup.__slots__)
    assert len(held) == 9
    assert all(_stored_fields(sp) == stored for sp in held)


def _stored_fields(record):
    """Names of the attributes an instance holds: its set slots and, were
    there a __dict__, everything in it."""
    slots = {name for name in type(record).__slots__ if hasattr(record, name)}
    return slots | set(getattr(record, "__dict__", ()))


# Exact stdout of `psg analyze`, recorded before the sets were rendered from
# bitmasks: the run-length strings, a p >= 1 instance whose 0 is a gap and
# whose K and member tails merge, --expand, the tsv and pretty formats, and
# a larger instance (F = 15334) by digest.
PINNED_ANALYZE = [
    (
        'analyze --gens 17,18,19 --p 5',
        '{"almost_symmetric":false,'
        '"apery_by_residue":[238,239,240,241,242,243,244,245,246,247,180,198,199,217,218,236,237],'
        '"apery_sorted":[180,198,199,217,218,236,237,238,239,240,241,242,243,244,245,246,247],'
        '"arf":false,"completely_symmetric":false,"conductor":231,"frobenius":230,'
        '"gaps":"0-179,181-196,200-213,219-230","generators":[17,18,19],"genus":222,'
        '"h_set":"0-179,192-196,211-213,230","k_set":{"all_from":231,'
        '"below":"180-191,197-210,214-229"},'
        '"kunz":[14,14,14,14,14,14,14,14,14,14,10,11,11,12,12,13,13],'
        '"l_set":"181-191,200-210,219-229","members":{"all_from":231,'
        '"below":"180,197-199,214-218"},"modulus":17,"multiplicity":180,"p":5,'
        '"pattern":"OTHER","pseudo_frobenius":"219-230","pseudo_symmetric":false,'
        '"sylvester_sum":24711,"symmetric":false,"type":12}\n',
    ),
    (
        'analyze --gens 2,3 --p 1',
        '{"almost_symmetric":true,"apery_by_residue":[6,9],"apery_sorted":[6,9],"arf":true,'
        '"completely_symmetric":false,"conductor":8,"frobenius":7,"gaps":"0-5,7",'
        '"generators":[2,3],"genus":7,"h_set":"0-5,7","k_set":{"all_from":8,"below":"6"},'
        '"kunz":[3,4],"l_set":"","members":{"all_from":8,"below":"6"},"modulus":2,'
        '"multiplicity":6,"p":1,"pattern":"OTHER","pseudo_frobenius":"7",'
        '"pseudo_symmetric":false,"sylvester_sum":22,"symmetric":true,"type":1}\n',
    ),
    (
        'analyze --gens 2,3 --p 1 --expand',
        '{"almost_symmetric":true,"apery_by_residue":[6,9],"apery_sorted":[6,9],"arf":true,'
        '"completely_symmetric":false,"conductor":8,"frobenius":7,"gaps":[0,1,2,3,4,5,7],'
        '"generators":[2,3],"genus":7,"h_set":[0,1,2,3,4,5,7],"k_set":{"all_from":8,'
        '"below":[6]},"kunz":[3,4],"l_set":[],"members":{"all_from":8,"below":[6]},'
        '"modulus":2,"multiplicity":6,"p":1,"pattern":"OTHER","pseudo_frobenius":[7],'
        '"pseudo_symmetric":false,"sylvester_sum":22,"symmetric":true,"type":1}\n',
    ),
    (
        'analyze --gens 2,3 --p 1 --expand --format tsv',
        'almost_symmetric\tTrue\n'
        'apery_by_residue\t[6,9]\n'
        'apery_sorted\t[6,9]\n'
        'arf\tTrue\n'
        'completely_symmetric\tFalse\n'
        'conductor\t8\n'
        'frobenius\t7\n'
        'gaps\t[0,1,2,3,4,5,7]\n'
        'generators\t[2,3]\n'
        'genus\t7\n'
        'h_set\t[0,1,2,3,4,5,7]\n'
        'k_set\t{"all_from":8,"below":[6]}\n'
        'kunz\t[3,4]\n'
        'l_set\t[]\n'
        'members\t{"all_from":8,"below":[6]}\n'
        'modulus\t2\n'
        'multiplicity\t6\n'
        'p\t1\n'
        'pattern\tOTHER\n'
        'pseudo_frobenius\t[7]\n'
        'pseudo_symmetric\tFalse\n'
        'sylvester_sum\t22\n'
        'symmetric\tTrue\n'
        'type\t1\n',
    ),
    (
        'analyze --gens 6,7,17 --p 14 --format tsv',
        'almost_symmetric\tTrue\n'
        'apery_by_residue\t[126,133,134,135,136,131]\n'
        'apery_sorted\t[126,131,133,134,135,136]\n'
        'arf\tTrue\n'
        'completely_symmetric\tFalse\n'
        'conductor\t131\n'
        'frobenius\t130\n'
        'gaps\t0-125,127-130\n'
        'generators\t[6,7,17]\n'
        'genus\t130\n'
        'h_set\t0-125,130\n'
        'k_set\t{"all_from":131,"below":"126-129"}\n'
        'kunz\t[21,22,22,22,22,21]\n'
        'l_set\t127-129\n'
        'members\t{"all_from":131,"below":"126"}\n'
        'modulus\t6\n'
        'multiplicity\t126\n'
        'p\t14\n'
        'pattern\tSINGLETON_PLUS_TAIL\n'
        'pseudo_frobenius\t127-130\n'
        'pseudo_symmetric\tFalse\n'
        'sylvester_sum\t8389\n'
        'symmetric\tFalse\n'
        'type\t4\n',
    ),
    (
        'analyze --gens 6,7,17 --p 14 --format pretty',
        'almost_symmetric: True\n'
        'apery_by_residue:\n'
        '  - 126\n'
        '  - 133\n'
        '  - 134\n'
        '  - 135\n'
        '  - 136\n'
        '  - 131\n'
        'apery_sorted:\n'
        '  - 126\n'
        '  - 131\n'
        '  - 133\n'
        '  - 134\n'
        '  - 135\n'
        '  - 136\n'
        'arf: True\n'
        'completely_symmetric: False\n'
        'conductor: 131\n'
        'frobenius: 130\n'
        'gaps: 0-125,127-130\n'
        'generators:\n'
        '  - 6\n'
        '  - 7\n'
        '  - 17\n'
        'genus: 130\n'
        'h_set: 0-125,130\n'
        'k_set:\n'
        '  all_from: 131\n'
        '  below: 126-129\n'
        'kunz:\n'
        '  - 21\n'
        '  - 22\n'
        '  - 22\n'
        '  - 22\n'
        '  - 22\n'
        '  - 21\n'
        'l_set: 127-129\n'
        'members:\n'
        '  all_from: 131\n'
        '  below: 126\n'
        'modulus: 6\n'
        'multiplicity: 126\n'
        'p: 14\n'
        'pattern: SINGLETON_PLUS_TAIL\n'
        'pseudo_frobenius: 127-130\n'
        'pseudo_symmetric: False\n'
        'sylvester_sum: 8389\n'
        'symmetric: False\n'
        'type: 4\n',
    ),
    ('analyze --gens 151,157,163 --p 20', 'sha256:ec94bf1294f691ce99860cf26dee724b4d48b24b780607acf86079beee34cbc7'),
    ('analyze --gens 151,157,163 --p 20 --expand', 'sha256:c01abb226f8882bf52b17e9cb110d217490dd8d6f9f2d2e5be1c3f0b96cd9f96'),
    # About 21 000 runs per set: several joining chunks each.
    ('analyze --gens 1009,1013,1019 --p 50', 'sha256:89a0c252179fe09c214c49be8e05d7ca1d8966368deb90d67f59fd1701362845'),
    ('analyze --gens 1009,1013,1019 --p 50 --expand', 'sha256:3bc19a41f050f67dd4db7e3a9328aaa6bc4fae2d3aae55751e5050b9143b6bca'),
]


@pytest.mark.parametrize(
    "command, stdout", PINNED_ANALYZE, ids=[command for command, _ in PINNED_ANALYZE]
)
def test_analyze_output_is_pinned(capsys, command, stdout):
    code, out = run_cli(capsys, *command.split())
    assert code == EXIT_OK
    if stdout.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(out.encode()).hexdigest() == stdout
    else:
        assert out == stdout


def test_analyze_appendix_golden(capsys):
    code, out = run_cli(capsys, "analyze", "--gens", "4,7,8", "--p", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["frobenius"] == 33


def test_analyze_trivial_instance(capsys):
    code, out = run_cli(capsys, "analyze", "--gens", "2,3", "--p", "0")
    doc = json.loads(out)
    assert code == EXIT_OK
    assert (doc["frobenius"], doc["genus"], doc["sylvester_sum"]) == (1, 1, 1)
    assert doc["symmetric"] is True


def test_analyze_set_rendering_matches_brace_notation(capsys):
    _, out = run_cli(capsys, "analyze", "--gens", "17,18,19", "--p", "5")
    doc = json.loads(out)
    assert doc["pseudo_frobenius"] == "219-230"
    assert doc["l_set"] == "181-191,200-210,219-229"
    assert doc["k_set"] == {"below": "180-191,197-210,214-229", "all_from": 231}
    assert doc["members"] == {"below": "180,197-199,214-218", "all_from": 231}
    assert doc["almost_symmetric"] is False


def test_analyze_expand_flag(capsys):
    _, out = run_cli(capsys, "analyze", "--gens", "2,3", "--p", "1", "--expand")
    doc = json.loads(out)
    assert doc["gaps"] == [0, 1, 2, 3, 4, 5, 7]


def test_table_golden_sequences(capsys):
    code, out = run_cli(
        capsys, "table", "--gens", "8,4,5,6", "--p", "0..10", "--field", "frobenius"
    )
    doc = json.loads(out)
    assert code == EXIT_OK
    assert [r["frobenius"] for r in doc["rows"]] == [7, 11, 15, 19, 19, 23, 23, 27, 27, 27, 31]
    _, out = run_cli(capsys, "table", "--gens", "2,3", "--p", "0..3", "--field", "frobenius")
    assert [r["frobenius"] for r in json.loads(out)["rows"]] == [1, 7, 13, 19]


def test_table_multiple_fields(capsys):
    _, out = run_cli(
        capsys, "table", "--gens", "4,5,6", "--p", "0..2", "--field", "frobenius,genus,type,pattern"
    )
    rows = json.loads(out)["rows"]
    assert rows[0] == {"p": 0, "frobenius": 7, "genus": 4, "type": 1, "pattern": "OTHER"}


def test_table_pattern_field(capsys):
    code, out = run_cli(capsys, "table", "--gens", "17,18,19", "--p", "6..8", "--field", "pattern")
    rows = json.loads(out)["rows"]
    assert code == EXIT_OK
    assert [r["pattern"] for r in rows] == ["OTHER", "SINGLETON_PLUS_TAIL", "FULL_INTERVAL"]
    assert [r["pattern"] for r in rows] == [
        detect_pattern(build((17, 18, 19), p)) for p in range(6, 9)
    ]


def test_classify_rows(capsys):
    _, out = run_cli(capsys, "classify", "--gens", "6,7,17", "--p", "0..6")
    rows = json.loads(out)["rows"]
    pseudo = [r["p"] for r in rows if r["pseudo_symmetric"]]
    assert pseudo == [0, 4, 5]
    symmetric = [r["p"] for r in rows if r["symmetric"]]
    assert symmetric == [1, 6]


# classify's four flags, as table's fields
_FLAG_FIELDS = "symmetric,pseudo_symmetric,almost_symmetric,completely_symmetric"


@pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
@pytest.mark.parametrize("gens, p", [("17,18,19", "0..44"), ("6,7,17", "0..25")])
def test_classify_is_the_table_of_the_four_flags(capsys, gens, p, fmt):
    head = ("--gens", gens, "--p", p, "--format", fmt)
    flags = run_cli(capsys, "classify", *head)
    assert flags[0] == EXIT_OK
    assert run_cli(capsys, "table", *head, "--field", _FLAG_FIELDS) == flags


@pytest.mark.parametrize("gens, p", [("17,18,19", "5"), ("6,7,17", "16"), ("8,4,5,6", "8"),
                                     ("2,3", "0"), ("12,14,17,21", "3")])
def test_analyze_writes_the_table_row_with_every_field(capsys, gens, p):
    _, analyzed = run_cli(capsys, "analyze", "--gens", gens, "--p", p)
    _, table = run_cli(capsys, "table", "--gens", gens, "--p", p, "--field", ",".join(cli._TABLE_FIELDS))
    doc = json.loads(analyzed)
    assert json.loads(table)["rows"] == [{key: doc[key] for key in ["p", *cli._TABLE_FIELDS]}]


def test_a_row_classifies_its_instance_at_most_once(capsys, monkeypatch):
    # each classified instance is that of the p listed; no two p of
    # 0..25 share one
    classified = []
    monkeypatch.setattr(sym_mod, "classify", lambda sp: classified.append(sp) or classify(sp))
    head = ("--gens", "6,7,17", "--p", "0..25")
    for argv, calls in [
        (("table", *head, "--field", "frobenius,genus"), []),
        (("table", *head, "--field", "frobenius,pattern,multiplicity,conductor,sylvester_sum"), []),
        (("table", *head, "--field", "type,symmetric"), list(range(26))),
        (("table", *head, "--field", ",".join(cli._TABLE_FIELDS)), list(range(26))),
        (("classify", *head), list(range(26))),
        (("analyze", "--gens", "6,7,17", "--p", "16"), [16]),
    ]:
        classified.clear()
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        assert classified == [build((6, 7, 17), p) for p in calls], argv


@pytest.mark.parametrize("gens, lo, hi, distinct", [
    # 512 values of p, 19 distinct minima tuples
    ((10, 11, 12, 18), 3789, 4300, 19),
    # at low p every p has minima of its own
    ((4, 5, 6), 0, 5, 6),
])
def test_a_range_checks_and_classifies_each_distinct_set_once(
    capsys, monkeypatch, gens, lo, hi, distinct
):
    # each p's minima read from the route itself, one read a p; the route
    # of a range is read once a run, at its first p
    p_values, class_minima = range(lo, hi + 1), semigroup._class_minima
    run_at = class_minima(semigroup.as_generator_set(gens), hi)
    minima = [run_at(p)[0] for p in p_values]
    starts = [i for i, m in enumerate(minima) if i == 0 or m != minima[i - 1]]
    changes = [minima[i] for i in starts]
    assert len(changes) == distinct
    validated, classified, read, validate = [], [], [], semigroup._validate

    def counted_class_minima(A, top):
        run_at = class_minima(A, top)
        return lambda p: read.append(p) or run_at(p)

    def counted_validate(A, values, p, earlier=None):
        validated.append(values)
        return validate(A, values, p, earlier)

    monkeypatch.setattr(semigroup, "_validate", counted_validate)
    monkeypatch.setattr(semigroup, "_class_minima", counted_class_minima)
    monkeypatch.setattr(sym_mod, "classify",
                        lambda sp: classified.append(sp.apery_by_residue) or classify(sp))
    argv = ("classify", "--gens", ",".join(map(str, gens)), "--p", f"{lo}..{hi}")
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert [row["p"] for row in json.loads(out)["rows"]] == list(p_values)
    assert validated == classified == changes
    assert read == [p_values[i] for i in starts]


def test_a_range_makes_one_instance_per_run_of_equal_minima(capsys, monkeypatch):
    # build_range hands out each run of equal minima as its p values and
    # one instance, and a new run where the minima change; classify makes
    # no other instance
    gens, p_values = (10, 11, 12, 18), range(3789, 4301)
    runs = list(semigroup.build_range(gens, p_values))
    assert [p for ps, _ in runs for p in ps] == list(p_values)
    minima = [sp.apery_by_residue for _, sp in runs]
    assert len(runs) == 19 and all(m != n for m, n in zip(minima, minima[1:]))
    made, init = [], semigroup.PSemigroup.__init__

    def counted_init(self, *args):
        made.append(args[2])
        init(self, *args)

    monkeypatch.setattr(semigroup.PSemigroup, "__init__", counted_init)
    code, out = run_cli(capsys, "classify", "--gens", "10,11,12,18", "--p", "3789..4300")
    assert code == EXIT_OK and len(json.loads(out)["rows"]) == 512
    assert made == minima


def test_a_range_verifier_reports_once_a_run(capsys, monkeypatch):
    # a report holds no p, so each p of a run repeats its run's report:
    # 19 checks for 512 rows, with the bytes (SHA-256 pinned) that one
    # check per p writes
    checked, check = [], psemigroups.verify_symmetry_equivalences
    monkeypatch.setattr(psemigroups, "verify_symmetry_equivalences",
                        lambda sp: checked.append(sp) or check(sp))
    code, out = run_cli(capsys, "verify", "symmetry", "--gens", "10,11,12,18",
                        "--p", "3789..4300")
    assert code == EXIT_OK and len(json.loads(out)["rows"]) == 512
    assert len(checked) == 19
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "647bd0e1a415ad80723330d746a2c9c79313062912f2cc3031b3f194b4209ff3"
    )


SCALING_RUNS = {
    "gcd-scaling": ("--gens 7,10,12 --p 300..340", (7, 10, 12), range(300, 341), 24,
                    "035dd30a7e2b8890cbffa8f82ad166e38629dbb2574b21a44b02dc274e4d2c6c"),
    "johnson": ("--alpha 9 --beta 2 --gens 4,5 --p 1000..1511", (9, 8, 10), range(1000, 1512),
                138, "873868f88fabda1b9c0ec6e03d206db40507e70de67e9d6d2f2ffbb1d439d605"),
    "watanabe": ("--alpha 9 --beta 2 --gens 4,5 --p 1000..1511", (9, 8, 10), range(1000, 1512),
                 138, "468f1d04fe04888b4be0ead33c8ac697a69580cc8f740ed2f319bbbc5eae5aba"),
}


@pytest.mark.parametrize("name", SCALING_RUNS)
def test_a_scaling_verifier_computes_its_sides_once_a_run(capsys, monkeypatch, name):
    # the two lists' runs coincide here, so each side is computed once a
    # run of the first list (the scaled or original one), with the bytes
    # (SHA-256 pinned) that one computation per p writes; each verifier's
    # sides call one of these three once per list (watanabe reads classify
    # from symmetry when it runs)
    from psemigroups import identities, symmetry

    args, first, p_values, runs, digest = SCALING_RUNS[name]
    calls = []
    for module, spied in ((identities, "minima_modulo"), (identities, "gap_count"),
                          (symmetry, "classify")):
        real = getattr(module, spied)
        monkeypatch.setattr(module, spied,
                            lambda *xs, real=real: calls.append(xs) or real(*xs))
    assert len(list(semigroup.build_range(first, p_values))) == runs
    code, out = run_cli(capsys, "verify", name, *args.split())
    assert code == EXIT_OK and len(json.loads(out)["rows"]) == len(p_values)
    assert len(calls) == 2 * runs
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _rows(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == EXIT_OK
    return json.loads(out.getvalue())["rows"]


@settings(max_examples=20)
@given(
    gens=st.lists(st.integers(2, 12), min_size=3, max_size=4, unique=True).filter(
        lambda xs: gcd(*xs) == 1),
    lo=st.integers(300, 3000),
    width=st.integers(1, 8),
)
def test_a_range_gives_the_rows_of_its_single_p_calls(gens, lo, width):
    # every field but p reads only the class minima, so a p whose minima
    # repeat the p before it shares that p's row: the rows must still be
    # those that each p gives alone
    p_values = range(lo, lo + width + 1)
    assume(any(len(ps) > 1 for ps, _ in semigroup.build_range(gens, p_values)))
    head = ("--gens", ",".join(map(str, gens)))
    for command in (("table", "--field", ",".join(cli._TABLE_FIELDS)), ("classify",)):
        ranged = _rows(*command, *head, "--p", f"{p_values[0]}..{p_values[-1]}")
        assert ranged == [row for p in p_values for row in _rows(*command, *head, "--p", str(p))]


@st.composite
def scaling_inputs(draw):
    """A minimal base B of 2-3 generators in 3..12 with gcd 1, alpha the sum
    of two of them, beta in {2, 3} coprime to alpha, and the gcd-scaling set
    (alpha, beta*B)."""
    base = draw(st.lists(st.integers(3, 12), min_size=2, max_size=3, unique=True).filter(
        lambda xs: gcd(*xs) == 1 and psemigroups.is_minimal_generator_system(xs)))
    alpha = draw(st.sampled_from(base)) + draw(st.sampled_from(base))
    beta = draw(st.sampled_from((2, 3)))
    assume(gcd(alpha, beta) == 1)
    return alpha, beta, base


@settings(max_examples=20)
@given(scaling=scaling_inputs(), lo=st.integers(300, 2000), width=st.integers(1, 8))
def test_a_scaling_range_gives_the_rows_of_its_single_p_calls(scaling, lo, width):
    # a scaling verifier computes its sides once a piece of the two lists'
    # runs and writes it for each p: the rows must still be those that
    # each p gives alone
    alpha, beta, base = scaling
    p_values = range(lo, lo + width + 1)
    gens = ",".join(map(str, base))
    scaled = ",".join(map(str, (alpha, *(beta * b for b in base))))
    for command in (
        ("verify", "johnson", "--alpha", str(alpha), "--beta", str(beta), "--gens", gens),
        ("verify", "watanabe", "--alpha", str(alpha), "--beta", str(beta), "--gens", gens),
        ("verify", "gcd-scaling", "--gens", scaled),
    ):
        ranged = _rows(*command, "--p", f"{p_values[0]}..{p_values[-1]}")
        assert ranged == [row for p in p_values for row in _rows(*command, "--p", str(p))]


def test_sums_rows(capsys):
    code, out = run_cli(
        capsys, "sums", "--gens", "2,3", "--p", "1", "--mu", "1", "--weight", "1/2"
    )
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["rows"][0]["direct"] == 7
    assert doc["rows"][0]["from_apery"] == 7
    assert doc["rows"][0]["weighted"] == "253/128"
    # a negative weight is a value, not an option, with or without "="
    head = ("sums", "--gens", "2,3", "--p", "1", "--mu", "0")
    spaced = run_cli(capsys, *head, "--weight", "-2/3")
    joined = run_cli(capsys, *head, "--weight=-2/3")
    assert spaced == joined
    # flags are spelled in full: an abbreviated --weight is foreign
    assert run_cli(capsys, *head, "--wei", "-2/3") == (EXIT_USAGE, "")
    assert spaced[0] == EXIT_OK
    assert json.loads(spaced[1])["rows"][0]["weighted"] == "1069/2187"


def test_sums_renders_rationals_past_the_int_str_digit_limit(capsys):
    # F = 1081 here, so the weighted sum's denominator 10000^F has 4325
    # digits, past Python's default 4300-digit int -> str limit
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(
        capsys, "sums", "--gens", "2,3", "--p", "180", "--mu", "0", "--weight", "1/10000"
    )
    assert code == EXIT_OK
    weighted = json.loads(out)["rows"][0]["weighted"]
    assert weighted.split("/")[1] == "1" + "0" * 4324
    expected = weighted_power_sums(build((2, 3), 180), 0, Fraction(1, 10000))[0]
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(weighted) == expected
    finally:
        sys.set_int_max_str_digits(limit)
    # parsing outside input keeps the limit: an oversized generator is
    # still a precondition failure
    assert sys.get_int_max_str_digits() == limit
    code, _ = run_cli(capsys, "analyze", "--gens", "2," + "9" * 5000, "--p", "0")
    assert code == EXIT_PRECONDITION


def test_verify_johnson_range(capsys):
    code, out = run_cli(
        capsys,
        "verify", "johnson",
        "--alpha", "8", "--beta", "3", "--gens", "4,5,6", "--p", "0..10",
    )
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["passed"] is True
    assert len(doc["rows"]) == 11


def test_verify_watanabe(capsys):
    code, out = run_cli(
        capsys,
        "verify", "watanabe",
        "--alpha", "8", "--beta", "3", "--gens", "4,5,6", "--p", "8",
    )
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["rows"][0]["lhs"]["symmetric"] is True


def test_verify_gcd_scaling_note(capsys):
    code, out = run_cli(capsys, "verify", "gcd-scaling", "--gens", "8,12,15,18", "--p", "8")
    doc = json.loads(out)
    assert code == EXIT_OK
    row = doc["rows"][0]
    assert row["passed"] is True
    assert "12" in row["note"]
    assert row["extras"]["sylvester_sum_denominator_2_variant"] == 3828


def test_verify_eulerian_gf(capsys):
    code, out = run_cli(capsys, "verify", "eulerian-gf", "--exponent", "3", "--order", "12")
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


# Exact stdout of `psg verify` for every verifier and each row kind
# (identity with extras, verdicts with a note, pf-consequences and
# arf-heredity rows applicable and not, arf-kunz rows closed and not
# applicable, series), so that a change to how reports are built or
# rendered cannot move a byte.  The two gcd-scaling lists whose
# first generator is not the least read the Apéry sets modulo that first
# generator, not modulo the instances' own modulus.
PINNED_VERIFY = [
    (
        'verify johnson --alpha 8 --beta 3 --gens 4,5,6 --p 0..1',
        0,
        '{"passed":true,"rows":[{"applicable":true,"extras":{},"identity":"johnson","kind":"identity","lhs":{"frobenius":37,"genus":19},"note":"","params":{"alpha":8,"base":[4,5,6],"beta":3,"p":0},"passed":true,"rhs":{"frobenius":37,"genus":19}},'
        '{"applicable":true,"extras":{},"identity":"johnson","kind":"identity","lhs":{"frobenius":49,"genus":37},"note":"","params":{"alpha":8,"base":[4,5,6],"beta":3,"p":1},"passed":true,"rhs":{"frobenius":49,"genus":37}}]}'
    ),
    (
        'verify gcd-scaling --gens 8,12,15,18 --p 8',
        0,
        '{"passed":true,"rows":[{"applicable":true,"extras":{"sylvester_sum_denominator_2_variant":3828},"identity":"gcd-scaling","kind":"identity","lhs":{"apery":[72,78,84,87,90,93,99,105],"frobenius":97,"genus":85,"sylvester_sum":3618},"note":"the quadratic gap-sum scaling uses 12 in its final denominator; a published variant with denominator 2 contradicts direct enumeration (see extras for the value it would give)","params":{"d":3,"generators":[8,12,15,18],"p":8},"passed":true,"rhs":{"apery":[72,78,84,87,90,93,99,105],"frobenius":97,"genus":85,"sylvester_sum":3618}}]}'
    ),
    (
        'verify gcd-scaling --gens 5,4,6 --p 0..6',
        0,
        '{"passed":true,"rows":[{"applicable":true,"extras":{"sylvester_sum_denominator_2_variant":33},"identity":"gcd-scaling","kind":"identity","lhs":{"apery":[0,4,6,8,12],"frobenius":7,"genus":4,"sylvester_sum":13},"note":"the quadratic gap-sum scaling uses 12 in its final denominator; a published variant with denominator 2 contradicts direct enumeration (see extras for the value it would give)","params":{"d":2,"generators":[5,4,6],"p":0},"passed":true,"rhs":{"apery":[0,4,6,8,12],"frobenius":7,"genus":4,"sylvester_sum":13}},'
        '{"applicable":true,"extras":{"sylvester_sum_denominator_2_variant":89},"identity":"gcd-scaling","kind":"identity","lhs":{"apery":[10,12,14,16,18],"frobenius":13,"genus":12,"sylvester_sum":69},"note":"the quadratic gap-sum scaling uses 12 in its final denominator; a published variant with denominator 2 contradicts direct enumeration (see extras for the value it would give)","params":{"d":2,"generators":[5,4,6],"p":1},"passed":true,"rhs":{"apery":[10,12,14,16,18],"frobenius":13,"genus":12,"sylvester_sum":69}},'
        '{"applicable":true,"extras":{"sylvester_sum_denominator_2_variant":176},"identity":"gcd-scaling","kind":"identity","lhs":{"apery":[16,18,20,22,24],"frobenius":19,"genus":18,"sylvester_sum":156},"note":"the quadratic gap-sum scaling uses 12 in its final denominator; a published variant with denominator 2 contradicts direct enumeration (see extras for the value it would give)","params":{"d":2,"generators":[5,4,6],"p":2},"passed":true,"rhs":{"apery":[16,18,20,22,24],"frobenius":19,"genus":18,"sylvester_sum":156}},'
        '{"applicable":true,"extras":{"sylvester_sum_denominator_2_variant":254},"identity":"gcd-scaling","kind":"identity","lhs":{"apery":[20,22,24,26,28],"frobenius":23,"genus":22,"sylvester_sum":234},"note":"the quadratic gap-sum scaling uses 12 in its final denominator; a published variant with denominator 2 contradicts direct enumeration (see extras for the value it would give)","params":{"d":2,"generators":[5,4,6],"p":3},"passed":true,"rhs":{"apery":[20,22,24,26,28],"frobenius":23,"genus":22,"sylvester_sum":234}},'
        '{"applicable":true,"extras":{"sylvester_sum_denominator_2_variant":348},"identity":"gcd-scaling","kind":"identity","lhs":{"apery":[24,26,28,30,32],"frobenius":27,"genus":26,"sylvester_sum":328},"note":"the quadratic gap-sum scaling uses 12 in its final denominator; a published variant with denominator 2 contradicts direct enumeration (see extras for the value it would give)","params":{"d":2,"generators":[5,4,6],"p":4},"passed":true,"rhs":{"apery":[24,26,28,30,32],"frobenius":27,"genus":26,"sylvester_sum":328}},'
        '{"applicable":true,"extras":{"sylvester_sum_denominator_2_variant":458},"identity":"gcd-scaling","kind":"identity","lhs":{"apery":[28,30,32,34,36],"frobenius":31,"genus":30,"sylvester_sum":438},"note":"the quadratic gap-sum scaling uses 12 in its final denominator; a published variant with denominator 2 contradicts direct enumeration (see extras for the value it would give)","params":{"d":2,"generators":[5,4,6],"p":5},"passed":true,"rhs":{"apery":[28,30,32,34,36],"frobenius":31,"genus":30,"sylvester_sum":438}},'
        '{"applicable":true,"extras":{"sylvester_sum_denominator_2_variant":519},"identity":"gcd-scaling","kind":"identity","lhs":{"apery":[30,32,34,36,38],"frobenius":33,"genus":32,"sylvester_sum":499},"note":"the quadratic gap-sum scaling uses 12 in its final denominator; a published variant with denominator 2 contradicts direct enumeration (see extras for the value it would give)","params":{"d":2,"generators":[5,4,6],"p":6},"passed":true,"rhs":{"apery":[30,32,34,36,38],"frobenius":33,"genus":32,"sylvester_sum":499}}]}'
    ),
    (
        'verify gcd-scaling --gens 251,138,206 --p 0..3',
        0,
        'sha256:de88f1372c7646582bde817ad88b75935357411fa2e6d6a4a5605cae1ecd4012',
    ),
    (
        'verify symmetry --gens 28,20,26,25 --p 3',
        5,
        '{"passed":false,"rows":[{"applicable":true,"identity":"symmetry-equivalences","kind":"verdicts","note":"","passed":false,"verdicts":{"complementary_pairs":false,"definition":false,"genus_midpoint":true,"sorted_pairing":false,"window_counts":true}}]}'
    ),
    (
        'verify almost-symmetric --gens 6,7,17 --p 12..15',
        0,
        '{"passed":true,"rows":[{"applicable":true,"identity":"almost-symmetric-equivalences","kind":"verdicts","note":"","passed":true,"verdicts":{"l_subset_pf":true,"mirror_or_pf":true,"pf_is_l_plus_frobenius":true}},'
        '{"applicable":true,"identity":"almost-symmetric-equivalences","kind":"verdicts","note":"","passed":true,"verdicts":{"l_subset_pf":true,"mirror_or_pf":true,"pf_is_l_plus_frobenius":true}},'
        '{"applicable":true,"identity":"almost-symmetric-equivalences","kind":"verdicts","note":"","passed":true,"verdicts":{"l_subset_pf":true,"mirror_or_pf":true,"pf_is_l_plus_frobenius":true}},'
        '{"applicable":true,"identity":"almost-symmetric-equivalences","kind":"verdicts","note":"","passed":true,"verdicts":{"l_subset_pf":true,"mirror_or_pf":true,"pf_is_l_plus_frobenius":true}}]}'
    ),
    (
        'verify almost-symmetric --gens 17,18,19 --p 5',
        0,
        '{"passed":true,"rows":[{"applicable":true,"identity":"almost-symmetric-equivalences","kind":"verdicts","note":"","passed":true,"verdicts":{"l_subset_pf":false,"mirror_or_pf":false,"pf_is_l_plus_frobenius":false}}]}'
    ),
    (
        'verify pairings --gens 6,7,17 --p 0..1',
        0,
        '{"passed":true,"rows":[{"applicable":true,"identity":"apery-pairings","kind":"verdicts","note":"indices are reduced to residue classes; paired indices sum to frobenius + multiplicity","passed":true,"verdicts":{"genus_offset":true,"genus_offset_necessity":true,"matches_classification":true,"midpoint_pairing":true}},'
        '{"applicable":true,"identity":"apery-pairings","kind":"verdicts","note":"indices are reduced to residue classes; paired indices sum to frobenius + multiplicity","passed":true,"verdicts":{"matches_classification":true,"pairing":true}}]}'
    ),
    (
        'verify watanabe --alpha 8 --beta 3 --gens 4,5,6 --p 8',
        0,
        '{"passed":true,"rows":[{"applicable":true,"extras":{},"identity":"watanabe","kind":"identity","lhs":{"multiplicity":72,"symmetric":true},"note":"","params":{"alpha":8,"base":[4,5,6],"beta":3,"p":8},"passed":true,"rhs":{"multiplicity":72,"symmetric":true}}]}'
    ),
    (
        'verify pf-consequences --gens 6,7,17 --p 0..4',
        0,
        '{"passed":true,"rows":[{"applicable":true,"identity":"pf-consequences","kind":"verdicts","note":"","passed":true,"verdicts":{"pseudo_pf_pair":true,"pseudo_type_two":true}},'
        '{"applicable":true,"identity":"pf-consequences","kind":"verdicts","note":"","passed":true,"verdicts":{"symmetric_parity":true,"symmetric_pf_singleton":true,"symmetric_type_one":true}},'
        '{"applicable":false,"identity":"pf-consequences","kind":"verdicts","note":"neither symmetry hypothesis holds","passed":true,"verdicts":{}},'
        '{"applicable":false,"identity":"pf-consequences","kind":"verdicts","note":"neither symmetry hypothesis holds","passed":true,"verdicts":{}},'
        '{"applicable":true,"identity":"pf-consequences","kind":"verdicts","note":"","passed":true,"verdicts":{"pseudo_pf_singleton":true,"pseudo_type_one":true}}]}'
    ),
    (
        'verify nari --gens 4,5,6',
        0,
        '{"passed":true,"rows":[{"applicable":true,"identity":"nari","kind":"verdicts","note":"","passed":true,"verdicts":{"almost_symmetric":true,"count_identity":true}}]}'
    ),
    (
        'verify arf-heredity --a 2 --b 7 --pmax 5',
        0,
        '{"passed":true,"rows":[{"applicable":true,"identity":"arf-heredity","kind":"verdicts","note":"","passed":true,"verdicts":{"p=0":true,"p=1":true,"p=2":true,"p=3":true,"p=4":true,"p=5":true}}]}'
    ),
    (
        'verify arf-heredity --a 3 --b 4 --pmax 2',
        0,
        '{"passed":true,"rows":[{"applicable":false,"identity":"arf-heredity","kind":"verdicts","note":"base instance is not closed (witness (4, 4, 3))","passed":true,"verdicts":{}}]}'
    ),
    (
        'verify arf-kunz --gens 4,5,6 --p 0..1',
        0,
        '{"passed":true,"rows":[{"apery_checks":null,"applicable":false,"is_arf":false,"kind":"arf","kunz_checks":null,"note":"not applicable: instance is not closed under x + y - z","passed":false,"witness":[6,5,4]},'
        '{"apery_checks":[true,true],"applicable":true,"is_arf":true,"kind":"arf","kunz_checks":[true,true],"note":"","passed":true,"witness":null}]}'
    ),
    (
        'verify eulerian-gf --exponent 3 --order 12',
        0,
        '{"passed":true,"rows":[{"applicable":true,"first_mismatch":null,"kind":"series","note":"","passed":true}]}'
    ),
]


@pytest.mark.parametrize("command, exit_code, stdout", PINNED_VERIFY)
def test_verify_output_is_pinned(capsys, command, exit_code, stdout):
    code, out = run_cli(capsys, *command.split())
    assert code == exit_code
    if stdout.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(out.encode()).hexdigest() == stdout
    else:
        assert out == stdout + "\n"


def test_every_verifier_has_pinned_output():
    pinned = {" ".join(command.split()[:2]) for command, _, _ in PINNED_VERIFY}
    assert pinned == {command for command in cli._COMMANDS if command.startswith("verify ")}


# Exact stdout of p ranges on each side of the route choice for the class
# minima (recorded before the routes existed): {8,9,10} up to p = 1330 and
# the extreme-p cases resolve on the count table, {128,218,231} on the
# (p+1)-best lists.  The extreme-p frobenius numbers are 34072 and 3033.
PINNED_RANGES = [
    (
        'table --gens 8,9,10 --p 1321..1330 --field frobenius,genus',
        'table',
        '{"generators":[8,9,10],"rows":['
        '{"frobenius":1369,"genus":1366,"p":1321},'
        '{"frobenius":1371,"genus":1368,"p":1322},'
        '{"frobenius":1371,"genus":1368,"p":1323},'
        '{"frobenius":1371,"genus":1368,"p":1324},'
        '{"frobenius":1371,"genus":1368,"p":1325},'
        '{"frobenius":1373,"genus":1370,"p":1326},'
        '{"frobenius":1373,"genus":1370,"p":1327},'
        '{"frobenius":1373,"genus":1370,"p":1328},'
        '{"frobenius":1373,"genus":1370,"p":1329},'
        '{"frobenius":1375,"genus":1372,"p":1330}]}'
    ),
    (
        'classify --gens 128,218,231 --p 1..29',
        'lists',
        '{"generators":[128,218,231],"rows":['
        '{"almost_symmetric":false,"completely_symmetric":false,"p":1,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":2,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":3,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":4,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":5,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":6,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":7,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":8,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":9,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":10,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":11,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":12,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":13,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":14,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":15,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":16,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":17,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":18,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":19,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":20,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":21,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":22,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":23,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":24,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":25,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":26,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":27,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":28,"pseudo_symmetric":false,"symmetric":false},'
        '{"almost_symmetric":false,"completely_symmetric":false,"p":29,"pseudo_symmetric":false,"symmetric":false}]}'
    ),
    (
        'table --gens 17,18,19 --p 100000',
        'table',
        '{"generators":[17,18,19],"rows":[{"frobenius":34072,"p":100000}]}',
    ),
    (
        'table --gens 10,11,12,18 --p 200000',
        'table',
        '{"generators":[10,11,12,18],"rows":[{"frobenius":3033,"p":200000}]}',
    ),
    (
        'table --gens 101,103 --p 0..40 --field frobenius,genus',
        'lists',
        '{"generators":[101,103],"rows":['
        '{"frobenius":10199,"genus":5100,"p":0},'
        '{"frobenius":20602,"genus":15503,"p":1},'
        '{"frobenius":31005,"genus":25906,"p":2},'
        '{"frobenius":41408,"genus":36309,"p":3},'
        '{"frobenius":51811,"genus":46712,"p":4},'
        '{"frobenius":62214,"genus":57115,"p":5},'
        '{"frobenius":72617,"genus":67518,"p":6},'
        '{"frobenius":83020,"genus":77921,"p":7},'
        '{"frobenius":93423,"genus":88324,"p":8},'
        '{"frobenius":103826,"genus":98727,"p":9},'
        '{"frobenius":114229,"genus":109130,"p":10},'
        '{"frobenius":124632,"genus":119533,"p":11},'
        '{"frobenius":135035,"genus":129936,"p":12},'
        '{"frobenius":145438,"genus":140339,"p":13},'
        '{"frobenius":155841,"genus":150742,"p":14},'
        '{"frobenius":166244,"genus":161145,"p":15},'
        '{"frobenius":176647,"genus":171548,"p":16},'
        '{"frobenius":187050,"genus":181951,"p":17},'
        '{"frobenius":197453,"genus":192354,"p":18},'
        '{"frobenius":207856,"genus":202757,"p":19},'
        '{"frobenius":218259,"genus":213160,"p":20},'
        '{"frobenius":228662,"genus":223563,"p":21},'
        '{"frobenius":239065,"genus":233966,"p":22},'
        '{"frobenius":249468,"genus":244369,"p":23},'
        '{"frobenius":259871,"genus":254772,"p":24},'
        '{"frobenius":270274,"genus":265175,"p":25},'
        '{"frobenius":280677,"genus":275578,"p":26},'
        '{"frobenius":291080,"genus":285981,"p":27},'
        '{"frobenius":301483,"genus":296384,"p":28},'
        '{"frobenius":311886,"genus":306787,"p":29},'
        '{"frobenius":322289,"genus":317190,"p":30},'
        '{"frobenius":332692,"genus":327593,"p":31},'
        '{"frobenius":343095,"genus":337996,"p":32},'
        '{"frobenius":353498,"genus":348399,"p":33},'
        '{"frobenius":363901,"genus":358802,"p":34},'
        '{"frobenius":374304,"genus":369205,"p":35},'
        '{"frobenius":384707,"genus":379608,"p":36},'
        '{"frobenius":395110,"genus":390011,"p":37},'
        '{"frobenius":405513,"genus":400414,"p":38},'
        '{"frobenius":415916,"genus":410817,"p":39},'
        '{"frobenius":426319,"genus":421220,"p":40}]}'
    ),
    (
        'classify --gens 120,180,251 --p 0..30',
        'lists',
        '{"generators":[120,180,251],"rows":['
        '{"almost_symmetric":true,"completely_symmetric":false,"p":0,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":1,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":2,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":3,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":4,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":5,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":6,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":7,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":8,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":9,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":10,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":11,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":12,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":13,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":14,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":15,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":16,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":17,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":18,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":19,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":20,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":21,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":22,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":23,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":24,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":25,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":26,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":27,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":28,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":29,"pseudo_symmetric":false,"symmetric":true},'
        '{"almost_symmetric":true,"completely_symmetric":false,"p":30,"pseudo_symmetric":false,"symmetric":true}]}'
    ),
    (
        'table --gens 60,84,90,131 --p 0..20 --field frobenius,genus',
        'lists',
        '{"generators":[60,84,90,131],"rows":['
        '{"frobenius":1021,"genus":511,"p":0},'
        '{"frobenius":1201,"genus":691,"p":1},'
        '{"frobenius":1381,"genus":871,"p":2},'
        '{"frobenius":1381,"genus":925,"p":3},'
        '{"frobenius":1477,"genus":1039,"p":4},'
        '{"frobenius":1561,"genus":1099,"p":5},'
        '{"frobenius":1657,"genus":1201,"p":6},'
        '{"frobenius":1717,"genus":1267,"p":7},'
        '{"frobenius":1741,"genus":1303,"p":8},'
        '{"frobenius":1777,"genus":1357,"p":9},'
        '{"frobenius":1837,"genus":1417,"p":10},'
        '{"frobenius":1897,"genus":1447,"p":11},'
        '{"frobenius":1897,"genus":1477,"p":12},'
        '{"frobenius":1957,"genus":1537,"p":13},'
        '{"frobenius":2017,"genus":1585,"p":14},'
        '{"frobenius":2077,"genus":1621,"p":15},'
        '{"frobenius":2077,"genus":1651,"p":16},'
        '{"frobenius":2137,"genus":1705,"p":17},'
        '{"frobenius":2137,"genus":1717,"p":18},'
        '{"frobenius":2197,"genus":1765,"p":19},'
        '{"frobenius":2197,"genus":1777,"p":20}]}'
    ),
]


@pytest.mark.parametrize("command, route, stdout", PINNED_RANGES)
def test_range_output_is_pinned(capsys, monkeypatch, command, route, stdout):
    served = []
    for name in ("table", "lists"):
        fn = getattr(semigroup, f"_minima_from_{name}")

        def spy(*args, _fn=fn, _name=name):
            result = _fn(*args)
            if result is not None:
                served.append(_name)
            return result

        monkeypatch.setattr(semigroup, f"_minima_from_{name}", spy)
    code, out = run_cli(capsys, *command.split())
    assert code == EXIT_OK
    assert out == stdout + "\n"
    assert served == [route]


def test_verify_exit_code_mapping():
    assert verify_exit_code([{"applicable": True, "passed": True}]) == EXIT_OK
    assert verify_exit_code([{"applicable": False, "passed": False}]) == EXIT_OK
    assert (
        verify_exit_code([{"applicable": True, "passed": False}])
        == EXIT_VERIFIER_FAILED
    )


def test_verifier_failure_exit_code(capsys):
    # the counting criteria hold by accident here while the pairing fails,
    # so the five-way agreement genuinely fails
    code, out = run_cli(capsys, "verify", "symmetry", "--gens", "28,20,26,25", "--p", "3")
    assert code == EXIT_VERIFIER_FAILED
    assert json.loads(out)["passed"] is False


def test_usage_error_exit_code(capsys):
    assert main(["analyze", "--gens", "4,5,6"]) == EXIT_USAGE  # missing --p
    capsys.readouterr()


def test_precondition_exit_code(capsys):
    code, _ = run_cli(capsys, "analyze", "--gens", "2,4", "--p", "0")
    assert code == EXIT_PRECONDITION
    code, _ = run_cli(capsys, "analyze", "--gens", "4,5,6", "--p", "-1")
    assert code == EXIT_PRECONDITION
    for weight in ("abc", "1/0"):
        code, _ = run_cli(capsys, "sums", "--gens", "2,3", "--p", "0", "--weight", weight)
        assert code == EXIT_PRECONDITION
    # nari is defined at p = 0, and arf-heredity reads its range from --pmax:
    # neither takes --p, so it is a usage error
    code, _ = run_cli(capsys, "verify", "nari", "--gens", "4,5,6", "--p", "0..50")
    assert code == EXIT_USAGE
    code, _ = run_cli(capsys, "verify", "arf-heredity", "--a", "3", "--b", "4", "--p", "3")
    assert code == EXIT_USAGE
    # 19999999 = 4 * 4999996 + 5 * 3: the base is not minimal, whatever its size
    code, _ = run_cli(
        capsys, "verify", "johnson", "--alpha", "9", "--beta", "2",
        "--gens", "4,5,19999999", "--p", "0",
    )
    assert code == EXIT_PRECONDITION


# refusals of bad input at each layer, with the horizon cap set (None: unset)
REFUSED_INPUTS = {
    "empty-field-list": (None, "table --gens 4,5,6 --p 0 --field ,"),
    "descending-p-range": (None, "classify --gens 4,5,6 --p 5..3"),
    "unknown-field": (None, "table --gens 4,5,6 --p 0 --field bogus"),
    "johnson-zero-beta": (None, "verify johnson --alpha 9 --beta 0 --gens 4,5 --p 0"),
    "arf-heredity-negative-pmax": (None, "verify arf-heredity --a 2 --b 3 --pmax -1"),
    "zero-cap": ("0", "classify --gens 4,5 --p 0"),
    "analyze-p-range": (None, "analyze --gens 4,5,6 --p 0..3"),
    "sums-p-range": (None, "sums --gens 4,5,6 --p 0..3"),
}


@pytest.mark.parametrize("cap, command", REFUSED_INPUTS.values(), ids=REFUSED_INPUTS)
def test_bad_input_is_refused_with_exit_3(capsys, monkeypatch, cap, command):
    if cap is None:
        monkeypatch.delenv("PSEMIGROUPS_HORIZON_CAP", raising=False)
    else:
        monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", cap)
    code = main(command.split())
    captured = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


# A complete call of each verifier: the flags it needs.
_VERIFIER_CALLS = {
    "johnson": "--alpha 8 --beta 3 --gens 4,5,6",
    "watanabe": "--alpha 8 --beta 3 --gens 4,5,6",
    "gcd-scaling": "--gens 8,12,15,18",
    "symmetry": "--gens 8,4,5,6",
    "pairings": "--gens 6,7,17",
    "pf-consequences": "--gens 4,5,6",
    "almost-symmetric": "--gens 6,7,17",
    "nari": "--gens 4,5,6",
    "arf-heredity": "--a 2 --b 7",
    "arf-kunz": "--gens 4,5,6",
    "eulerian-gf": "--exponent 3 --order 12",
}
# ... and of each of the four other commands.
_COMMAND_CALLS = {name: "--gens 4,5,6 --p 0" for name in ("analyze", "table", "classify", "sums")}
_CALLS = {**_VERIFIER_CALLS, **_COMMAND_CALLS}
# What each command reads besides the flags it needs and --format: nari
# is defined at p = 0, and arf-heredity takes its p range from --pmax.
_OPTIONAL_FLAGS = {name: {"p"} for name in _VERIFIER_CALLS} | {
    "nari": set(),
    "arf-heredity": {"pmax"},
    "eulerian-gf": set(),
    "analyze": {"expand"},
    "table": {"field"},
    "classify": set(),
    "sums": {"mu", "weight"},
}
_FLAG_VALUES = {
    "gens": "4,5,6", "p": "0", "alpha": "8", "beta": "3", "a": "2", "b": "7",
    "pmax": "2", "exponent": "3", "order": "12", "field": "genus", "mu": "3", "weight": "1/2",
}


def _leaf(name):
    """The argv that names a command: verifiers are under verify."""
    return [name] if name in _COMMAND_CALLS else ["verify", name]


def _without_each_flag():
    for name, flags in _VERIFIER_CALLS.items():
        tokens = flags.split()
        for i in range(0, len(tokens), 2):
            yield ["verify", name, *tokens[:i], *tokens[i + 2:]], tokens[i]


def _with_a_foreign_flag():
    for name, flags in _CALLS.items():
        tokens = flags.split()
        for flag, value in _FLAG_VALUES.items():
            if f"--{flag}" not in tokens and flag not in _OPTIONAL_FLAGS[name]:
                yield [*_leaf(name), *tokens, f"--{flag}", value], f"--{flag}"


# Two faults at once: argparse's is reported first, then --gens is parsed,
# then --p.  Each usage error names its flag; each precondition failure is
# pinned in full.
_TWO_FAULTS = [
    ("verify nari --p 1", "--gens"),
    ("verify nari --gens 4,x --p 1", "--p"),
    ("verify nari --p abc", "--gens"),
    ("verify nari --gens 4,5,6 --p abc", "--p"),
    ("verify arf-heredity --a 2 --p 1", "--b"),
    ("verify arf-heredity --b 7 --p abc", "--a"),
    ("verify arf-heredity --a 2 --b 7 --gens x", "--gens"),
    ("verify eulerian-gf --exponent 3 --order 12 --p abc", "--p"),
    ("verify johnson --alpha 8 --gens 4,x --p abc", "--beta"),
    ("verify johnson --alpha x --beta 3 --gens 4,x --p abc", "--alpha"),
]
_PARSE_ORDER = [
    ("verify johnson --alpha 8 --beta 3 --gens 4,x --p abc", "could not parse generators from '4,x'"),
    ("verify johnson --alpha 8 --beta 3 --gens 4,5,6 --p abc", "could not parse p from 'abc'"),
    ("verify symmetry --gens 4,x --p 5..3", "could not parse generators from '4,x'"),
    ("verify arf-kunz --gens 4,5,6 --p 5..3", "invalid p range '5..3'"),
    # an empty --p is given, so it is parsed
    ("verify pairings --gens 4,5,6 --p=", "could not parse p from ''"),
]
# Flags are spelled in full on every command.
_ABBREVIATED = [
    ("analyze --gens 4,5,6 --p 0 --exp", "--exp"),
    ("table --gens 4,5,6 --p 0 --fie genus", "--fie"),
    ("classify --gens 4,5,6 --p 0 --form tsv", "--form"),
    ("sums --gens 4,5,6 --p 0 --we 1/2", "--we"),
]

# Each parser reports its own leftovers: a flag before the command's name
# is psg's (or verify's), and a foreign --weight is echoed as typed.
_OWN_LEFTOVERS = [
    ("--x analyze --gens 4,5,6 --p 0", "--x"),
    ("verify --x nari --gens 4,5,6", "--x"),
    ("classify --gens 4,5,6 --p 0 --weight -2/3", "--weight -2/3"),
]

_USAGE_ERRORS = [
    *_without_each_flag(),
    # nari and arf-heredity take no --p, whatever its value (--p 0 is
    # among the foreign flags)
    *((["verify", name, *_VERIFIER_CALLS[name].split(), "--p", p], "--p")
      for name in ("nari", "arf-heredity") for p in ("1", "0..50")),
    *((command.split(), flag) for command, flag in _TWO_FAULTS),
    *_with_a_foreign_flag(),
    *((command.split(), flag) for command, flag in _ABBREVIATED),
    *((command.split(), flag) for command, flag in _OWN_LEFTOVERS),
]


def _usage_of(argv):
    """The start of the usage line of the parser that got argv's first
    flag: psg's, verify's or a command's, named by the tokens before it.
    At a fixed COLUMNS, argparse keeps "[-h]" on that line."""
    names = list(takewhile(lambda token: not token.startswith("-"), argv))
    return " ".join(["usage: psg", *names[:2 if names[:1] == ["verify"] else 1], "[-h]"])


@pytest.mark.parametrize("argv, flag", _USAGE_ERRORS, ids=[" ".join(a) for a, _ in _USAGE_ERRORS])
def test_verifier_usage_errors_are_pinned(capsys, monkeypatch, argv, flag):
    # the parser that got the flag gives its usage, and the flag is named,
    # as typed, on the error line, the last; argparse's wording of it is
    # not pinned, as it may change between Python versions
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err.startswith(_usage_of(argv))
    assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w=-])", captured.err.splitlines()[-1])


@pytest.mark.parametrize("command, message", _PARSE_ORDER, ids=[c for c, _ in _PARSE_ORDER])
def test_verifier_parses_gens_before_p(capsys, command, message):
    code = main(command.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_PRECONDITION, "", f"error: {message}\n")


@pytest.mark.parametrize("name", _CALLS)
def test_verifier_help_lists_exactly_its_flags(capsys, name):
    command = " ".join(_leaf(name))
    assert main([*_leaf(name), "-h"]) == EXIT_OK
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.startswith(f"usage: psg {command} ")
    flags = {token.strip("[]") for token in usage.split() if token.strip("[]").startswith("-")}
    assert flags == {"-h", "--format", *(f"--{flag}" for flag in cli._COMMANDS[command][1])}
    needed = _CALLS[name].split()[::2]
    assert flags == {"-h", "--format", *needed, *(f"--{flag}" for flag in _OPTIONAL_FLAGS[name])}


def _leaves(parser):
    """Every leaf parser that ``parser`` holds, by its ``cli._COMMANDS`` key;
    the verifiers' only once argparse has entered verify."""
    def names(p, dest):
        return next((action.choices for action in p._actions if action.dest == dest), {})

    commands = dict(names(parser, "command"))
    verifiers = names(commands.pop("verify"), "name")
    return {**commands, **{f"verify {name}": leaf for name, leaf in verifiers.items()}}


def _flagged(parser):
    """The leaves of ``parser`` that declare a flag besides -h."""
    return [key for key, leaf in _leaves(parser).items() if len(leaf._actions) > 1]


def _dispatched(capsys, monkeypatch, argv):
    """Run ``main(argv)``; return its exit code, the parser it built, the
    parsers that argparse entered, by their names after "psg", and the
    leaf it handed the call to ("" for none), the last parser entered."""
    built, entered = [], []
    build_parser, parse_known_args = cli.build_parser, cli._Parser.parse_known_args

    def spy(self, args=None, namespace=None):
        entered.append(self.prog.removeprefix("psg").strip())
        return parse_known_args(self, args, namespace)

    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build_parser()) or built[-1])
    monkeypatch.setattr(cli._Parser, "parse_known_args", spy)
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    capsys.readouterr()
    return code, built[-1], entered, entered[-1] if entered[-1] in cli._COMMANDS else ""


# Calls, each with the leaf that argparse hands it to ("" for none): a
# command and a verifier, help at each level, a foreign flag before the
# name, one that takes a value, which argparse reads as the name (two
# with a negative value), a negative number or a token with a space where
# the name goes, and no argument at all.
_DISPATCH = [
    ("analyze --gens 4,5,6 --p 0".split(), "analyze"),
    ("sums --gens 4,5,6 --p 0 --weight -2/3".split(), "sums"),
    ("verify nari --gens 4,5,6".split(), "verify nari"),
    ("-h".split(), ""),
    ("analyze -h".split(), "analyze"),
    ("verify -h".split(), ""),
    ("verify arf-heredity -h".split(), "verify arf-heredity"),
    ("--x analyze --gens 4,5,6 --p 0".split(), "analyze"),
    ("verify --x nari --gens 4,5,6".split(), "verify nari"),
    ("--mu 3 classify --gens 4,5,6 --p 0".split(), ""),
    ("--mu -1 classify --gens 4,5,6 --p 0".split(), ""),
    ("verify --weight -1 pairings --gens 4,5,6".split(), ""),
    ("-1 analyze --gens 4,5,6 --p 0".split(), ""),
    ("verify -1 nari --gens 4,5,6".split(), ""),
    (["-x y", "analyze", "--gens", "4,5,6", "--p", "0"], ""),
    ([], ""),
]


@pytest.mark.parametrize("argv, leaf", _DISPATCH, ids=[" ".join(a) for a, _ in _DISPATCH])
def test_the_parser_flags_only_the_leaf_it_dispatches_to(capsys, monkeypatch, argv, leaf):
    _, parser, entered, dispatched = _dispatched(capsys, monkeypatch, argv)
    assert (dispatched, _flagged(parser)) == (leaf, [leaf] if leaf else [])
    # the verifiers' names are made only for a call that argparse hands to
    # verify, which every call whose command is verify is
    made = [key for key in _leaves(parser) if key not in _COMMAND_CALLS]
    assert ("verify" in entered) == (argv[:1] == ["verify"])
    assert made == [f"verify {name}" for name in _VERIFIER_CALLS if "verify" in entered]


@pytest.mark.parametrize("argv", ["-- analyze --gens 4,5,6 --p 0", "verify -- nari --gens 4,5,6"])
def test_a_double_dash_before_a_name_is_read_as_the_name(capsys, monkeypatch, argv):
    # argparse hands "--" itself on as the name and refuses it, so no leaf
    # is entered and none has flags
    code, parser, _, dispatched = _dispatched(capsys, monkeypatch, argv.split())
    assert (code, dispatched, _flagged(parser)) == (EXIT_USAGE, "", [])


def test_a_parser_built_for_no_call_flags_no_leaf():
    # the benchmark's set-up line, which every call pays: the command
    # names, no flag, and no verifier's name until a verify call is parsed
    parser = cli.build_parser()
    assert (list(_leaves(parser)), _flagged(parser)) == (list(_COMMAND_CALLS), [])
    parser.parse_args("verify nari --gens 4,5,6".split())
    leaves = [*_COMMAND_CALLS, *(f"verify {name}" for name in _VERIFIER_CALLS)]
    assert (list(_leaves(parser)), _flagged(parser)) == (leaves, ["verify nari"])


def test_a_parser_grows_once():
    # a second parse of the same call, on the same parser, adds no flag
    # again, which argparse would refuse as a conflicting option string
    parser = cli.build_parser()
    for argv in ("sums --gens 4,5,6 --p 0 --weight -2/3", "verify pairings --gens 6,7,17 --p 1"):
        first = parser.parse_args(argv.split())
        assert parser.parse_args(argv.split()) == first
    assert _flagged(parser) == ["sums", "verify pairings"]


def _wrap_as_a_tracer_does(monkeypatch, functions):
    """Point every name in the package that refers to one of ``functions``
    at a wrapper that records its calls, as psgbench/tracer.py does; return
    the list of the called functions' names."""
    called = []
    wrappers = {id(fn): lambda *a, fn=fn: called.append(fn.__name__) or fn(*a) for fn in functions}
    for name, module in list(sys.modules.items()):
        if name == "psemigroups" or name.startswith("psemigroups."):
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, key, wrappers[id(value)])
    return called


@pytest.mark.parametrize("name", _VERIFIER_CALLS)
def test_each_verifier_call_is_traced(capsys, monkeypatch, name):
    # the verifier table holds no function: each is looked up when called
    from psemigroups import arf, criteria, exactmath, identities

    modules = (arf, criteria, exactmath, identities)
    verifiers = [getattr(m, a) for m in modules for a in vars(m) if a.startswith("verify_")]
    called = _wrap_as_a_tracer_does(monkeypatch, verifiers)
    code, _ = run_cli(capsys, "verify", name, *_VERIFIER_CALLS[name].split())
    assert code == EXIT_OK
    assert called


def test_each_table_field_call_is_traced(capsys, monkeypatch):
    # one call of each per p, through the names a tracer points at its wrappers
    called = _wrap_as_a_tracer_does(monkeypatch, [gap_count, gap_sum])
    code, _ = run_cli(
        capsys, "table", "--gens", "128,218,231", "--p", "1..29",
        "--field", "frobenius,genus,sylvester_sum,type",
    )
    assert code == EXIT_OK
    assert called.count("gap_count") == called.count("gap_sum") == 29


def test_stdout_closed_early_exits_1_without_a_traceback():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "psemigroups", "analyze", "--gens", "1009,1013,1019", "--p", "50"]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert "Traceback" not in err and "Exception ignored" not in err


# ---------------------------------------------------------------------------
# the process entry: run is main, then an exit that freezes the heap

ROOT = Path(__file__).resolve().parent.parent


def test_run_exits_with_mains_code_after_one_freeze(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or EXIT_VERIFIER_FAILED)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == EXIT_VERIFIER_FAILED
    assert calls == ["main", "freeze"]


def test_run_lets_an_exception_from_main_through_unfrozen(monkeypatch):
    frozen = []

    def failing():
        raise ValueError("from main")

    monkeypatch.setattr(cli, "main", failing)
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(True))
    with pytest.raises(ValueError, match="from main"):
        cli.run()
    assert frozen == []


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    code, out = run_cli(capsys, "classify", "--gens", "4,5", "--p", "0")
    assert code == EXIT_OK and json.loads(out)["rows"][0]["symmetric"] is True
    assert gc.get_freeze_count() == before


def _called_names(tree):
    return [node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]


def test_every_process_entry_is_run():
    entry = ast.parse((ROOT / "src" / "psemigroups" / "__main__.py").read_text())
    assert _called_names(entry) == ["run"]
    # read as text: tomllib is not in every supported Python
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
    assert re.search(r'^psg = "psemigroups\.cli:run"$', scripts, re.M)
    (block,) = [node for node in ast.parse(Path(cli.__file__).read_text()).body
                if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)]
    assert _called_names(block) == ["run"]


def test_run_keeps_atexit_handlers_and_the_final_flush(capsys):
    # the handler's text has no newline, so only the interpreter's final
    # flush of stderr writes it
    argv = ["classify", "--gens", "4,5", "--p", "0"]
    source = (
        "import atexit, sys\n"
        "atexit.register(sys.stderr.write, 'atexit handler ran')\n"
        f"sys.argv[1:] = {argv!r}\n"
        "from psemigroups import cli\n"
        "cli.run()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True, timeout=60)
    code, out = run_cli(capsys, *argv)
    assert proc.returncode == code == EXIT_OK
    assert proc.stdout == out.encode()
    assert proc.stderr == b"atexit handler ran"


def test_error_messages_quote_a_bounded_prefix(capsys):
    huge = "1" * 5000
    for argv in (
        ["analyze", "--gens", "2," + huge, "--p", "0"],
        ["sums", "--gens", "2,3", "--p", "0", "--weight", "1/" + huge],
        ["classify", "--gens", "2,3", "--p", "0.." + huge],
    ):
        assert main(argv) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error: could not parse")
        assert len(err.encode()) < 300


def test_cap_exceeded_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "40")
    code, _ = run_cli(capsys, "analyze", "--gens", "101,103", "--p", "1")
    assert code == EXIT_CAP


HUGE_RANGES = {
    "classify": "classify --gens 2,3 --p 0..1000000000000",
    "johnson": "verify johnson --alpha 9 --beta 2 --gens 4,5 --p 0..1000000000000",
    "watanabe": "verify watanabe --alpha 9 --beta 2 --gens 4,5 --p 0..1000000000000",
    "gcd-scaling": "verify gcd-scaling --gens 5,6,9 --p 0..1000000000000",
    "arf-heredity": "verify arf-heredity --a 2 --b 3 --pmax 1000000000000",
}


# the scaling verifiers refuse on the first list's charge: a = 8 of the
# scaled {9, 8, 10} (the unscaled {9, 4, 5} would charge 4) and a = 5 of
# {5, 6, 9} (the reduced {5, 2, 3} would charge 2)
SCALING_CHARGES = {"johnson": 8, "watanabe": 8, "gcd-scaling": 5}


@pytest.mark.parametrize("name, command", HUGE_RANGES.items(), ids=HUGE_RANGES)
def test_cap_bounds_a_huge_p_range_quickly(capsys, monkeypatch, name, command):
    # the range is never listed, and the cap is checked before any instance
    # of the range is made
    err = _assert_refused_quickly(capsys, monkeypatch, command)
    if name in SCALING_CHARGES:
        assert err == (
            f"error: {SCALING_CHARGES[name] * (10**12 + 1)} class minima of the"
            " 1000000000001 instances of the p range, past the cap 1000\n"
        )


@pytest.mark.parametrize("command", HUGE_RANGES.values(), ids=HUGE_RANGES)
def test_default_cap_refuses_a_huge_p_range_quickly(capsys, monkeypatch, command):
    # the class minima of 10^12 instances, or the top p: no n within the
    # default cap has 10^12 representations, which a bound on d(n) shows
    # before any table is grown
    _assert_refused_quickly(capsys, monkeypatch, command, cap=None)


def test_an_input_no_route_can_answer_is_refused_before_any_table(capsys, monkeypatch):
    # {30,31,32} at p = 40 needs 30 * 41 = 1230 list entries, past the cap,
    # and a table within the cap cannot settle: its last 30 entries count
    # the points over {31, 32} up to its horizon, at most 568 of them
    # below 1000 (_count_bound), and each entry must exceed 40
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "1000")
    tables = []

    class Recording(semigroup.DenumerantTable):
        def __init__(self, *args):
            tables.append(args)
            super().__init__(*args)

    monkeypatch.setattr(semigroup, "DenumerantTable", Recording)
    code = main("classify --gens 30,31,32 --p 40".split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_CAP, "")
    assert captured.err == (
        "error: 1230 list entries for the class minima at p = 40, past the cap 1000\n"
    )
    assert tables == []
    # {6,7,11,13} at p = 200 needs 1206 list entries, but a table within
    # the cap can settle, and does
    code, out = run_cli(capsys, *"table --gens 6,7,11,13 --p 200 --field frobenius".split())
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == [{"frobenius": 174, "p": 200}]
    assert len(tables) == 1
    # the same at the default cap, where a doomed table would hold 10^7
    # entries
    _assert_refused_quickly(capsys, monkeypatch, "classify --gens 3000,3001,3002 --p 3400", cap=None)
    assert len(tables) == 1


# the minimality test's 2a list entries, the Eulerian series' terms, the
# membership flags and the a + g steps of the minima modulo g are sized
# against the cap before anything is allocated; a huge generator is refused
# where a command builds flags over [0, F] or reads minima modulo it
HUGE_ARGUMENTS = {
    "johnson-modulus": "verify johnson --alpha 3 --beta 2 --gens 1000000007,1000000009 --p 0",
    "eulerian-gf": "verify eulerian-gf --exponent 1500 --order 1600",
    "analyze-generator": "analyze --gens 4,6,19999999 --p 0",
    "gcd-scaling-generator": "verify gcd-scaling --gens 1000000007,6,10 --p 0",
}


@pytest.mark.parametrize("command", HUGE_ARGUMENTS.values(), ids=HUGE_ARGUMENTS)
def test_cap_bounds_a_huge_argument_quickly(capsys, monkeypatch, command):
    _assert_refused_quickly(capsys, monkeypatch, command)


def test_johnson_on_a_huge_generator_answers_by_the_closed_form(capsys, monkeypatch):
    # johnson needs nothing F-sized, so even a cap of 1000 admits F = 10^8.
    # For odd b, <4, 6, b> has the gaps 1, 3, ..., b - 2, 2 and b + 2
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "1000")
    alpha, beta, b = 20000003, 3, 19999999
    argv = f"verify johnson --alpha {alpha} --beta {beta} --gens 4,6,{b} --p 0"
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv.split())
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert elapsed < 1.0
    (row,) = json.loads(out)["rows"]
    frobenius, genus = b + 2, (b - 1) // 2 + 2
    expected = {
        "frobenius": beta * frobenius + (beta - 1) * alpha,
        "genus": beta * genus + (alpha - 1) * (beta - 1) // 2,
    }
    assert expected == {"frobenius": 100000009, "genus": 50000005}
    assert row["lhs"] == row["rhs"] == expected


def test_sums_on_a_huge_generator_answers_by_the_closed_form(capsys, monkeypatch):
    # sums reads every row off the class minima, so even a cap of 1000
    # admits F = 2 * 10^7.  For odd b, <4, 6, b> has the gaps 1, 3, ...,
    # b - 2, 2 and b + 2, whose power sums have closed forms up to mu = 3
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "1000")
    b = 19999999
    start = time.perf_counter()
    code, out = run_cli(capsys, *f"sums --gens 4,6,{b} --p 0".split())
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert elapsed < 1.0

    def power_sums(n):  # sum of k^mu over 1 <= k <= n, mu = 0..3
        return [n, n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6, (n * (n + 1) // 2) ** 2]

    pairs = zip(power_sums(b - 2), power_sums((b - 3) // 2))  # all, and the even halved
    odd = [total - 2**mu * half for mu, (total, half) in enumerate(pairs)]
    expected = [n + 2**mu + (b + 2) ** mu for mu, n in enumerate(odd)]
    rows = json.loads(out)["rows"]
    assert [row["direct"] for row in rows] == [row["from_apery"] for row in rows] == expected
    assert expected[:2] == [(b - 1) // 2 + 2, ((b - 1) // 2) ** 2 + 2 + b + 2]


def test_f_free_commands_build_no_flags(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an F-free command built membership flags")

    monkeypatch.setattr(sets, "_member_flags", refuse)
    sp = build((8, 4, 5, 6), 8)
    assert (gap_count(sp), gap_sum(sp)) == (26, 328)
    assert is_arf(build((3, 4), 0)).details["witness"] == (4, 4, 3)
    assert is_arf(build((2, 3), 1)).passed
    for argv in (
        "table --gens 6,7,17 --p 0..14"
        " --field frobenius,multiplicity,conductor,genus,sylvester_sum,type",
        "classify --gens 6,7,17 --p 0..14",
        "verify pairings --gens 6,7,17 --p 0..14",
        "verify pf-consequences --gens 6,7,17 --p 0..14",
        "verify nari --gens 6,7,17",
        "verify symmetry --gens 8,4,5,6 --p 0..10",
        "verify arf-kunz --gens 6,7,17 --p 0..14",
        "verify arf-kunz --gens 2,5 --p 0..4",
        "verify arf-heredity --a 2 --b 7 --pmax 5",
        "verify johnson --alpha 9 --beta 2 --gens 4,5 --p 0..3",
        "verify watanabe --alpha 9 --beta 2 --gens 4,5 --p 0..3",
        "verify almost-symmetric --gens 6,7,17 --p 0..14",
        "verify gcd-scaling --gens 8,12,15,18 --p 0..8",
        "verify gcd-scaling --gens 5,4,6 --p 0..6",
        "sums --gens 6,7,17 --p 14 --mu 8",
        "sums --gens 6,7,17 --p 14 --mu 8 --weight 2/3",
        "sums --gens 6,7,17 --p 14 --mu 8 --weight -1",
    ):
        code, out = run_cli(capsys, *argv.split())
        assert code == EXIT_OK, argv
        assert json.loads(out)["rows"], argv


@pytest.mark.parametrize(
    "argv",
    [
        "verify almost-symmetric --gens 4,6,19999999 --p 0",
        "verify gcd-scaling --gens 10007,20018,20074 --p 0",
    ],
)
def test_former_flag_refusals_answer_at_the_default_cap(capsys, monkeypatch, argv):
    # each built membership flags over [0, F] or [0, F + g) and was refused
    # at the default cap; both now read the class minima alone
    monkeypatch.delenv("PSEMIGROUPS_HORIZON_CAP", raising=False)
    code, out = run_cli(capsys, *argv.split())
    assert code == EXIT_OK
    (row,) = json.loads(out)["rows"]
    assert row["passed"]
    if "almost-symmetric" in argv:
        flags = classify(build((4, 6, 19999999), 0))
        assert set(row["verdicts"].values()) == {flags.almost_symmetric}


def _spy_member_flags(monkeypatch) -> list[int]:
    """The length of every membership-flag build from here on."""
    lengths = []
    member_flags = sets._member_flags

    def spy(sp, length):
        lengths.append(length)
        return member_flags(sp, length)

    monkeypatch.setattr(sets, "_member_flags", spy)
    return lengths


def test_analyze_builds_membership_flags_once(monkeypatch):
    # the gaps, the members and H/L/K all read one member mask over
    # [0, frobenius + multiplicity], the one that hlk_of_members builds
    lengths = _spy_member_flags(monkeypatch)
    for gens, p in (((17, 18, 19), 5), ((2, 3), 1), ((6, 7, 17), 14)):
        lengths.clear()
        analyze_document(as_generator_set(gens), p)
        sp = build(gens, p)
        assert lengths == [sp.frobenius + sp.multiplicity + 1]
        lengths.clear()
        hlk_of_members(sp)
        assert lengths == [sp.frobenius + sp.multiplicity + 1]


@pytest.mark.parametrize(
    "argv, builds",
    [
        *(
            (f"analyze --gens 6,7,17 --p {p} --format {fmt}{expand}", 1)
            for p in (0, 14)
            for fmt in ("json", "tsv", "pretty")
            for expand in ("", " --expand")
        ),
        *(
            (f"sums --gens 6,7,17 --p {p} --mu {mu}{weight}", 0)
            for p in (0, 14)
            for mu in range(9)
            for weight in ("", " --weight 2/3")
        ),
        ("table --gens 6,7,17 --p 0..14 --field genus,sylvester_sum,type", 0),
        ("classify --gens 6,7,17 --p 0..14", 0),
        ("verify pairings --gens 6,7,17 --p 0..14", 0),
    ],
)
def test_each_command_builds_membership_flags_at_most_once(capsys, monkeypatch, argv, builds):
    # sums reads every row, weighted or not, off the class minima
    lengths = _spy_member_flags(monkeypatch)
    code, out = run_cli(capsys, *argv.split())
    assert code == EXIT_OK and out
    assert len(lengths) == builds


@pytest.mark.parametrize("weight", ["", " --weight 2/3", " --weight -1"])
def test_sums_builds_the_minima_power_sums_once(capsys, monkeypatch, weight):
    # one table of S_1..S_9 checks every direct row, and each checked value
    # is printed in both columns
    calls = []
    power_sum_formula = semigroup.power_sum_formula

    def spy(sp, rows):
        calls.append(rows)
        return power_sum_formula(sp, rows)

    monkeypatch.setattr(semigroup, "power_sum_formula", spy)
    code, out = run_cli(capsys, *f"sums --gens 6,7,17 --p 14 --mu 8{weight}".split())
    assert code == EXIT_OK
    assert calls == [9]
    rows = json.loads(out)["rows"]
    assert [row["direct"] for row in rows] == [row["from_apery"] for row in rows]
    assert rows[8]["direct"] == sum(n**8 for n in build((6, 7, 17), 14).gaps)


@pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
@pytest.mark.parametrize("weight", ["", " --weight 2/3"])
def test_sums_prints_no_row_when_a_check_fails(capsys, monkeypatch, fmt, weight):
    # the direct route off by one in its last row: the call ends in the
    # check's error before anything is written
    class_power_sums = semigroup.class_power_sums

    def last_row_off_by_one(sp, rows, sign):
        return [*class_power_sums(sp, rows - 1, sign), class_power_sums(sp, rows, sign)[-1] + 1]

    monkeypatch.setattr(semigroup, "class_power_sums", last_row_off_by_one)
    argv = f"sums --gens 6,7,17 --p 14 --mu 8 --format {fmt}{weight}".split()
    with pytest.raises(InternalCheckError, match="power sum at mu = 8 mismatch"):
        main(argv)
    assert capsys.readouterr().out == ""


def test_default_cap_refuses_a_slow_series_quickly(capsys, monkeypatch):
    # about 20 s of big-integer work: the cap counts each ~36000-bit term
    # nine times, so the check is refused before any term is built
    _assert_refused_quickly(
        capsys, monkeypatch, "verify eulerian-gf --exponent 3000 --order 3002", cap=None
    )


def test_default_cap_refuses_a_slow_weighted_sum_quickly(capsys, monkeypatch):
    # a Horner pass over 3001 minima of up to 1.33 * 10^6 bits and two
    # printed integers of that size, about 11 s: the cap counts 4096-bit
    # blocks of both before the pass starts
    _assert_refused_quickly(
        capsys,
        monkeypatch,
        "sums --gens 3001,3011,3019,3023 --p 0 --mu 0 --weight 2/3",
        cap=None,
    )


def test_default_cap_refuses_slow_weighted_sum_rows_quickly(capsys, monkeypatch):
    # nine rows of about 2 s each: each row alone passes the cap, but every
    # row's blocks are charged together before the first
    _assert_refused_quickly(
        capsys,
        monkeypatch,
        "sums --gens 1009,1013,1019 --p 50 --mu 8 --weight 2/3",
        cap=None,
    )


def test_default_cap_refuses_weighted_rows_built_on_many_generators_quickly(capsys, monkeypatch):
    # a = 28 and F = 27: row mu is one integer over (den^a - 1)^(mu+1) * den^55,
    # 4 * 10^6 bits at mu = 8 for 2 * 10^4 printed bits, about 80 s of
    # products and gcds; the cap counts the unreduced rows before any is built
    _assert_refused_quickly(
        capsys,
        monkeypatch,
        "sums --gens " + ",".join(map(str, range(28, 56))) + " --p 0 --mu 8 --weight 1e-4000",
        cap=None,
    )


@pytest.mark.parametrize(
    "weight, gens, code",
    [
        # 10^300000 and 10^10000000 were expanded when parsed and raised to
        # the 64th power when charged: minutes of work for ten characters
        ("1e-300000", "2,3", EXIT_PRECONDITION),
        ("1e-10000000", "2,3", EXIT_PRECONDITION),
        ("1/" + "1" * 5000, "2,3", EXIT_PRECONDITION),
        # 1979 * 997 bits a row, about 14 s of printing the row
        ("1e-300", "45,46", EXIT_CAP),
        # about 5.5 s: its row is built on 2069 * 565 bits and printed on 1979 * 565
        ("1e-170", "45,46", EXIT_CAP),
    ],
)
def test_default_cap_refuses_huge_weights_quickly(capsys, monkeypatch, weight, gens, code):
    monkeypatch.delenv("PSEMIGROUPS_HORIZON_CAP", raising=False)
    start = time.perf_counter()
    assert main(["sums", "--gens", gens, "--p", "0", "--mu", "0", "--weight", weight]) == code
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert elapsed < 2.0


def test_weight_digits_are_bounded_after_reduction(capsys):
    # 10^4299 has 4300 digits and 10^4300 one more, however the weight is
    # written; the exponent is read before anything is expanded
    head = ("sums", "--gens", "2,3", "--p", "0", "--mu", "0", "--weight")
    for weight in ("1e-4299", "1e4299", "10e-4300", "1" + "0" * 4299):
        code, out = run_cli(capsys, *head, weight)
        assert code == EXIT_OK, weight
        assert Fraction(json.loads(out)["weight"]) == Fraction(weight)
    for weight in ("1e-4300", "1e4300", "1e-4301", "-1e4300", "1e+99999999999"):
        code, _ = run_cli(capsys, *head, weight)
        assert code == EXIT_PRECONDITION, weight


def _assert_refused_quickly(capsys, monkeypatch, command, cap="1000"):
    if cap is None:
        monkeypatch.delenv("PSEMIGROUPS_HORIZON_CAP", raising=False)
    else:
        monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", cap)
    start = time.perf_counter()
    code = main(command.split())
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert elapsed < 1.0
    return captured.err


@pytest.mark.parametrize("top", ["1000000000", "1" + "0" * 30])
def test_default_cap_refuses_the_instances_of_a_long_range(capsys, monkeypatch, top):
    # {4,5,6} at p = 10^9 may try a table up to the cap (no table is made
    # here), but the range's 10^9 + 1 instances of 4 class minima each are
    # refused first; their number is not len(), which stops at 2^63
    monkeypatch.setattr(semigroup, "DenumerantTable", None)
    command = f"classify --gens 4,5,6 --p 0..{top}"
    _assert_refused_quickly(capsys, monkeypatch, command, cap=None)
    code = main(command.split())
    assert (code, capsys.readouterr().err) == (EXIT_CAP, (
        f"error: {4 * (int(top) + 1)} class minima of the {int(top) + 1} instances"
        " of the p range, past the cap 10000000\n"
    ))


def _listed(doc):
    """The number of integers the sets of an expanded analyze document list."""
    sets = ("gaps", "h_set", "l_set", "pseudo_frobenius")
    return sum(map(len, [*map(doc.get, sets), doc["members"]["below"], doc["k_set"]["below"]]))


def test_expand_is_charged_for_the_integers_it_lists(capsys, monkeypatch):
    argv = ["analyze", "--gens", "6,7,17", "--p", "14"]
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "1000")
    code, out = run_cli(capsys, *argv, "--expand")
    listed = _listed(json.loads(out))
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", str(listed))
    assert run_cli(capsys, *argv, "--expand") == (EXIT_OK, out)
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", str(listed - 1))
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    code = main([*argv, "--expand"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_CAP, "", (
        f"error: {listed} integers listed by --expand, past the cap {listed - 1}\n"
    ))


def test_default_cap_refuses_expand_on_the_largest_rung_before_any_list(capsys, monkeypatch):
    # 2c + |L| + |PF| integers at F = 6814761, refused once the masks are
    # built and before any set is rendered
    monkeypatch.delenv("PSEMIGROUPS_HORIZON_CAP", raising=False)
    monkeypatch.setattr(sets, "split_docs", None)
    code = main("analyze --gens 10007,10009,10037 --p 0 --expand".split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_CAP, "", (
        "error: 13630840 integers listed by --expand, past the cap 10000000\n"
    ))


def test_readme_cli_examples_run(capsys):
    # every psg line of README's CLI code block, its trailing comment dropped
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [
        line.split("#", 1)[0].split()[1:]
        for line in block.splitlines()
        if line.startswith("psg ")
    ]
    assert examples
    for argv in examples:
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK, argv
        assert isinstance(json.loads(out), dict), argv


def _readme_block_after(marker):
    # the psg calls of the first code block after the paragraph opening with marker
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split(marker, 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("psg ")]


def _tsv_table(capsys, argv):
    # the generators line and the rows of a tsv table document, as strings
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK, argv
    lines = out.splitlines()
    header = lines[1].split("\t")
    return lines[0], [dict(zip(header, line.split("\t"))) for line in lines[2:]]


def test_readme_showcase_tables_match_the_library(capsys):
    calls = _readme_block_after("The summary tables of the showcase")
    assert [argv[2] for argv in calls] == ["4,5,6", "8,4,5,6", "8,12,15,18", "17,18,19"]
    for argv in calls:
        gens = tuple(int(g) for g in argv[2].split(","))
        first, rows = _tsv_table(capsys, argv)
        assert first == f"generators\t[{argv[2]}]"
        assert [row["p"] for row in rows] == [str(p) for p in range(11)], argv
        for p, row in enumerate(rows):
            sp = build(gens, p)
            assert row == {
                "p": str(p),
                "frobenius": str(sp.frobenius),
                "multiplicity": str(sp.multiplicity),
                "genus": str(gap_count(sp)),
                "sylvester_sum": str(gap_sum(sp)),
            }, (argv, p)


def test_readme_classification_schedule_matches_the_library(capsys):
    table, flags = _readme_block_after("The classification schedule of")
    assert (table[:5], flags[:5]) == (
        ["table", "--gens", "17,18,19", "--p", "0..44"],
        ["classify", "--gens", "17,18,19", "--p", "0..44"],
    )
    _, table_rows = _tsv_table(capsys, table)
    _, flag_rows = _tsv_table(capsys, flags)
    assert len(table_rows) == len(flag_rows) == 45
    for p, (row, flag_row) in enumerate(zip(table_rows, flag_rows)):
        sp = build((17, 18, 19), p)
        report = classify(sp)
        assert row == {
            "p": str(p),
            "multiplicity": str(sp.multiplicity),
            "frobenius": str(sp.frobenius),
            "type": str(len(report.pf)),
            "pattern": detect_pattern(sp),
        }, p
        assert flag_row == {
            "p": str(p),
            "symmetric": str(report.symmetric),
            "pseudo_symmetric": str(report.pseudo_symmetric),
            "almost_symmetric": str(report.almost_symmetric),
            "completely_symmetric": str(report.completely_symmetric),
        }, p


def test_readme_exit_code_table_runs(capsys, monkeypatch):
    # every row of README's table of exit codes, at the default cap
    monkeypatch.delenv("PSEMIGROUPS_HORIZON_CAP", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = [
        (command.strip(" `").split()[1:], int(code))
        for line in readme.splitlines()
        if line.startswith("| `psg ")
        for command, code, _ in [line.strip("|").split("|")]
    ]
    codes = {EXIT_OK, EXIT_USAGE, EXIT_PRECONDITION, EXIT_CAP, EXIT_VERIFIER_FAILED}
    assert {code for _, code in rows} == codes
    for argv, expected in rows:
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, elapsed < 1.0) == (expected, True), argv
        if code in (EXIT_OK, EXIT_VERIFIER_FAILED):
            assert isinstance(json.loads(captured.out), dict), argv
        else:
            assert captured.out == "", argv
            prefix = _usage_of(argv) if code == EXIT_USAGE else "error: "
            assert captured.err.startswith(prefix), argv


def test_benchmark_reference_digests_are_reproduced(capsys, monkeypatch):
    # psgbench/reference.json records "exit:sha256 of stdout" for every
    # invocation of the benchmark's default seed, at the default cap
    monkeypatch.delenv("PSEMIGROUPS_HORIZON_CAP", raising=False)
    path = Path(__file__).resolve().parent.parent / "psgbench" / "reference.json"
    reference = json.loads(path.read_text())
    labels = [item for workload in reference.values() for item in workload.items()]
    assert labels
    for label, digest in labels:
        code = main(label.split())
        out = capsys.readouterr().out
        assert f"{code}:{hashlib.sha256(out.encode()).hexdigest()}" == digest, label


def test_json_is_deterministic_in_process(capsys):
    _, first = run_cli(capsys, "analyze", "--gens", "6,7,17", "--p", "14")
    _, second = run_cli(capsys, "analyze", "--gens", "6,7,17", "--p", "14")
    assert first == second


def test_json_is_deterministic_across_processes():
    cmd = [sys.executable, "-m", "psemigroups", "analyze", "--gens", "17,18,19", "--p", "5"]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    assert first == second


def test_cli_is_a_thin_adapter(capsys):
    _, out = run_cli(capsys, "analyze", "--gens", "8,4,5,6", "--p", "8")
    doc = json.loads(out)
    gens, p = (8, 4, 5, 6), 8
    sp = build(gens, p)
    report = classify(sp)
    assert doc["frobenius"] == sp.frobenius
    assert doc["genus"] == gap_count(sp)
    assert doc["sylvester_sum"] == gap_sum(sp)
    assert doc["type"] == len(report.pf)
    assert doc["symmetric"] == report.symmetric
    assert doc["apery_by_residue"] == list(sp.apery_by_residue)


def test_tsv_and_pretty_formats(capsys):
    code, out = run_cli(
        capsys, "table", "--gens", "2,3", "--p", "0..2", "--field", "frobenius",
        "--format", "tsv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[1] == "p\tfrobenius"
    assert lines[2] == "0\t1"
    code, out = run_cli(capsys, "analyze", "--gens", "2,3", "--p", "0", "--format", "pretty")
    assert code == EXIT_OK
    assert "frobenius: 1" in out
