import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from psemigroups import semigroup
from psemigroups import (
    build,
    classify,
    frobenius_p,
    genus_p,
    sylvester_sum_p,
    weighted_power_sum,
)
from psemigroups.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_VERIFIER_FAILED,
    interval_runs,
    main,
    verify_exit_code,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_interval_runs():
    assert interval_runs([0, 1, 2, 3, 5, 7, 8]) == "0-3,5,7-8"
    assert interval_runs([]) == ""
    assert interval_runs([4]) == "4"


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
        capsys, "table", "--gens", "4,5,6", "--p", "0..2", "--field", "frobenius,genus,type"
    )
    rows = json.loads(out)["rows"]
    assert rows[0] == {"p": 0, "frobenius": 7, "genus": 4, "type": 1}


def test_classify_rows(capsys):
    _, out = run_cli(capsys, "classify", "--gens", "6,7,17", "--p", "0..6")
    rows = json.loads(out)["rows"]
    pseudo = [r["p"] for r in rows if r["pseudo_symmetric"]]
    assert pseudo == [0, 4, 5]
    symmetric = [r["p"] for r in rows if r["symmetric"]]
    assert symmetric == [1, 6]


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
    assert spaced == joined == run_cli(capsys, *head, "--wei", "-2/3")
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
    expected = weighted_power_sum((2, 3), 180, Fraction(1, 10000), 0)
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


# Exact stdout of `psg verify` for each row kind (identity with extras,
# verdicts with a note, an arf-heredity row that is not applicable, arf-kunz
# rows closed and not applicable, series), so that a change to how reports
# are built or rendered cannot move a byte.
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
        'verify symmetry --gens 28,20,26,25 --p 3',
        5,
        '{"passed":false,"rows":[{"applicable":true,"identity":"symmetry-equivalences","kind":"verdicts","note":"","passed":false,"verdicts":{"complementary_pairs":false,"definition":false,"genus_midpoint":true,"sorted_pairing":false,"window_counts":true}}]}'
    ),
    (
        'verify pairings --gens 6,7,17 --p 0..1',
        0,
        '{"passed":true,"rows":[{"applicable":true,"identity":"apery-pairings","kind":"verdicts","note":"indices are reduced to residue classes; paired indices sum to frobenius + multiplicity","passed":true,"verdicts":{"genus_offset":true,"genus_offset_necessity":true,"matches_classification":true,"midpoint_pairing":true}},'
        '{"applicable":true,"identity":"apery-pairings","kind":"verdicts","note":"indices are reduced to residue classes; paired indices sum to frobenius + multiplicity","passed":true,"verdicts":{"matches_classification":true,"pairing":true}}]}'
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
    assert out == stdout + "\n"


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
    # nari is defined at p = 0, and arf-heredity reads its range from --pmax
    code, _ = run_cli(capsys, "verify", "nari", "--gens", "4,5,6", "--p", "0..50")
    assert code == EXIT_PRECONDITION
    code, _ = run_cli(capsys, "verify", "arf-heredity", "--a", "3", "--b", "4", "--p", "3")
    assert code == EXIT_PRECONDITION


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


def test_cap_bounds_a_huge_p_range_quickly(capsys, monkeypatch):
    # the range is never listed, and the cap is checked once, at its top p
    monkeypatch.setenv("PSEMIGROUPS_HORIZON_CAP", "1000")
    start = time.perf_counter()
    code = main(["classify", "--gens", "2,3", "--p", "0..1000000000000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert elapsed < 1.0


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
    assert doc["frobenius"] == frobenius_p(gens, p)
    assert doc["genus"] == genus_p(gens, p)
    assert doc["sylvester_sum"] == sylvester_sum_p(gens, p)
    assert doc["type"] == report.type_count
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
