"""Tests of the benchmark's own gate, tracer and oracle.

Run from the root of a checkout: python3 -m pytest psgbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
from checks import Outcome, decode_runs, digest, failures  # noqa: E402
from oracle import instances  # noqa: E402
from probe import REF_S  # noqa: E402
from run import DEFAULT_SEED, Gate, Runner, load_reference, oracle_for, scaled_wall  # noqa: E402
from workloads import LADDER_TIMEOUT, SUMS_CRASH, WORKLOADS, Invocation, ladder, mid_sweep  # noqa: E402

from psemigroups import build  # noqa: E402


@pytest.fixture
def runner(tmp_path):
    return Runner(ROOT, tmp_path)


def _inv(*argv: str, gens, p_values, **kw) -> Invocation:
    return Invocation(tuple(argv), gens, tuple(p_values), **kw)


ANALYZE = _inv("analyze", "--gens", "17,18,19", "--p", "5", gens=(17, 18, 19), p_values=[5])


def test_clean_output_passes_and_corrupted_stdout_is_flagged(runner):
    oracle = oracle_for(ANALYZE)
    good = runner.psg(ANALYZE)
    assert failures(ANALYZE, good, digest(good), oracle) == []

    doc = json.loads(good.stdout)
    doc["genus"] += 1
    bad = Outcome(0, good.wall_s, 0.0, json.dumps(doc).encode(), b"")
    problems = failures(ANALYZE, bad, digest(good), oracle)
    assert "stdout or exit code differs from the reference digest" in problems
    assert "genus = decoded gap count" in problems
    # Without a reference the invariants alone still catch it.
    assert failures(ANALYZE, bad, None, oracle)

    truncated = Outcome(0, good.wall_s, 0.0, good.stdout[: len(good.stdout) // 2], b"")
    assert any(p.startswith("malformed output") for p in failures(ANALYZE, truncated, None, oracle))


def test_table_rows_checked_against_the_benchmark_route(runner):
    inv = _inv("table", "--gens", "6,7,17", "--p", "0..6", "--field", "frobenius,genus",
               gens=(6, 7, 17), p_values=range(7))
    outcome = runner.psg(inv)
    oracle = oracle_for(inv)
    assert failures(inv, outcome, None, oracle) == []
    doc = json.loads(outcome.stdout)
    doc["rows"][3]["frobenius"] -= 1
    assert failures(inv, Outcome(0, 0.0, 0.0, json.dumps(doc).encode(), b""), None, oracle) == [
        "p=3: frobenius wrong"
    ]
    doc["rows"][3]["frobenius"] += 1
    del doc["rows"][3]["genus"]
    assert failures(inv, Outcome(0, 0.0, 0.0, json.dumps(doc).encode(), b""), None, oracle) == [
        "row fields differ from those asked for"
    ]
    doc["rows"].pop()
    assert "rows do not match the p range" in failures(
        inv, Outcome(0, 0.0, 0.0, json.dumps(doc).encode(), b""), None, oracle
    )[0]


def _gate(inv, outcome) -> tuple[int, int, bool]:
    gate = Gate(None)
    gate.check("t", [inv], [oracle_for(inv)], [outcome])
    return gate.attempted, gate.failed, gate.correct


LIMIT = b"ValueError: Exceeds the limit (4300 digits) for integer string conversion; use ..."


def _crash(last_line: bytes, code: int = 1) -> Outcome:
    return Outcome(code, 3.8, 0.0, b"", b"Traceback (most recent call last):\n  ...\n" + last_line + b"\n")


def test_exit_1_with_traceback_counts_failed():
    problems = failures(ANALYZE, _crash(LIMIT), None, oracle_for(ANALYZE))
    assert problems and problems[0].startswith("traceback: ValueError")
    assert _gate(ANALYZE, _crash(LIMIT)) == (1, 1, False)


def test_sums_crash_is_excused_only_in_its_known_form():
    sums = mid_sweep(0)[-1]
    assert sums.command == "sums" and sums.known_defect is SUMS_CRASH
    assert _gate(sums, _crash(LIMIT)) == (1, 1, True)
    assert _gate(sums, _crash(b"ZeroDivisionError: division by zero")) == (1, 1, False)
    assert _gate(sums, _crash(LIMIT, code=3)) == (1, 1, False)
    assert _gate(sums, Outcome(1, 0.1, 0.0, b"", b"error\n")) == (1, 1, False)
    assert _gate(sums, Outcome(None, 120.0, 0.0, b"", b"")) == (1, 1, False)
    assert _gate(sums, Outcome(0, 0.1, 0.0, b"{}", b"")) == (1, 1, False)


def test_ladder_timeout_is_excused_only_as_a_timeout():
    rung = ladder(0)[-1]
    assert rung.command == "classify" and rung.known_defect is LADDER_TIMEOUT
    assert _gate(rung, Outcome(None, 5.0, 0.0, b"", b"")) == (1, 1, True)
    assert _gate(rung, _crash(b"MemoryError")) == (1, 1, False)
    assert _gate(rung, Outcome(4, 0.2, 0.0, b"", b"error: horizon cap\n")) == (1, 1, False)


def test_documented_nonzero_exit_counts_failed():
    usage = Outcome(3, 0.1, 0.0, b"", b"error: p must be non-negative\n")
    assert failures(ANALYZE, usage, None, oracle_for(ANALYZE)) == ["exit code 3"]
    odd = Outcome(7, 0.1, 0.0, b"", b"")
    assert failures(ANALYZE, odd, None, oracle_for(ANALYZE)) == ["undocumented exit code 7"]


def test_timeout_counts_failed_and_keeps_its_rung(runner):
    rung = ladder(0)[-1]
    assert rung.command == "classify" and rung.known_defect
    quick = Invocation(rung.argv, rung.gens, rung.p_values, timeout=0.5, known_defect=rung.known_defect)
    outcome = runner.psg(quick)
    assert outcome.exit is None
    assert outcome.wall_s < 0.5 + 5.0
    gate = Gate(None)
    gate.check("pass 1", [quick], [oracle_for(quick)], [outcome])
    assert (gate.attempted, gate.failed, gate.correct) == (1, 1, True)
    assert gate.log[0]["invocation"] == rung.label
    assert gate.log[0]["known_defect"] == LADDER_TIMEOUT.reason
    assert gate.log[0]["problems"] == ["timeout after 0.5 s"]


def _edited(outcome: Outcome, edit, code=None) -> Outcome:
    doc = json.loads(outcome.stdout)
    edit(doc)
    return Outcome(outcome.exit if code is None else code, 0.0, 0.0, json.dumps(doc).encode(), b"")


def test_classify_flags_checked_against_the_oracle(runner):
    inv = _inv("classify", "--gens", "17,18,19", "--p", "0..12", gens=(17, 18, 19), p_values=range(13))
    outcome = runner.psg(inv)
    oracle = oracle_for(inv)
    assert failures(inv, outcome, None, oracle) == []
    rows = json.loads(outcome.stdout)["rows"]
    assert {r["symmetric"] for r in rows} == {True, False}

    def all_false(doc):
        for row in doc["rows"]:
            row.update(dict.fromkeys(row.keys() - {"p"}, False))

    assert failures(inv, _edited(outcome, all_false), None, oracle)


def test_verify_symmetry_may_exit_5_only_where_the_oracle_disagrees(runner):
    # The documented finding: at ({28,20,26,25}, p=3) the counting criteria
    # hold and the mirror exchange fails.
    inv = _inv("verify", "symmetry", "--gens", "28,20,26,25", "--p", "0..4", gens=(28, 20, 26, 25), p_values=range(5))
    outcome = runner.psg(inv)
    assert outcome.exit == 5
    assert failures(inv, outcome, None, oracle_for(inv)) == []

    def agree(doc):
        doc["rows"][3]["verdicts"] = dict.fromkeys(doc["rows"][3]["verdicts"], False)
        doc["rows"][3]["passed"] = doc["passed"] = True

    assert failures(inv, _edited(outcome, agree, code=0), None, oracle_for(inv))


@pytest.mark.parametrize(
    "argv, gens",
    [
        (("verify", "pairings", "--gens", "17,18,19"), (17, 18, 19)),
        (("verify", "arf-kunz", "--gens", "17,18,19"), (17, 18, 19)),
        (("verify", "gcd-scaling", "--gens", "7,10,12"), (7, 10, 12)),
        (("verify", "johnson", "--alpha", "14", "--beta", "3", "--gens", "5,7,9"), (14, 15, 21, 27)),
    ],
)
def test_failed_verifier_rows_are_flagged(runner, argv, gens):
    inv = _inv(*argv, "--p", "0..5", gens=gens, p_values=range(6))
    outcome = runner.psg(inv)
    oracle = oracle_for(inv)
    assert outcome.exit == 0 and failures(inv, outcome, None, oracle) == []

    def fail_row(doc):
        doc["rows"][2]["passed"] = doc["passed"] = False

    assert failures(inv, _edited(outcome, fail_row, code=5), None, oracle)


def test_wrong_verifier_values_are_flagged(runner):
    inv = _inv("verify", "johnson", "--alpha", "14", "--beta", "3", "--gens", "5,7,9", "--p", "0..3",
               gens=(14, 15, 21, 27), p_values=range(4))
    outcome = runner.psg(inv)
    oracle = oracle_for(inv)

    def shift(doc):
        for side in ("lhs", "rhs"):
            doc["rows"][1][side]["genus"] += 1

    assert failures(inv, _edited(outcome, shift), None, oracle) == ["p=1: lhs differs from the oracle"]

    inv = _inv("verify", "arf-kunz", "--gens", "17,18,19", "--p", "0..3", gens=(17, 18, 19), p_values=range(4))
    outcome = runner.psg(inv)
    rows = json.loads(outcome.stdout)["rows"]
    assert not all(r["applicable"] for r in rows)
    bad = next(i for i, r in enumerate(rows) if not r["applicable"])

    def bogus_witness(doc):
        x, y, z = doc["rows"][bad]["witness"]
        doc["rows"][bad]["witness"] = [x, y, y]

    assert failures(inv, _edited(outcome, bogus_witness), None, oracle_for(inv)) == [
        f"p={bad}: not-closed witness is invalid"
    ]


def test_interval_decoding_matches_expand(runner):
    argv = ("analyze", "--gens", "17,18,19", "--p", "5")
    runs = json.loads(runner.psg(_inv(*argv, gens=(), p_values=[5])).stdout)
    plain = json.loads(runner.psg(_inv(*argv, "--expand", gens=(), p_values=[5])).stdout)

    def expand(text):
        return [v for lo, hi in decode_runs(text) for v in range(lo, hi + 1)]

    for key in ("gaps", "pseudo_frobenius", "h_set", "l_set"):
        assert expand(runs[key]) == plain[key], key
    for key in ("members", "k_set"):
        assert expand(runs[key]["below"]) == plain[key]["below"], key
    assert decode_runs("") == []


def test_reference_covers_every_default_seed_invocation():
    for name, make in WORKLOADS.items():
        reference = load_reference(name, DEFAULT_SEED)
        missing = [inv.label for inv in make(DEFAULT_SEED) if inv.known_defect is None and inv.label not in reference]
        assert missing == [], name


def test_missing_reference_digest_is_flagged(runner):
    gate = Gate({})
    gate.check("t", [ANALYZE], [oracle_for(ANALYZE)], [runner.psg(ANALYZE)])
    assert (gate.attempted, gate.failed, gate.correct) == (1, 1, False)
    assert gate.log[0]["problems"] == ["no reference digest recorded for this invocation"]


def test_probe_scales_wall_time_and_keeps_timeouts(runner):
    outcome = runner.psg(ANALYZE)
    assert outcome.probe_s > 0
    assert scaled_wall(outcome) == pytest.approx(outcome.wall_s * REF_S / outcome.probe_s)
    killed = Outcome(None, 5.01, 0.0, b"", b"", outcome.probe_s)
    assert scaled_wall(killed) == 5.01


def test_oracle_matches_the_package():
    for gens, ps in [((17, 18, 19), [0, 5, 40]), ((28, 20, 26, 25), [0, 3]), ((4, 7, 8), [2])]:
        for inst in instances(gens, ps):
            sp = build(gens, inst.p)
            assert inst.minima == sp.apery_by_residue
            assert (inst.frobenius, inst.genus, inst.gap_sum) == (sp.frobenius, len(sp.gaps), sum(sp.gaps))


def test_traced_run_keeps_stdout_and_spans_partition_the_time(runner, tmp_path):
    plain = runner.psg(ANALYZE)
    traced, trace = runner.traced(ANALYZE, "spans", tmp_path / "t.json")
    assert traced.stdout == plain.stdout and traced.exit == 0
    names = {s[0] for s in trace["spans"]}
    assert {"cli.main", "semigroup.build", "symmetry.pseudo_frobenius", "arf.is_arf"} <= names
    assert "denumerant.DenumerantTable" in names
    metrics = layers.span_metrics([trace])
    root = next(s for s in trace["spans"] if s[3] < 0 and s[0] == "cli.main")
    layer_total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    root_s = (root[2] - root[1]) / 1e9
    assert layer_total == pytest.approx(root_s + sum(
        (s[2] - s[1]) / 1e9 for s in trace["spans"] if s[3] < 0 and s is not root
    ), rel=1e-6)
    assert metrics["semigroup.builds"] == 1
    assert metrics["denumerant.entries"] > 0
    assert all(v >= 0 for v in metrics.values())


def test_crash_is_recorded_as_a_cli_error(runner, tmp_path):
    inv = _inv("sums", "--gens", "151,157,163", "--p", "20", "--mu", "0", "--weight", "1/2",
               gens=(151, 157, 163), p_values=[20])
    outcome, trace = runner.traced(inv, "spans", tmp_path / "t.json")
    assert outcome.exit == 1 and SUMS_CRASH.matches(outcome)
    metrics = layers.span_metrics([trace])
    assert metrics["cli.errors"] == 1
    assert metrics.get("semigroup.errors", 0) == 0


def test_memory_pass_records_peaks(runner, tmp_path):
    outcome, trace = runner.traced(ANALYZE, "memory", tmp_path / "m.json")
    assert outcome.exit == 0
    peaks = layers.peak_metrics([trace])
    assert set(peaks) == set(layers.PEAKS)
    assert peaks["semigroup.build.alloc_peak_mb"] > 0 and peaks["cli.alloc_peak_mb"] > 0


def test_empty_checkout_exits_nonzero_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "high-p", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
