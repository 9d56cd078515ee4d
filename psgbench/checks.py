"""Correctness gate for one invocation's outcome.

An invocation fails on a timeout, a traceback on stderr, an exit code
outside {0, 2, 3, 4, 5} or other than expected, a stdout digest that
differs from the reference recorded for the default seed, or an output
that breaks an invariant computed here from the JSON alone and from the
benchmark's own class minima (oracle.py).  The expected exit is 0, except
for ``verify symmetry``: its five characterizations are not equivalent
for p >= 1, so it exits 5 exactly where the oracle's verdicts disagree.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from oracle import Instance
from workloads import Invocation

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
FLAGS = ("symmetric", "pseudo_symmetric", "almost_symmetric", "completely_symmetric")


@dataclass
class Outcome:
    """What one child process left behind."""

    exit: int | None  # None: killed at its timeout
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    probe_s: float = 0.0  # mean host-speed probe sample during the child (probe.py)


def digest(outcome: Outcome) -> str:
    return f"{outcome.exit}:{hashlib.sha256(outcome.stdout).hexdigest()}"


def decode_runs(text: str) -> list[tuple[int, int]]:
    """Parse the CLI's run-length set rendering "0-23,25,27" into sorted
    inclusive (lo, hi) runs."""
    runs = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        runs.append((int(lo), int(hi or lo)))
    return runs


def run_count(runs) -> int:
    return sum(hi - lo + 1 for lo, hi in runs)


def within(runs, values) -> bool:
    starts = [lo for lo, _ in runs]
    for v in values:
        i = bisect_right(starts, v) - 1
        if i < 0 or v > runs[i][1]:
            return False
    return True


def failures(
    inv: Invocation, outcome: Outcome, reference: str | None, oracle: dict[int, Instance]
) -> list[str]:
    """Reasons the invocation failed; empty when it passed.  ``oracle`` maps
    each p of the invocation to the benchmark's own instance."""
    if outcome.exit is None:
        return [f"timeout after {inv.timeout:g} s"]
    problems = []
    if b"Traceback (most recent call last)" in outcome.stderr:
        problems.append("traceback: " + outcome.stderr.decode(errors="replace").strip().splitlines()[-1])
    if outcome.exit not in DOCUMENTED_EXITS:
        problems.append(f"undocumented exit code {outcome.exit}")
    if problems or outcome.exit not in (0, 5):
        return problems or [f"exit code {outcome.exit}"]
    if reference is not None and digest(outcome) != reference:
        problems.append("stdout or exit code differs from the reference digest")
    try:
        doc = json.loads(outcome.stdout)
        problems += output_problems(inv, doc, outcome.exit, oracle)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems


def output_problems(
    inv: Invocation, doc: dict, exit_code: int, oracle: dict[int, Instance]
) -> list[str]:
    cmd = inv.command
    if cmd.startswith("verify"):
        return _verify_problems(inv, doc, exit_code, oracle)
    if exit_code != 0:
        return [f"exit code {exit_code} where 0 is expected"]
    if cmd == "analyze":
        return _analyze_problems(doc, oracle[inv.p_values[0]])
    if cmd == "sums":
        return _sums_problems(doc, oracle[inv.p_values[0]])
    rows = doc["rows"]
    if [r["p"] for r in rows] != list(inv.p_values):
        return [f"{len(rows)} rows do not match the p range"]
    keys = {"p", *(FLAGS if cmd == "classify" else inv.argv[inv.argv.index("--field") + 1].split(","))}
    problems = [] if all(row.keys() == keys for row in rows) else ["row fields differ from those asked for"]
    for row in rows:
        inst = oracle[row["p"]]
        expected = {
            "frobenius": inst.frobenius,
            "genus": inst.genus,
            "multiplicity": inst.multiplicity,
            "conductor": inst.frobenius + 1,
            "sylvester_sum": inst.gap_sum,
        }
        wrong = [f for f, v in expected.items() if f in row and row[f] != v]
        if cmd == "classify":
            wrong += [f for f in FLAGS if row[f] != inst.symmetry[f]]
        if wrong:
            problems.append(f"p={row['p']}: {', '.join(wrong)} wrong")
    return problems


def _analyze_problems(doc: dict, inst) -> list[str]:
    a = doc["modulus"]
    apery = doc["apery_by_residue"]
    gaps = decode_runs(doc["gaps"])
    pf = [v for lo, hi in decode_runs(doc["pseudo_frobenius"]) for v in range(lo, hi + 1)]
    selmer = Fraction(sum(apery), a) - Fraction(a - 1, 2)
    checks = {
        "frobenius = max(apery) - modulus": doc["frobenius"] == max(apery) - a,
        "genus = Selmer formula": doc["genus"] == selmer,
        "genus = decoded gap count": doc["genus"] == run_count(gaps),
        "pseudo-Frobenius within gaps": within(gaps, pf),
        "type = |pseudo-Frobenius|": doc["type"] == len(pf),
        "largest gap = frobenius": (gaps[-1][1] if gaps else -1) == doc["frobenius"],
        "class minima match the benchmark's route": tuple(apery) == inst.minima,
        "gap sum matches the benchmark's route": doc["sylvester_sum"] == inst.gap_sum,
    }
    return [name for name, ok in checks.items() if not ok]


def _sums_problems(doc: dict, inst) -> list[str]:
    rows = doc["rows"]
    problems = []
    if [r["mu"] for r in rows] != list(range(len(rows))):
        problems.append("mu rows are not 0..mu")
    for row in rows:
        if row["direct"] != row["from_apery"]:
            problems.append(f"mu={row['mu']}: direct != from_apery")
    if rows and rows[0]["direct"] != inst.genus:
        problems.append("mu=0 sum differs from the genus")
    if len(rows) > 1 and rows[1]["direct"] != inst.gap_sum:
        problems.append("mu=1 sum differs from the gap sum")
    if "weight" in doc:
        problems += _weighted_problems(rows, Fraction(doc["weight"]), inst)
    return problems


def _weighted_problems(rows, weight: Fraction, inst) -> list[str]:
    """Sum of weight^n n^mu over the gaps, over the common denominator
    den^F, so that no intermediate fraction is reduced."""
    a, top = inst.a, inst.frobenius
    gaps = [j + i * a for j, m in enumerate(inst.minima) for i in range((m - j) // a)]
    num, den = weight.numerator, weight.denominator
    problems = []
    for row in rows:
        mu = row["mu"]
        total = sum(num**n * den ** (top - n) * n**mu for n in gaps)
        if Fraction(row["weighted"]) != Fraction(total, den**top):
            problems.append(f"mu={mu}: weighted sum wrong")
    return problems


def _verify_problems(inv: Invocation, doc: dict, exit_code: int, oracle: dict[int, Instance]) -> list[str]:
    """Each row against the oracle; every applicable row must pass, except
    where ``verify symmetry`` rightly finds its characterizations apart."""
    rows = doc["rows"]
    if len(rows) != len(inv.p_values):
        return [f"{len(rows)} rows do not match the p range"]
    check = _ROW_CHECKS[inv.command.split()[1]]
    problems = []
    for p, row in zip(inv.p_values, rows):
        wrong = check(row, oracle[p])
        if wrong:
            problems.append(f"p={p}: {wrong}")
    passed = all(r["passed"] or not r["applicable"] for r in rows)
    if doc["passed"] != passed:
        problems.append("overall verdict disagrees with the rows")
    if exit_code != (0 if passed else 5):
        problems.append(f"exit code {exit_code} disagrees with the verdict")
    return problems


def _symmetry_row(row: dict, inst: Instance) -> str:
    flags = inst.symmetry
    expected = {
        "definition": flags["symmetric"],
        "complementary_pairs": flags["symmetric"],
        **{k: flags[k] for k in ("window_counts", "sorted_pairing", "genus_midpoint")},
    }
    if row["verdicts"] != expected:
        return "verdicts differ from the oracle's"
    if row["passed"] != (len(set(expected.values())) == 1):
        return "passed disagrees with the verdicts"
    return ""


def _pairings_row(row: dict, inst: Instance) -> str:
    verdicts = row["verdicts"]
    if inst.total % 2:
        pairing, flag = verdicts["pairing"], inst.symmetry["symmetric"]
    else:
        pairing, flag = verdicts["midpoint_pairing"], inst.symmetry["pseudo_symmetric"]
    if not row["passed"]:
        return "failed"
    return "" if pairing == flag else "pairing verdict differs from the oracle's flag"


def _arf_kunz_row(row: dict, inst: Instance) -> str:
    """A closed instance must pass; an open one must carry a valid witness:
    members x >= y >= z with x + y - z outside."""
    if row["applicable"]:
        return "" if row["passed"] and row["is_arf"] else "failed"
    x, y, z = row["witness"]
    valid = x >= y >= z and all(map(inst.contains, (x, y, z))) and not inst.contains(x + y - z)
    return "" if valid and not row["is_arf"] else "not-closed witness is invalid"


def _identity_row(row: dict, inst: Instance) -> str:
    """lhs must equal rhs, and lhs the oracle's numbers for the instance."""
    lhs = row["lhs"]
    expected = {"frobenius": inst.frobenius, "genus": inst.genus}
    if "sylvester_sum" in lhs:
        expected["sylvester_sum"] = inst.gap_sum
    if not row["passed"] or lhs != row["rhs"]:
        return "failed (lhs != rhs)"
    return "" if all(lhs[k] == v for k, v in expected.items()) else "lhs differs from the oracle"


_ROW_CHECKS = {
    "symmetry": _symmetry_row,
    "pairings": _pairings_row,
    "arf-kunz": _arf_kunz_row,
    "johnson": _identity_row,
    "gcd-scaling": _identity_row,
}
