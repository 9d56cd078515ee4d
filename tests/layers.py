"""Layer timings of the library, in process, each layer's value checked
first against ``tests/oracles.py``.

The layers are those of one instance (A, p): ``build_range``, the H/L/K
masks, the derived sets that ``analyze`` writes (``analyze_sets``),
``pseudo_frobenius``, ``classify``, ``is_arf``, rows 0-1 of
``gap_power_sums``, ``verify_apery_pairings`` (the verifier of ``verify
pairings``, which the benchmark's mid-sweep runs on every seed), the
``analyze`` document and its ``emit`` as json.
``check(gens, p)`` compares the value of each but ``emit``, whose bytes
the corpus and golden tests pin, with a reference that shares no code
with it: the class minima with the heap-merged lists, a second minima
route; the sets and flags with the bytes and masks that the membership
test gives one value at a time; the pairing verdicts with the scan of
every j in [-2a, 2a] of ``oracles.window_apery_pairings``; the derived
sets' run texts with those bytes, a run at a time, and the document's
sets with the derived sets.  No reference is quadratic in F, so the
largest rung checks in about 22 s.

From the root of a checkout,

    PYTHONPATH=src python tests/layers.py

checks, then times, each layer on the four ``RUNGS``: the build of the
last reads a count table, the others' the (p+1)-best lists.  It prints
one JSON line per instance: its generators, p, modulus and Frobenius
number, and each layer's best of ``REPEAT`` ``time.perf_counter`` runs,
in ms.  ``tests/test_layers.py`` runs the checks alone, with no timings,
on small instances and on the last rung.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Any, Callable

from oracles import (
    contains_flags,
    flags_mask,
    full_scan_arf,
    heap_best_lists,
    interval_runs,
    is_run_text,
    mask_pseudo_frobenius,
    mirror_pairs_exactly_one,
    row_power_sum,
    window_apery_pairings,
)
from psemigroups import (
    build_range,
    classify,
    gap_power_sums,
    is_arf,
    pseudo_frobenius,
    verify_apery_pairings,
)
from psemigroups.cli import analyze_document, emit
from psemigroups.sets import analyze_sets, hlk_of_members

# (generators, p): the benchmark ladder's three instances, then the set of
# high-p's largest classify, whose class minima come off a count table.
RUNGS = [
    ((1009, 1013, 1019), 50),
    ((3001, 3011, 3019, 3023), 0),
    ((10007, 10009, 10037), 0),
    ((10, 11, 12, 18), 4300),
]

# Timings per layer; ``best_ms`` reports the least.
REPEAT = 5

# The entries of ``analyze_sets``, each read off its flags by ``check``.
_SETS = ("gaps", "members", "pseudo_frobenius", "h_set", "l_set", "k_set")
_NOT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def layers(gens: tuple[int, ...], p: int) -> dict[str, Callable[[], Any]]:
    """Each layer of (gens, p) as a call that returns its value, in the
    order timed: emit writes the document of the last analyze call to the
    null device, and one document is alive at a time."""
    (_, sp), = build_range(gens, range(p, p + 1))
    pf = pseudo_frobenius(sp)
    docs: list[dict[str, Any]] = []

    def analyze() -> dict[str, Any]:
        docs.clear()
        docs.append(analyze_document(sp.generators, p))
        return docs[0]

    def emit_doc() -> None:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            emit(docs[0], "json")

    return {
        "build": lambda: list(build_range(gens, range(p, p + 1))),
        "masks": lambda: hlk_of_members(sp),
        "sets": lambda: analyze_sets(sp, pf, False),
        "pseudo_frobenius": lambda: pseudo_frobenius(sp),
        "classify": lambda: classify(sp),
        "is_arf": lambda: is_arf(sp),
        "rows_0_1": lambda: gap_power_sums(sp, 1),
        "verify_pairings": lambda: verify_apery_pairings(sp),
        "analyze": analyze,
        "emit": emit_doc,
    }


def check(gens: tuple[int, ...], p: int) -> None:
    """Assert that every layer of (gens, p) gives its reference value."""
    calls = layers(gens, p)
    (_, sp), = calls["build"]()
    minima = tuple(values[p] for values in heap_best_lists(gens, p))
    assert sp.apery_by_residue == minima, "build: class minima"
    a, low, g = sp.modulus, sp.multiplicity, sp.frobenius
    total, c = g + low, g + 1
    # one byte per x in [0, total]: x a member; its mirror total - x one;
    # neither (L)
    flags = contains_flags(sp, range(total + 1))
    mirror = contains_flags(sp, range(total, -1, -1))
    l_flags = bytes(map(lambda x, y: not (x or y), flags, mirror))
    assert flags[g] == 0 and flags.index(1) == low and flags[c:].count(0) == 0, "build: F, low"

    assert calls["masks"]() == tuple(map(flags_mask, (flags, mirror, l_flags))), "masks"
    pf = mask_pseudo_frobenius(sp)
    assert calls["pseudo_frobenius"]() == pf, "pseudo_frobenius"
    # K is the x whose mirror is a gap: below c, H's clear bits
    finite = calls["sets"]()
    assert finite["members"]["all_from"] == c and finite["k_set"]["all_from"] == c, "sets: tails"
    assert is_run_text(finite["gaps"], flags[:c].translate(_NOT)), "sets: gaps"
    assert is_run_text(finite["members"]["below"], flags[:c]), "sets: members"
    assert finite["pseudo_frobenius"] == interval_runs(pf), "sets: pseudo_frobenius"
    assert is_run_text(finite["h_set"], mirror), "sets: h_set"
    assert is_run_text(finite["l_set"], l_flags), "sets: l_set"
    assert is_run_text(finite["k_set"]["below"], mirror[:c].translate(_NOT)), "sets: k_set"
    symmetric = mirror_pairs_exactly_one(sp, None)
    expected = (
        pf,
        symmetric,
        total % 2 == 0 and mirror_pairs_exactly_one(sp, total // 2),
        sum(l_flags[x] for x in pf) == l_flags.count(1),  # L within PF
        symmetric and low == c,
    )
    report = calls["classify"]()
    assert tuple(getattr(report, f) for f in report.__slots__) == expected, "classify"
    arf = calls["is_arf"]()
    assert (arf.passed, arf.details["witness"]) == full_scan_arf(sp), "is_arf"
    rows = [row_power_sum(sp, 0), row_power_sum(sp, 1)]
    assert calls["rows_0_1"]() == rows, "rows 0-1"
    pairings = calls["verify_pairings"]()
    verdicts = window_apery_pairings(sp)
    passed = verdicts["matches_classification"] and verdicts.get("genus_offset_necessity", True)
    assert (pairings.details["verdicts"], pairings.passed) == (verdicts, passed), "verify pairings"

    doc = calls["analyze"]()
    pattern = "FULL_INTERVAL" if low == c else (
        "SINGLETON_PLUS_TAIL" if flags[:c].count(1) == 1 and c >= low + 3 else "OTHER")
    assert {k: v for k, v in doc.items() if k not in _SETS} == {
        "p": p, "generators": list(gens), "modulus": a, "apery_by_residue": list(minima),
        "apery_sorted": sorted(minima), "kunz": [(m - j) // a for j, m in enumerate(minima)],
        "frobenius": g, "multiplicity": low, "conductor": c, "genus": rows[0],
        "sylvester_sum": rows[1], "pattern": pattern, "type": len(pf),
        **dict(zip(report.__slots__[1:], expected[1:])),
        "arf": arf.passed,
    }, "analyze: scalars"
    assert {k: doc[k] for k in _SETS} == finite, "analyze: sets"


def best_ms(call: Callable[[], Any]) -> float:
    """The least of ``REPEAT`` timings of ``call``, in ms."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(1000 * min(times), 2)


def main() -> None:
    for gens, p in RUNGS:
        check(gens, p)
        calls = layers(gens, p)
        (_, sp), = calls["build"]()
        print(json.dumps({
            "generators": list(gens), "p": p, "modulus": sp.modulus, "frobenius": sp.frobenius,
            "ms": {name: best_ms(call) for name, call in calls.items()},
        }), flush=True)


if __name__ == "__main__":
    main()
