"""The exhaustive small box (tests/box.py) against its recorded digest:
every record is checked against the oracles as it is made, so a wrong
route fails here, and a change of any value in the box moves the digest.
A deliberate change re-records it and names every moved line in
CHANGES.md; ``PYTHONPATH=src python tests/box.py --lines`` on both trees
shows which."""

import json

import box

DIGEST = "1c0b4a100a458a67e16f75b354a6180fc6893b566e7408b0213229ca203f424e"


def test_box_digest_and_the_symmetry_failures_are_the_recorded_ones():
    found = list(box.records())
    assert len({record["A"] for record in found}) == 207 and len(found) == 1449
    assert box.digest(map(box.line, found)) == DIGEST
    # the five symmetry criteria part only at p >= 1, always as the two
    # counting criteria against the three exchange ones, first at max(A) = 13
    symmetry = {shape: failed for (name, shape), failed in box.failures(found).items()
                if name == "symmetry"}
    (shape, failed), = symmetry.items()
    assert json.loads(shape) == {
        "complementary_pairs": False, "definition": False, "genus_midpoint": True,
        "sorted_pairing": False, "window_counts": True,
    }
    assert all(record["p"] > 0 for record in failed)
    assert min(max(record["A"]) for record in failed) == 13
