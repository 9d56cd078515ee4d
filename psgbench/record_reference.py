"""Record psgbench/reference.json: for the default seed of every workload,
the exit code and stdout digest of each invocation without a known defect.

Run from the root of a checkout whose outputs are known to be right:

    python3 psgbench/record_reference.py

Every output must pass the invariant checks before it is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import DEFAULT_SEED, REFERENCE, Runner, oracle_for
from checks import digest, failures
from workloads import WORKLOADS


def main() -> int:
    root = Path.cwd()
    work = root / ".psgbench" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)
    sys.set_int_max_str_digits(0)
    reference: dict[str, dict[str, str]] = {}
    for name, make in WORKLOADS.items():
        reference[name] = {}
        for inv in make(DEFAULT_SEED):
            if inv.known_defect:
                continue
            outcome = runner.psg(inv)
            problems = failures(inv, outcome, None, oracle_for(inv))
            if problems:
                print(f"not recorded, {inv.label}: {problems}", file=sys.stderr)
                return 1
            reference[name][inv.label] = digest(outcome)
            print(f"{name}: {inv.label} -> {reference[name][inv.label]}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
