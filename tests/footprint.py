"""The package source that a fresh ``psg`` call compiles: the modules of
``psemigroups`` it loads, with their size in lines and in AST nodes.

``loaded(argv)`` makes one call in a fresh interpreter, ``main(argv)``
with its output discarded, and returns the package modules it imported;
argv None stands for ``SETUP``, the set-up that every call pays.
``cost(argv)`` sums ``len(list(ast.walk(ast.parse(source))))`` over
them: with no bytecode to read (``PYTHONDONTWRITEBYTECODE=1`` and no
``__pycache__``, as in the benchmark's children) a call compiles each
module it loads, in time about proportional to its nodes, and a
docstring or a comment costs one node or none.  ``tests/test_package.py``
bounds the cost of five calls.

From the root of a checkout,

    PYTHONPATH=src python tests/footprint.py

prints, for ``psg -h``, the set-up, one call of each command shape of
the benchmark's seed-0 workloads (``psgbench/workloads.py``) and a
``verify watanabe``, the modules loaded with their line and node counts,
and the totals.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# One seed-0 call of each command shape of the benchmark; ladder's table
# and classify have high-p's shapes.  verify watanabe, which the benchmark
# does not run, is the one scaling verifier that loads symmetry.
CALLS = [
    "-h",
    "analyze --gens 1009,1013,1019 --p 50",
    "table --gens 8,9,10 --p 1321..1832 --field frobenius,genus",
    "classify --gens 12,14,17,21 --p 1417..1928",
    "table --gens 128,218,231 --p 1..29 --field frobenius,multiplicity,conductor,genus,sylvester_sum",
    "classify --gens 279,349,403,471 --p 46..55",
    "verify symmetry --gens 201,207,322 --p 4..16",
    "verify pairings --gens 249,391,397,470 --p 51..60",
    "verify arf-kunz --gens 146,214,291 --p 4..19",
    "verify gcd-scaling --gens 203,366,388 --p 0..7",
    "verify johnson --alpha 254 --beta 3 --gens 91,163,175 --p 40..48",
    "verify watanabe --alpha 254 --beta 3 --gens 91,163,175 --p 40..48",
    "sums --gens 151,157,163 --p 20 --mu 3 --weight 1/2",
]

# The set-up that every call pays, as the benchmark's setup_s times it.
SETUP = "import psemigroups.cli as c; c.build_parser()"
# One call of main, its argv the child's first argument, its output discarded.
_CALL = """
import contextlib, io, json, sys
from psemigroups.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(json.loads(sys.argv[1]))
"""
# The package modules loaded: name -> source file, as one JSON line.
_REPORT = """
import json, sys
package = {n: m.__file__ for n, m in sys.modules.items() if n.partition(".")[0] == "psemigroups"}
print(json.dumps(package))
"""


def loaded(argv: list[str] | None) -> dict[str, str]:
    """The package modules that a fresh interpreter loads for the call
    ``argv``, or for the set-up when it is None: name -> source file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (SETUP if argv is None else _CALL) + "\n" + _REPORT
    child = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(child.stdout.splitlines()[-1])


def size(path: str) -> tuple[int, int]:
    """The lines and the AST nodes of one source file."""
    source = Path(path).read_text()
    return source.count("\n"), len(list(ast.walk(ast.parse(source))))


def cost(argv: list[str] | None) -> int:
    """The AST nodes of package source that the call ``argv`` compiles."""
    return sum(size(path)[1] for path in loaded(argv).values())


def table(argv: list[str] | None) -> list[str]:
    """One line per module that ``argv`` loads, then the totals."""
    sizes = {name: size(path) for name, path in sorted(loaded(argv).items())}
    lines = [f"  {name:<24}{n_lines:>7}{nodes:>8}" for name, (n_lines, nodes) in sizes.items()]
    total_lines, total_nodes = map(sum, zip(*sizes.values()))
    return [*lines, f"  {'total':<24}{total_lines:>7}{total_nodes:>8}"]


if __name__ == "__main__":
    for call in [None, *CALLS]:
        print(SETUP if call is None else f"psg {call}")
        print(f"  {'module':<24}{'lines':>7}{'nodes':>8}")
        print("\n".join(table(call and call.split())))
