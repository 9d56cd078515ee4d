"""A seeded corpus of in-process ``psg`` calls, for byte-stability checks.

``calls(seed, size)`` draws ``size`` argument lists from a fixed mix over
every command of ``psg``, each verifier included: valid calls in each of
the three formats or the default, and calls with a value no command
accepts (an unknown format among them), a flag the command does not take
(after its own, or before the command's name), a needed flag missing, a
flag abbreviated, or ``-h``.  ``run(argv)`` makes one call of
``psemigroups.cli.main`` with stdout and stderr captured, COLUMNS fixed,
so that argparse wraps its usage and help the same way on every terminal,
and the horizon cap fixed, so that every refusal falls in the same place.

From the root of a checkout,

    PYTHONPATH=src python tests/corpus.py --seed 0 --size 2000

prints one line per call: its argv, its exit code, and the first 16 hex
digits of the sha256 of its stdout and of its stderr, so that two trees
give two files to diff.  ``--digest`` prints only the sha256 of those
lines, the value ``tests/test_corpus.py`` pins.  ``--against DIR`` runs
the same calls on the checkout at DIR too, in a child process with
``PYTHONPATH=DIR/src``, and prints the calls whose exit code, stdout or
stderr differ, grouped by how they differ and by command; it exits 1
when any call differs.  argparse's wording differs between Python
versions, so the lines and the digest are those of one interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path
from typing import Iterable, Iterator

from psemigroups.cli import main

COLUMNS = "80"
HORIZON_CAP = "1000000"

# Every command: the flags it needs and the flags it may take, besides
# --format.
LEAVES = {
    "analyze": (("gens", "p"), ("expand",)),
    "table": (("gens", "p"), ("field",)),
    "classify": (("gens", "p"), ()),
    "sums": (("gens", "p"), ("mu", "weight")),
    "verify johnson": (("alpha", "beta", "gens"), ("p",)),
    "verify watanabe": (("alpha", "beta", "gens"), ("p",)),
    "verify gcd-scaling": (("gens",), ("p",)),
    "verify symmetry": (("gens",), ("p",)),
    "verify pairings": (("gens",), ("p",)),
    "verify pf-consequences": (("gens",), ("p",)),
    "verify almost-symmetric": (("gens",), ("p",)),
    "verify nari": (("gens",), ()),
    "verify arf-heredity": (("a", "b"), ("pmax",)),
    "verify arf-kunz": (("gens",), ("p",)),
    "verify eulerian-gf": (("exponent", "order"), ()),
}
# The commands that read a single p, not a range.
SINGLE_P = {"analyze", "sums"}
FLAGS = sorted({flag for needed, optional in LEAVES.values() for flag in needed + optional})
FIELDS = (
    "frobenius", "multiplicity", "conductor", "genus", "sylvester_sum", "type", "pattern",
    "symmetric", "pseudo_symmetric", "almost_symmetric", "completely_symmetric",
)
WEIGHTS = ("1/2", "-2/3", "3", "0", "5/7", "-1")
FORMATS = ("json", "tsv", "pretty")

# What a value no command accepts looks like, per flag: a precondition
# failure, a usage error, or a cap refusal.
BAD_VALUES = {
    "gens": ("4,x", "4,4,5", "4,6", "", "0,1", "2,1000000007"),
    "p": ("x", "5..3", "-1", "1..", "0..1000000000000"),
    "alpha": ("x", "-3", "1000000000000"),
    "beta": ("x", "0", "1000000000000"),
    "a": ("x", "1", "1000000000000"),
    "b": ("x", "4", "1000000000000"),
    "pmax": ("x", "-1", "1000000000000"),
    "exponent": ("x", "-1", "100000"),
    "order": ("x", "-1", "100000"),
    "mu": ("x", "-1", "9"),
    "weight": ("x", "1/0", "1e-300000", "nan"),
    "field": ("bogus", "genus,bogus", ",", "p"),
    "format": ("xml", ""),
}


def _gens(rng: random.Random) -> str:
    while True:
        values = rng.sample(range(2, 31), rng.randint(2, 4))
        if gcd(*values) == 1:
            return ",".join(map(str, values))


def _good(rng: random.Random, leaf: str, flag: str) -> str:
    """A value of ``flag`` that ``leaf`` accepts as well-formed."""
    if flag == "gens":
        return _gens(rng)
    if flag == "p":
        lo = rng.randint(0, 12)
        return str(lo) if leaf in SINGLE_P or rng.random() < 0.5 else f"{lo}..{lo + rng.randint(0, 8)}"
    if flag == "field":
        return ",".join(rng.sample(FIELDS, rng.randint(1, 3)))
    if flag == "weight":
        return rng.choice(WEIGHTS)
    low, high = {
        "alpha": (2, 12), "beta": (1, 6), "a": (2, 9), "b": (2, 15), "pmax": (0, 4),
        "exponent": (1, 4), "order": (0, 12), "mu": (0, 8),
    }[flag]
    return str(rng.randint(low, high))


def _valid(rng: random.Random, leaf: str) -> list[str]:
    """A call of ``leaf`` with every flag it needs and some it may take,
    in a random order, and a random format or none."""
    needed, optional = LEAVES[leaf]
    flags = [*needed, *(f for f in optional if rng.random() < 0.5)]
    rng.shuffle(flags)
    argv = leaf.split()
    for flag in flags:
        argv += [f"--{flag}"] if flag == "expand" else [f"--{flag}", _good(rng, leaf, flag)]
    if rng.random() < 0.7:
        argv += ["--format", rng.choice(FORMATS)]
    return argv


def _invalid(rng: random.Random, leaf: str) -> list[str]:
    """A valid call of ``leaf`` with one value replaced by a bad one."""
    argv = _valid(rng, leaf)
    slots = [i for i in range(len(argv) - 1)
             if argv[i].startswith("--") and argv[i][2:] in BAD_VALUES]
    if not slots:
        return [*argv, "--format", "xml"]
    i = rng.choice(slots)
    argv[i + 1] = rng.choice(BAD_VALUES[argv[i][2:]])
    if leaf in SINGLE_P and argv[i] == "--p" and rng.random() < 0.3:
        argv[i + 1] = "0..3"
    return argv


def _foreign(rng: random.Random, leaf: str) -> list[str]:
    """A valid call of ``leaf`` with a flag it does not take, after its
    own flags or before the command's name."""
    argv = _valid(rng, leaf)
    needed, optional = LEAVES[leaf]
    flag = rng.choice([f for f in [*FLAGS, "x"] if f not in needed + optional])
    extra = [f"--{flag}"] if flag in ("expand", "x") else [f"--{flag}", _good(rng, leaf, flag)]
    place = rng.random()
    if place < 0.6:
        return argv + extra
    if place < 0.8 or not leaf.startswith("verify "):
        return extra + argv
    return argv[:1] + extra + argv[1:]


def _missing(rng: random.Random, leaf: str) -> list[str]:
    """A valid call of ``leaf`` without one flag it needs."""
    argv = _valid(rng, leaf)
    flag = "--" + rng.choice(LEAVES[leaf][0])
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


def _abbreviated(rng: random.Random, leaf: str) -> list[str]:
    """A valid call of ``leaf`` with one of its flags cut short."""
    argv = _valid(rng, leaf)
    slots = [i for i, token in enumerate(argv) if token.startswith("--") and len(token) > 3]
    if not slots:
        return argv
    i = rng.choice(slots)
    argv[i] = argv[i][:rng.randint(3, len(argv[i]) - 1)]
    return argv


def _help(rng: random.Random, leaf: str) -> list[str]:
    """``-h`` on ``leaf``, on ``psg verify`` or on ``psg``, alone or after
    some of the leaf's flags."""
    argv = _valid(rng, leaf) if rng.random() < 0.3 else leaf.split()
    cut = rng.choice((len(argv), len(argv), 1, 0))
    return [*argv[:cut], "-h"]


# Each kind of call, with its weight in the mix.
KINDS = {
    "valid": (_valid, 40),
    "invalid": (_invalid, 20),
    "foreign": (_foreign, 12),
    "missing": (_missing, 10),
    "abbreviated": (_abbreviated, 8),
    "help": (_help, 10),
}


def draws(seed: int, size: int) -> list[tuple[str, list[str]]]:
    """``size`` (command, argv) pairs, the same for the same seed on every
    tree; the command is the leaf the call was drawn for."""
    rng = random.Random(seed)
    names = list(KINDS)
    weights = [KINDS[name][1] for name in names]
    leaves = list(LEAVES)
    out = []
    for _ in range(size):
        kind = rng.choices(names, weights)[0]
        leaf = rng.choice(leaves)
        out.append((leaf, KINDS[kind][0](rng, leaf)))
    return out


def calls(seed: int, size: int) -> list[list[str]]:
    """The argv of every draw."""
    return [argv for _, argv in draws(seed, size)]


@contextlib.contextmanager
def _fixed_environment() -> Iterator[None]:
    saved = {name: os.environ.get(name) for name in ("COLUMNS", "PSEMIGROUPS_HORIZON_CAP")}
    os.environ.update(COLUMNS=COLUMNS, PSEMIGROUPS_HORIZON_CAP=HORIZON_CAP)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run(argv: list[str]) -> tuple[str, str, str]:
    """The exit code of one in-process call (or the name of the exception
    it raised), its stdout and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with _fixed_environment(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except Exception as exc:  # recorded, so that a crash shows in the diff
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _line(argv: list[str]) -> str:
    code, out, err = run(argv)
    return f"{json.dumps(argv)}\t{code}\t{_short(out)}\t{_short(err)}"


def lines(seed: int, size: int) -> Iterator[str]:
    """One line per call: argv, exit, stdout digest, stderr digest."""
    return map(_line, calls(seed, size))


# How many differing calls of one command ``report`` lists.
SHOWN = 3
# How two lines of one call can differ, the gravest first.
DIFFERENCES = ("exit changed", "stdout changed, same exit", "stderr changed only")


def _difference(ours: str, theirs: str) -> str | None:
    """The first of DIFFERENCES that two lines of one call show, or None."""
    _, *fields = ours.split("\t")
    _, *other = theirs.split("\t")
    return next((kind for kind, x, y in zip(DIFFERENCES, fields, other) if x != y), None)


def group(
    leaves: Iterable[str], ours: Iterable[str], theirs: Iterable[str]
) -> dict[str, dict[str, list[str]]]:
    """The lines of ``ours`` that differ from ``theirs``, by difference and
    then by command, in draw order; ``leaves`` names each call's command."""
    groups: dict[str, dict[str, list[str]]] = {}
    for leaf, mine, other in zip(leaves, ours, theirs, strict=True):
        kind = _difference(mine, other)
        if kind is not None:
            groups.setdefault(kind, {}).setdefault(leaf, []).append(mine)
    return {kind: groups[kind] for kind in DIFFERENCES if kind in groups}


def against(root: Path, seed: int, size: int) -> dict[str, dict[str, list[str]]]:
    """``group`` of this tree's lines against those of the checkout at
    ``root``, whose lines a child process prints."""
    child = subprocess.run(
        [sys.executable, __file__, "--seed", str(seed), "--size", str(size)],
        env={**os.environ, "PYTHONPATH": str(root.resolve() / "src")},
        capture_output=True, text=True, check=True,
    )
    leaves, argvs = zip(*draws(seed, size))
    return group(leaves, map(_line, argvs), child.stdout.splitlines())


def report(groups: dict[str, dict[str, list[str]]], size: int) -> Iterator[str]:
    """The lines that print ``groups``: a count per difference and per
    command, and the argv of the first SHOWN calls of each."""
    counts = {kind: sum(map(len, by_leaf.values())) for kind, by_leaf in groups.items()}
    yield f"{sum(counts.values())} of {size} calls differ"
    for kind, by_leaf in groups.items():
        yield f"{kind}: {counts[kind]}"
        for leaf, found in by_leaf.items():
            yield f"  {leaf}: {len(found)}"
            for line in found[:SHOWN]:
                yield "    " + line.split("\t")[0]


def digest(seed: int, size: int) -> str:
    """The sha256 of every line of ``lines(seed, size)``."""
    total = hashlib.sha256()
    for line in lines(seed, size):
        total.update(line.encode() + b"\n")
    return total.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", type=int, default=2000)
    parser.add_argument("--digest", action="store_true", help="print only the aggregate digest")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="compare every call with the checkout at DIR")
    args = parser.parse_args()
    if args.against is not None:
        if not (args.against / "src" / "psemigroups").is_dir():
            parser.error(f"no src/psemigroups under {args.against}")
        groups = against(args.against, args.seed, args.size)
        print("\n".join(report(groups, args.size)))
        sys.exit(1 if groups else 0)
    elif args.digest:
        print(digest(args.seed, args.size))
    else:
        for line in lines(args.seed, args.size):
            print(line)
