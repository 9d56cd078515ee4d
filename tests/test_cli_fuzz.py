"""Grammar-driven fuzzing of the CLI contract: any argv ends in a documented
exit code, never a traceback, and quickly; and the parser that ran it gave
flags to no leaf but the one that argparse handed it to.

The horizon cap is lowered inside each example, so that a huge p range or
--pmax, a generator up to 10^9 (one per list, at any position, so it can
be the modulus), a huge --order or --exponent, and a --weight of a
hundred thousand digits or more must all end at a cap or size check
rather than in a long loop or a large allocation.
"""

import contextlib
import io
import time
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psemigroups import cli
from psemigroups.cli import main

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}
HUGE = 10**12

# The flags each verifier takes besides --format; any other flag is a usage
# error before any value is used, so only these are drawn for it.
VERIFIER_FLAGS = {
    "johnson": ("--gens", "--alpha", "--beta", "--p"),
    "watanabe": ("--gens", "--alpha", "--beta", "--p"),
    "gcd-scaling": ("--gens", "--p"),
    "symmetry": ("--gens", "--p"),
    "pairings": ("--gens", "--p"),
    "pf-consequences": ("--gens", "--p"),
    "almost-symmetric": ("--gens", "--p"),
    "nari": ("--gens",),
    "arf-heredity": ("--a", "--b", "--pmax"),
    "arf-kunz": ("--gens", "--p"),
    "eulerian-gf": ("--exponent", "--order"),
}

small = st.integers(-2, 12)
small_or_huge = st.one_of(small, st.just(HUGE))

gens_text = st.one_of(
    st.lists(st.integers(2, 39), min_size=2, max_size=4, unique=True)
    .filter(lambda xs: gcd(*xs) == 1)
    .map(lambda xs: ",".join(map(str, xs))),
    st.tuples(
        st.lists(st.integers(2, 39), min_size=1, max_size=3, unique=True),
        st.integers(40, 10**9),
    )
    .map(lambda t: t[0] + [t[1]])
    .filter(lambda xs: gcd(*xs) == 1)
    .flatmap(st.permutations)
    .map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", "4", "4,,5", "a,b", "-3,5", "4;5", "4.5,6", "0,1", "4,4,5", "4,6"]),
    st.just("2," + "9" * 5000),
)
p_text = st.one_of(
    st.integers(0, 40).map(str),
    st.tuples(st.integers(0, 20), st.integers(0, 20)).map(lambda t: f"{t[0]}..{t[1]}"),
    st.just(f"0..{HUGE}"),
    st.sampled_from(["x", "5..2", "-1", "1..", "..", "0..x", "1.5", "9" * 5000]),
)
# 10^300000 and 10^10000000 once took minutes to expand and to charge
WEIGHTS = (
    "1/2",
    "-2/3",
    "0",
    "1/0",
    "nan",
    "1e-300",
    "1e-300000",
    "1e-10000000",
    "1/" + "1" * 5000,
)
weight_text = st.sampled_from(WEIGHTS)
FLAG_VALUES = {
    "--gens": gens_text,
    "--alpha": small_or_huge,
    "--beta": small_or_huge,
    "--a": small_or_huge,
    "--b": small_or_huge,
    "--exponent": st.one_of(small, st.integers(-2, 3000)),
    "--order": st.one_of(st.integers(-2, 30), st.integers(-2, HUGE)),
}
# Parameter sets that pass each verifier's preconditions, so that the
# drawn --p and --pmax reach its computation.
VALID_VERIFY = {
    "johnson": [
        ["--alpha", "9", "--beta", "2", "--gens", "4,5"],
        ["--alpha", "8", "--beta", "3", "--gens", "4,5,6"],
    ],
    # 601,4,6 reads its minima modulo 601 in 4 + 601 class steps, which the
    # cap of 1000 admits; its flags over [0, F + 601) would not be
    "gcd-scaling": [
        ["--gens", "5,6,9"],
        ["--gens", "8,12,15,18"],
        ["--gens", "5,4,6"],
        ["--gens", "601,4,6"],
    ],
    "arf-heredity": [["--a", "2", "--b", "3"], ["--a", "2", "--b", "5"], ["--a", "3", "--b", "4"]],
    "eulerian-gf": [["--exponent", "3", "--order", "12"]],
}
VALID_VERIFY["watanabe"] = VALID_VERIFY["johnson"]


def _option(name, values):
    """The option with a drawn value, left out one time in five."""
    present = st.sampled_from([True, True, True, True, False])
    return present.flatmap(
        lambda on: values.map(lambda v: [name, str(v)]) if on else st.just([])
    )


@st.composite
def argvs(draw):
    head = draw(
        st.one_of(
            st.sampled_from([["analyze"], ["table"], ["classify"], ["sums"]]),
            st.sampled_from(list(VERIFIER_FLAGS)).map(lambda name: ["verify", name]),
        )
    )
    argv = list(head)
    reads = VERIFIER_FLAGS[head[1]] if head[0] == "verify" else ("--gens", "--p")
    valid = VALID_VERIFY.get(head[-1]) if head[0] == "verify" else None
    if valid and draw(st.booleans()):
        argv += draw(st.sampled_from(valid))
    else:
        for name, values in FLAG_VALUES.items():
            if name in reads:
                argv += draw(_option(name, values))
    if "--p" in reads:
        argv += draw(_option("--p", p_text))
    if "--pmax" in reads:
        argv += draw(_option("--pmax", small_or_huge))
    if head == ["sums"]:
        argv += draw(_option("--mu", small_or_huge))
        argv += draw(_option("--weight", weight_text))
    if head == ["analyze"]:
        argv += draw(st.sampled_from([[], ["--expand"]]))
    if head == ["table"]:
        fields = st.sampled_from(["genus,type", "frobenius", "nope", ","])
        argv += draw(_option("--field", fields))
    formats = [[], [], ["--format", "tsv"], ["--format", "pretty"], ["--format", "xml"]]
    argv += draw(st.sampled_from(formats))
    return argv


def _with_weight_examples(test):
    """Every weight of WEIGHTS at least once, on the smallest instance, and
    a weight whose rows are slow to print."""
    for weight in WEIGHTS:
        test = example(argv=["sums", "--gens", "2,3", "--p", "0", "--weight", weight])(test)
    return example(argv=["sums", "--gens", "45,46", "--p", "0", "--weight", "1e-300"])(test)


@settings(max_examples=200)
@given(argv=argvs())
@_with_weight_examples
def test_any_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PSEMIGROUPS_HORIZON_CAP", "1000")
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
    assert code in DOCUMENTED_EXIT_CODES, (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert elapsed < 2.0, (argv, elapsed)


# Tokens that move a call off its leaf, put before the command's name, the
# verifier's or a flag: a "--", a negative number, a foreign flag, one that
# takes a value, and help.
DETOURS = [[], ["--"], ["-1"], ["--x"], ["--mu", "3"], ["-h"]]


def _parsers(parser):
    """``parser`` and every parser below it."""
    yield parser
    for action in parser._actions:
        # a subcommand action's choices map names to parsers; --format's
        # are a tuple of names
        if isinstance(action.choices, dict):
            for below in action.choices.values():
                if isinstance(below, cli._Parser):
                    yield from _parsers(below)


@settings(max_examples=100)
@given(argv=argvs(), detour=st.sampled_from(DETOURS), at=st.integers(0, 2))
def test_only_the_last_parser_entered_has_flags(argv, detour, at):
    argv = [*argv[:at], *detour, *argv[at:]]
    built, entered = [], []
    build_parser, parse_known_args = cli.build_parser, cli._Parser.parse_known_args

    def spy(self, args=None, namespace=None):
        entered.append(self)
        return parse_known_args(self, args, namespace)

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PSEMIGROUPS_HORIZON_CAP", "1000")
        mp.setattr(cli, "build_parser", lambda: built.append(build_parser()) or built[-1])
        mp.setattr(cli._Parser, "parse_known_args", spy)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    flagged = [p for p in _parsers(built[0])
               if any(a.dest not in ("help", "command", "name") for a in p._actions)]
    last = entered[-1]
    assert flagged == ([last] if last.prog.removeprefix("psg ") in cli._COMMANDS else []), argv
