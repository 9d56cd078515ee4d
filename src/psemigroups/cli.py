"""Command-line surface: analyze, table, classify, sums, verify.

Output formats: json (stable byte-for-byte: sorted keys, compact
separators), tsv, and pretty.  A document holds only JSON values: ``sums``
writes its rationals as "num/den" strings itself.  Finite sets serialize as
run-length interval strings mirroring brace notation ("181-191,200-210");
co-finite sets as {"below": ..., "all_from": n}.  No numeric logic lives
here; every command is a thin adapter over the library: its handler
returns the document and exit code, and ``main`` writes the document.
``symmetry``, ``criteria``, ``arf``, ``identities`` and ``exactmath`` are
reached through the package's lazy names, so a command that calls none of
them never loads them; ``analyze`` imports ``sets`` for its F-sized sets,
all from ``sets.analyze_sets``, and the tsv and pretty writers and ``sums``
are ``cli_more``, imported on first use.  So a json ``table``,
``classify`` or ``verify`` compiles only the code it runs.  ``fractions``
is imported only by ``sums --weight``, and a parser gets its flags only
when argparse enters it.

``run`` is the process entry of ``psg`` and ``python -m psemigroups``:
``main``, then an exit that does not collect the heap it leaves.

Exit codes: 0 success, 1 stdout closed early, 2 usage error, 3
precondition failure, 4 cap exceeded, 5 verifier failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence

import psemigroups

from .denumerant import GeneratorSet, as_generator_set
from .errors import CapExceededError, PreconditionError
from .reports import Report
from .semigroup import PSemigroup, build, build_range, gap_count, gap_sum

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4
EXIT_VERIFIER_FAILED = 5


def _more() -> Any:
    """``cli_more``, the code that only some calls run, imported when a
    call first needs it."""
    from . import cli_more

    return cli_more


# ---------------------------------------------------------------------------
# rendering helpers

to_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# emit joins short pieces of output into writes of at most this many
# characters: with stdout unbuffered (python -u, PYTHONUNBUFFERED), each
# write is a system call.
_WRITE_SIZE = 1 << 16


@contextlib.contextmanager
def unlimited_digits() -> Iterator[None]:
    """Python's int -> str digit limit, lifted for the body only.  An exact
    result can pass it: a weighted power sum's denominator den^F, or the
    Frobenius number 18b - 1 of {3, 9b + 1}, b = 10^4299.  Parsing outside
    input keeps the limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def emit(doc: dict[str, Any], fmt: str) -> None:
    """Write ``doc``, which holds only str, int, bool, None, dict, list
    and tuple, to stdout in ``fmt``, short pieces joined into writes of at
    most _WRITE_SIZE characters.  A longer piece is written alone: joining
    a list of one string returns that string, uncopied."""
    write, batch, size = sys.stdout.write, [], 0
    with unlimited_digits():
        for piece in _json_pieces(doc) if fmt == "json" else _more().WRITERS[fmt](doc):
            if batch and size + len(piece) > _WRITE_SIZE:
                write("".join(batch))
                batch, size = [], 0
            batch.append(piece)
            size += len(piece)
    if batch:
        write("".join(batch))


def _json_pieces(doc: dict[str, Any]) -> Iterator[str]:
    """``doc`` as json.dumps would write it.  Not json.dumps(doc): that
    holds the document, its escaped pieces, the joined string and its
    encoded bytes at once, several times the output at analyze's sizes.
    Each top-level value goes through the one-shot encoder on its own."""
    yield "{"
    for i, key in enumerate(sorted(doc)):
        yield f"{',' if i else ''}{to_json(key)}:"
        yield to_json(doc[key])
    yield "}\n"


# Every --format name: json is written here, the others by ``cli_more``.
_FORMATS = ("json", "tsv", "pretty")


# ---------------------------------------------------------------------------
# argument parsing

_ECHO_LIMIT = 40


def echo(text: str) -> str:
    """The rejected text for an error message, cut to a bounded prefix."""
    if len(text) <= _ECHO_LIMIT:
        return repr(text)
    return f"{text[:_ECHO_LIMIT]!r}... ({len(text)} characters)"


def _parse_gens(text: str) -> GeneratorSet:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise PreconditionError(f"could not parse generators from {echo(text)}") from None
    return as_generator_set(values)


def _parse_p_range(text: str) -> range:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise PreconditionError(f"could not parse p range from {echo(text)}") from None
        if lo < 0 or hi < lo:
            raise PreconditionError(f"invalid p range {echo(text)}")
        return range(lo, hi + 1)
    try:
        p = int(text)
    except ValueError:
        raise PreconditionError(f"could not parse p from {echo(text)}") from None
    if p < 0:
        raise PreconditionError("p must be non-negative")
    return range(p, p + 1)


def _parse_p(text: str) -> int:
    values = _parse_p_range(text)
    if len(values) != 1:
        raise PreconditionError("this command takes a single p, not a range")
    return values[0]


def _parse_fields(text: str) -> list[str]:
    fields = [f.strip() for f in text.split(",") if f.strip()]
    if not fields:
        raise PreconditionError("--field must name at least one field")
    return fields


# ---------------------------------------------------------------------------
# document builders

def analyze_document(gens: GeneratorSet, p: int, expand: bool = False) -> dict[str, Any]:
    """The scalars, the class minima and ``arf`` of one instance, and the
    F-sized sets that ``sets.analyze_sets`` renders from one member mask."""
    sp = build(gens, p)
    report = psemigroups.classify(sp)
    # The sets, then the scalars.  The own peak RSS of a fresh
    # {3001,3011,3019,3023} p 0 call moves by up to 2.7 MB with the heap's
    # layout, which comment lines alone change: over five layouts it was
    # 26.5-29.0 MB in this order and 28.6-29.3 MB with the scalars first
    # (2-core x86 VM, CPython 3.11)
    from . import sets

    finite_sets = sets.analyze_sets(sp, report.pf, expand)
    return {
        "p": p,
        **_row(sp, _TABLE_FIELDS, report),
        "generators": list(sp.generators.ordered),
        "modulus": sp.modulus,
        "apery_by_residue": list(sp.apery_by_residue),
        "apery_sorted": list(sp.apery_sorted),
        "kunz": list(sp.kunz),
        **finite_sets,
        "arf": psemigroups.is_arf(sp).passed,
    }


# Every scalar of one instance: analyze writes them all, table the ones
# asked for.  A field reads the instance or ``report()``, the row's one
# psemigroups.classify(sp); each library function is looked up when called,
# so that a wrapper put in its place is the one called.
# Each field reads only the instance: a run's row is made once, for all its p.
_TABLE_FIELDS: dict[str, Callable[[PSemigroup, Callable[[], Any]], Any]] = {
    "frobenius": lambda sp, report: sp.frobenius,
    "multiplicity": lambda sp, report: sp.multiplicity,
    "conductor": lambda sp, report: sp.conductor,
    "genus": lambda sp, report: gap_count(sp),
    "sylvester_sum": lambda sp, report: gap_sum(sp),
    "pattern": lambda sp, report: psemigroups.detect_pattern(sp),
    "type": lambda sp, report: len(report().pf),
    "symmetric": lambda sp, report: report().symmetric,
    "pseudo_symmetric": lambda sp, report: report().pseudo_symmetric,
    "almost_symmetric": lambda sp, report: report().almost_symmetric,
    "completely_symmetric": lambda sp, report: report().completely_symmetric,
}
_SYMMETRY_FLAGS = [field for field in _TABLE_FIELDS if field.endswith("symmetric")]


def _row(sp: PSemigroup, fields: Iterable[str], report: Any = None) -> dict[str, Any]:
    """``fields`` of the instance, whose classification is ``report``, or
    is made when a field first reads it."""
    def classified() -> psemigroups.SymmetryReport:
        nonlocal report
        report = report or psemigroups.classify(sp)
        return report
    return {f: _TABLE_FIELDS[f](sp, classified) for f in fields}


def table_document(gens: GeneratorSet, p_values: range, fields: list[str]) -> dict[str, Any]:
    for f in fields:
        if f not in _TABLE_FIELDS:
            raise PreconditionError(f"unknown field {f!r}; choose from {sorted(_TABLE_FIELDS)}")
    rows = [{"p": p, **row} for ps, sp in build_range(gens, p_values)
            for row in [_row(sp, fields)] for p in ps]
    return {"generators": list(gens.ordered), "rows": rows}


# ---------------------------------------------------------------------------
# commands

# A command's handler: its document and exit code from the parsed arguments.
_Handler = Callable[[argparse.Namespace], tuple[dict[str, Any], int]]


def verify_document(rows: list[Report]) -> tuple[dict[str, Any], int]:
    """The document of a verifier's rows and the exit code they give."""
    docs = [{"kind": r.kind, "passed": r.passed, "applicable": r.applicable, "note": r.note,
             **r.details} for r in rows]
    code = verify_exit_code(docs)
    return {"rows": docs, "passed": code == EXIT_OK}, code


def verify_exit_code(docs: list[dict[str, Any]]) -> int:
    """A verify run fails when some applicable row did not pass."""
    failed = any(doc["applicable"] and not doc["passed"] for doc in docs)
    return EXIT_VERIFIER_FAILED if failed else EXIT_OK


def _each(name: str) -> _Handler:
    """A verifier of one instance: one row per p of the --p range, its run's report."""
    return lambda a: verify_document([
        report for ps, sp in build_range(_parse_gens(a.gens), _parse_p_range(a.p))
        for report in [getattr(psemigroups, name)(sp)] for _ in ps
    ])


# The default of a flag that a command needs: argparse requires it.
_NEEDED = object()

# A command's flags besides --format: each with its type, its default and
# its help; type bool makes a switch.  The four commands need --p; a
# verifier's defaults to 0.
_COMMON = {
    "gens": (str, _NEEDED, "comma-separated generators, e.g. 4,5,6"),
    "p": (str, _NEEDED, "p value or range lo..hi"),
}
_INSTANCES = {"gens": (str, _NEEDED, None), "p": (str, "0", None)}
_SCALING = {"alpha": (int, _NEEDED, None), "beta": (int, _NEEDED, None), **_INSTANCES}

# Every command that runs: its help line in ``psg -h`` (None for a
# verifier, which ``psg verify -h`` does not list), its flags, and its
# handler, which parses --gens before --p.  Each verifier is looked up in
# the package when called: the package loads ``criteria``, ``arf``,
# ``identities`` and ``exactmath`` on first use, and a wrapper put in its
# place is the one called.
_COMMANDS: dict[str, tuple[str | None, dict[str, tuple[Any, Any, str | None]], _Handler]] = {
    "analyze": ("full report for one (gens, p)", {
        **_COMMON, "expand": (bool, False, "emit sets as integer arrays"),
    }, lambda a: (analyze_document(_parse_gens(a.gens), _parse_p(a.p), a.expand), EXIT_OK)),
    # --field is parsed before --p
    "table": ("per-p rows of selected fields", {
        **_COMMON, "field": (str, "frobenius", "comma-separated field names"),
    }, lambda a: (table_document(_parse_gens(a.gens), fields=_parse_fields(a.field),
                                 p_values=_parse_p_range(a.p)), EXIT_OK)),
    "classify": ("per-p symmetry flags", _COMMON, lambda a: (
        table_document(_parse_gens(a.gens), _parse_p_range(a.p), _SYMMETRY_FLAGS), EXIT_OK)),
    "sums": ("gap power sums (direct and from class minima)", {
        **_COMMON, "mu": (int, 3, "largest exponent to report"),
        "weight": (str, None, 'optional rational weight "num/den"'),
    }, lambda a: (_more().sums_document(
        _parse_gens(a.gens), _parse_p(a.p), a.mu, _more().parse_weight(a.weight)), EXIT_OK)),
    "verify johnson": (None, _SCALING, lambda a: verify_document(
        psemigroups.verify_johnson(a.alpha, a.beta, _parse_gens(a.gens), _parse_p_range(a.p)))),
    "verify watanabe": (None, _SCALING, lambda a: verify_document(
        psemigroups.verify_watanabe(a.alpha, a.beta, _parse_gens(a.gens), _parse_p_range(a.p)))),
    "verify gcd-scaling": (None, _INSTANCES, lambda a: verify_document(
        psemigroups.verify_gcd_scaling(_parse_gens(a.gens), _parse_p_range(a.p)))),
    "verify symmetry": (None, _INSTANCES, _each("verify_symmetry_equivalences")),
    "verify pairings": (None, _INSTANCES, _each("verify_apery_pairings")),
    "verify pf-consequences": (None, _INSTANCES, _each("verify_pf_consequences")),
    "verify almost-symmetric": (None, _INSTANCES, _each("verify_almost_symmetric_equivalences")),
    # defined at p = 0
    "verify nari": (None, {"gens": _INSTANCES["gens"]}, lambda a: verify_document(
        [psemigroups.verify_nari(_parse_gens(a.gens))])),
    # its p range is 0..--pmax
    "verify arf-heredity": (None, {
        "a": (int, _NEEDED, None), "b": (int, _NEEDED, None), "pmax": (int, 5, None),
    }, lambda a: verify_document([psemigroups.verify_arf_heredity(a.a, a.b, a.pmax)])),
    "verify arf-kunz": (None, _INSTANCES, _each("verify_arf_conductor_kunz")),
    "verify eulerian-gf": (None, {
        "exponent": (int, _NEEDED, None), "order": (int, _NEEDED, None),
    }, lambda a: verify_document(
        [psemigroups.verify_eulerian_gf(a.exponent, a.order)])),
}


class _Parser(argparse.ArgumentParser):
    """A parser that reports its own leftovers, with its own usage, and
    that runs ``grow`` on itself the first time argparse enters it, before
    it parses: a parser gets its flags, or the parsers below it, only when
    a call reaches it.  One that takes --weight first joins a negative
    value to it: argparse reads a token such as "-2/3" as a flag, so
    "--weight -2/3" would lose it."""

    def __init__(self, *args: Any, grow: Callable[[_Parser], None] | None = None, **kw: Any):
        super().__init__(*args, **kw)
        self._grow = grow

    def parse_known_args(self, args=None, namespace=None):
        grow, self._grow = self._grow, None
        if grow:
            grow(self)
        if "--weight" in self._option_string_actions:
            args = _more().join_negative_weight(args)
        namespace, foreign = super().parse_known_args(args, namespace)
        if foreign:
            self.error(f"unrecognized arguments: {' '.join(foreign)}")
        return namespace, foreign


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command name, none with a flag yet: only the
    parsers that argparse enters on a call's path grow, so ``psg -h``,
    ``psg verify -h`` and every usage error above a leaf read only the
    names below it, and a call makes one leaf's flags."""
    # the subcommands' parsers are made of the parser's own class
    parser = _Parser(prog="psg", description="Exact computations on p-numerical semigroups.")
    _add_names(parser, "")
    return parser


def _add_names(parser: _Parser, group: str) -> None:
    """Give ``parser`` a parser for each name in ``group`` ("" for the
    commands, "verify" for the verifiers), each growing its flags when
    entered; the commands end with verify, which grows the verifiers."""
    names = parser.add_subparsers(dest="name" if group else "command", required=True)
    for command, (help_line, *_) in _COMMANDS.items():
        head, _, name = command.rpartition(" ")
        # no abbreviations: --p would be read as arf-heredity's --pmax, --a
        # and --b as johnson's --alpha and --beta
        if head == group:
            names.add_parser(name, allow_abbrev=False,
                             grow=lambda leaf, command=command: _add_flags(leaf, command),
                             **({} if help_line is None else {"help": help_line}))
    if not group:
        names.add_parser("verify", help="run a named verifier",
                         grow=lambda verify: _add_names(verify, "verify"))


def _add_flags(leaf: _Parser, command: str) -> None:
    _, flags, handler = _COMMANDS[command]
    for flag, (kind, default, help_text) in flags.items():
        how = {"action": "store_true"} if kind is bool else {
            "type": kind, "required": default is _NEEDED}
        leaf.add_argument(f"--{flag}", default=default, help=help_text, **how)
    leaf.add_argument("--format", choices=_FORMATS, default="json")
    leaf.set_defaults(handler=handler)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        doc, code = args.handler(args)
        emit(doc, args.format)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so that
        # the interpreter's final flush of what is left cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


def run() -> NoReturn:
    """Run ``main`` on the process's arguments and exit with its code.
    Between the two, ``gc.freeze()`` moves every object left alive to the
    permanent generation, which the collection at interpreter shutdown
    does not walk: the process is about to give that heap back whole.
    atexit handlers and the final flush of stdout and stderr still run.
    ``main`` never freezes, so an in-process caller keeps collecting; an
    exception that escapes ``main`` propagates, and nothing is frozen."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
