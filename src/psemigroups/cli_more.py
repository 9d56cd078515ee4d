"""The parts of the ``psg`` command that only some calls run: the tsv and
pretty writers, and the ``sums`` document with its weight.  ``cli``
imports this module on first use, so that a json call of ``table``,
``classify``, ``analyze`` or ``verify`` never compiles it.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from .cli import echo, to_json, unlimited_digits
from .denumerant import GeneratorSet
from .errors import PreconditionError
from .semigroup import build, gap_power_sums

if TYPE_CHECKING:
    from fractions import Fraction


# ---------------------------------------------------------------------------
# the tsv and pretty writers

def _tsv_lines(doc: dict[str, Any]) -> Iterator[str]:
    """One "key<TAB>value" line per key but "rows", which every command
    that has one makes a non-empty list of dicts: it is written as a table
    below the other keys."""
    # a line and its newline apart, so that a long line is not copied to end it
    for k in sorted(doc):
        if k != "rows":
            yield f"{k}\t{_scalar(doc[k])}"
            yield "\n"
    if "rows" in doc:
        rows = doc["rows"]
        columns = sorted(rows[0])
        for lead in ("mu", "p"):
            if lead in columns:
                columns.remove(lead)
                columns.insert(0, lead)
        yield "\t".join(columns) + "\n"
        for row in rows:
            yield "\t".join(_scalar(row.get(c)) for c in columns)
            yield "\n"


def _scalar(value: Any) -> str:
    return to_json(value) if isinstance(value, (dict, list, tuple)) else str(value)


def _pretty_lines(value: Any, indent: int = 0) -> Iterator[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list, tuple)) and v:
                yield f"{pad}{k}:\n"
                yield from _pretty_lines(v, indent + 1)
            else:
                yield f"{pad}{k}: {_scalar(v)}\n"
    else:  # a list or tuple: both branches write every scalar inline
        for v in value:
            if isinstance(v, (dict, list, tuple)):
                yield f"{pad}-\n"
                yield from _pretty_lines(v, indent + 1)
            else:
                yield f"{pad}- {_scalar(v)}\n"


# Every output format but json, by its --format name.
WRITERS = {"tsv": _tsv_lines, "pretty": _pretty_lines}


# ---------------------------------------------------------------------------
# sums

# Python's default int <-> str digit limit.  An exponent as in "1e-300000"
# would expand to that many digits when parsed, so it is refused first.
_WEIGHT_DIGITS = 4300
_WEIGHT_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z"
_NEGATIVE_VALUE = r"-[\d.]"


def parse_weight(text: str | None) -> Fraction | None:
    """The weight, refused when its numerator or denominator has more than
    _WEIGHT_DIGITS digits; an exponent past that is refused unexpanded."""
    if text is None:
        return None
    from fractions import Fraction

    exponent = re.search(_WEIGHT_EXPONENT, text)
    try:
        too_long = exponent is not None and abs(int(exponent[1])) > _WEIGHT_DIGITS
        weight = None if too_long else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"could not parse weight from {echo(text)}") from None
    if weight is None or max(abs(weight.numerator), weight.denominator) >= 10**_WEIGHT_DIGITS:
        raise PreconditionError(
            f"weight {echo(text)} has more than {_WEIGHT_DIGITS} digits"
            " in its numerator or denominator"
        )
    return weight


def join_negative_weight(argv: Sequence[str]) -> list[str]:
    """``argv`` with a value of --weight that argparse would read as a flag,
    such as "-2/3", joined to it: "--weight=-2/3"."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] == "--weight" and re.match(_NEGATIVE_VALUE, token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _ratio(value: Fraction) -> str:
    """``value`` as "num/den", "N/1" when integral."""
    with unlimited_digits():
        return f"{value.numerator}/{value.denominator}"


def sums_document(
    gens: GeneratorSet, p: int, mu_max: int, weight: Fraction | None
) -> dict[str, Any]:
    """Rows mu = 0..mu_max from one instance.  Given a weight,
    ``exactmath.weighted_power_sums`` runs first, so that a refused
    exponent, weight or charge ends the call before any row is summed;
    the weight and each row's ``weighted`` are written by ``_ratio``.
    ``gap_power_sums`` refuses a negative exponent or one past its cap,
    reads the rows off the class minima and checks each against the
    Bernoulli formula: the checked value is both ``direct`` and
    ``from_apery``."""
    sp = build(gens, p)
    doc: dict[str, Any] = {"generators": list(gens.ordered), "p": p}
    if weight is not None:
        from .exactmath import weighted_power_sums

        weighted = list(map(_ratio, weighted_power_sums(sp, mu_max, weight)))
        doc["weight"] = _ratio(weight)
    rows = []
    for mu, total in enumerate(gap_power_sums(sp, mu_max)):
        row: dict[str, Any] = {"mu": mu, "direct": total, "from_apery": total}
        if weight is not None:
            row["weighted"] = weighted[mu]
        rows.append(row)
    doc["rows"] = rows
    return doc
