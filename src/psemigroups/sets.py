"""The F-sized sets of a built instance and their run-length text.

The gaps, the members and the mirror sets H, L and K (the mirror of x is
total - x, total = frobenius + multiplicity) are read off one build of
the membership digits, as bitmasks; a finite set serializes as
run-length interval text ("181-191,200-210") or, expanded, as its
ascending elements.  Only ``analyze`` and ``PSemigroup.gaps`` read them,
so the package loads this module on first use: every other command reads
the class minima alone.
"""

from __future__ import annotations

from itertools import accumulate, compress, count, islice
from typing import Any, Iterator, Sequence

from .denumerant import charge
from .semigroup import PSemigroup

_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_SPLIT_WINDOW = 1 << 16
_JOIN_RUNS = 8192


def _member_flags(sp: PSemigroup, length: int) -> bytearray:
    """One ASCII digit per n < length: "1" for a member, "0" for a gap.
    Every F-sized structure starts here, so the ``length`` bytes are
    charged against the cap before they are allocated."""
    charge(length, "bytes of membership flags")
    a, flags = sp.modulus, bytearray(b"0") * length
    for m in sp.apery_by_residue:
        if m < length:
            flags[m::a] = b"1" * len(range(m, length, a))
    return flags


def gap_tuple(sp: PSemigroup) -> tuple[int, ...]:
    """``PSemigroup.gaps``: the membership flags below the conductor, read
    at C level, each "0" a true byte."""
    flags = _member_flags(sp, sp.conductor)
    outside = flags.translate(bytes.maketrans(b"01", b"\x01\x00"))
    return tuple(compress(range(sp.conductor), outside))


def hlk_of_members(sp: PSemigroup) -> tuple[int, int, int]:
    """Bitmasks over [0, total], total = frobenius + multiplicity, of the
    members, of H and of L, from one build of the membership digits.

    H is the x whose mirror total - x is a member, L the x with both sides
    outside; K, the x whose mirror is a gap, is the clear bits of H below
    total + 1 and every integer above.  Reversed, the digits read as the
    member mask; as they stand, as the mirror's, which is H: past frobenius
    the mirror lands below the multiplicity, where no member lies.  A
    negative x needs no bit: it is outside, and its mirror is a member.
    """
    length = sp.frobenius + sp.multiplicity + 1
    digits = _member_flags(sp, length)
    members, mirror = int(digits[::-1], 2), int(digits, 2)
    return members, mirror, ((1 << length) - 1) & ~(members | mirror)


def bit_positions(mask: int) -> Iterator[int]:
    """The set bits of a non-negative mask, ascending, lazily.  ``compress``
    takes one C step per binary digit, splitting the digits at each "1" one
    per set bit; the split is taken when under a sixth of them are set."""
    if 6 * mask.bit_count() < mask.bit_length():
        return _split_positions(mask)
    return _compress_positions(mask)


def _compress_positions(mask: int) -> Iterator[int]:
    return compress(count(), bin(mask)[:1:-1].encode().translate(_FROM_DIGITS))


def _split_positions(mask: int) -> Iterator[int]:
    """Window w of the digits, reversed ("0b" ends at index 1), splits into the
    runs of "0" before each set bit and after the last; a set bit is w - 1 plus
    the running sum of their lengths plus one.  One window is alive at once."""
    digits = bin(mask)
    for w, end in zip(count(0, _SPLIT_WINDOW), range(len(digits) - 1, 1, -_SPLIT_WINDOW)):
        zero_runs = digits[end : max(end - _SPLIT_WINDOW, 1) : -1].split("1")
        ends = accumulate(map((1).__add__, map(len, zero_runs)), initial=w - 1)
        yield from islice(ends, 1, len(zero_runs))
        del zero_runs, ends  # before the next window is split


def mask_runs(mask: int) -> str:
    """Run-length rendering of the finite set whose members are the set
    bits of ``mask``: "0-23,25,27".  The set bits of mask ^ (mask << 1)
    are the run boundaries, alternately a run's first element and the
    integer just past its last."""
    return ",".join(_runs_text(chunk[::2], chunk[1::2]) for chunk in _edge_chunks(mask))


def _edge_chunks(mask: int) -> Iterator[list[int]]:
    """The run boundaries of ``mask``, ascending, _JOIN_RUNS at a time, so
    that at most that many run strings are alive at once."""
    edges = bit_positions(mask ^ (mask << 1))
    return iter(lambda: list(islice(edges, _JOIN_RUNS)), [])


def _runs_text(firsts: list[int], stops: list[int]) -> str:
    """The runs [first, stop) that are not empty, one formatted string each."""
    return ",".join(
        str(first) if stop - first == 1 else f"{first}-{stop - 1}"
        for first, stop in zip(firsts, stops) if first < stop
    )


def finite_set_doc(mask: int, expand: bool) -> Any:
    """A finite set, given as the bitmask of its elements."""
    return list(bit_positions(mask)) if expand else mask_runs(mask)


def sorted_set_doc(values: Sequence[int], expand: bool) -> Any:
    """``finite_set_doc`` of a small set given as its ascending elements,
    in steps of its size: a run ends where the next element is not one
    more."""
    if expand:
        return list(values)
    if not values:
        return ""
    breaks = [i for i in range(1, len(values)) if values[i] != values[i - 1] + 1]
    firsts = [values[i] for i in [0, *breaks]]
    return _runs_text(firsts, [values[i - 1] + 1 for i in [*breaks, len(values)]])


def split_docs(mask: int, length: int, expand: bool) -> tuple[Any, Any]:
    """``finite_set_doc`` of the set bits of ``mask`` and of its clear bits
    below ``length``, run texts from one scan of their shared boundaries."""
    if expand:
        return list(bit_positions(mask)), list(bit_positions(~mask & ((1 << length) - 1)))
    set_texts, clear_texts, stop = [], [], 0
    for chunk in _edge_chunks(mask):
        set_texts.append(_runs_text(chunk[::2], chunk[1::2]))
        clear_texts.append(_runs_text([stop, *chunk[1:-1:2]], chunk[::2]))
        stop = chunk[-1]
    clear_texts.append(_runs_text([stop], [length]))
    return ",".join(set_texts), ",".join(filter(None, clear_texts))
