"""Exact special-number arithmetic: Bernoulli numbers, Eulerian numbers, and
a truncated-power-series check of the Eulerian generating function.

Every value here is an ``int`` or a ``fractions.Fraction``; nothing rounds.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

from .denumerant import charge
from .errors import PreconditionError
from .reports import Report

if TYPE_CHECKING:
    from fractions import Fraction


def bernoulli_row(n: int) -> list[Fraction]:
    """Bernoulli numbers B_0 .. B_n under the x/(e^x - 1) convention, so
    B_1 = -1/2, from the recurrence sum_{k=0}^{m} C(m+1, k) B_k = 0 for
    m >= 1, anchored at B_0 = 1."""
    from fractions import Fraction

    if n < 0:
        raise PreconditionError("Bernoulli index must be non-negative")
    row = [Fraction(1)]
    for m in range(1, n + 1):
        row.append(-sum(comb(m + 1, k) * b for k, b in enumerate(row)) / (m + 1))
    return row


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2 (see ``bernoulli_row``)."""
    return bernoulli_row(n)[n]


def eulerian(n: int, m: int) -> int:
    """Eulerian number <n, m>; zero for m outside the triangle.

    Recurrence: <n, m> = (m+1) <n-1, m> + (n-m) <n-1, m-1>, with <0, 0> = 1.
    """
    if n < 0:
        raise PreconditionError("Eulerian row index must be non-negative")
    if not 0 <= m < max(n, 1):  # row 0 is [1]
        return 0
    return eulerian_row(n)[m]


def eulerian_row(n: int) -> list[int]:
    """Row n of the Eulerian triangle: entries m = 0 .. n-1 for n >= 1 and
    [1] for n = 0, built from row 0 keeping only the previous row."""
    row = [1]
    for r in range(1, n + 1):
        padded = [0, *row, 0]
        row = [(i + 1) * padded[i + 1] + (r - i) * padded[i] for i in range(r)]
    return row


def verify_eulerian_gf(n: int, order: int) -> Report:
    """Check the Eulerian generating-function identity as truncated series.

    Compares (1 - x)^(n+1) * sum_{k=0}^{order} k^n x^k against
    sum_m <n, m> x^(m+1) coefficient-wise on every degree <= order - n - 1,
    where truncation cannot have disturbed the product.  The
    ``first_mismatch`` detail is the least degree that differs, or None.
    The horizon cap bounds its (order + 1) * (n + 2) products, each
    counted once per 4096 bits of its n * log2(order)-bit terms (about
    the cost of one count-table entry), so that it bounds time as well.
    """
    if n < 1:
        raise PreconditionError("series exponent n must be positive")
    if order < n + 2:
        raise PreconditionError("truncation order must be at least n + 2")
    blocks = -(-n * order.bit_length() // 4096)  # 4096-bit blocks per term, rounded up
    charge((order + 1) * (n + 2) * blocks, f"4096-bit blocks of series to order {order} at n = {n}")
    source = [k**n for k in range(order + 1)]
    binom = [(-1) ** i * comb(n + 1, i) for i in range(n + 2)]
    row = eulerian_row(n)
    for degree in range(order - n):
        lhs = sum(
            binom[i] * source[degree - i] for i in range(min(degree, n + 1) + 1)
        )
        rhs = row[degree - 1] if 1 <= degree <= n else 0
        if lhs != rhs:
            return Report("series", passed=False, details={"first_mismatch": degree})
    return Report("series", passed=True, details={"first_mismatch": None})
