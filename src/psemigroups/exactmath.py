"""Exact special-number arithmetic: Bernoulli numbers, Eulerian numbers, a
truncated-power-series check of the Eulerian generating function, and the
one set of rational power-sum rows, ``weighted_power_sums``, whose series
read the Eulerian numbers.  The weighted rows are charged and summed here
alone; the unweighted rows are integers from ``semigroup``, the build
layer, which imports nothing from this module.

Every value here is an ``int`` or a ``fractions.Fraction``; nothing rounds.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Iterable

from .denumerant import charge
from .errors import PreconditionError
from .reports import Report
from .semigroup import PSemigroup, check_power, class_power_sums

if TYPE_CHECKING:
    from fractions import Fraction

# A B-bit integer prints to decimal, or is built from B-bit products and
# reduced by a gcd, in about (B / _PRINT_BITS)^2 times the time of a
# 4096-bit Horner step: CPython's int -> str and gcd are quadratic, and its
# Karatsuba products not far below.
_PRINT_BITS = 512


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


def _charge_weighted(sp: PSemigroup, rows: int, top: int) -> None:
    """Charge the ``weighted_power_sums`` rows mu < rows over ``sp`` for a
    weight num/den, top = max(|num|, den): a Horner pass over the a sorted
    minima, each of whose steps works on an integer of up to M * L bits,
    M the largest minimum and L = log2(top); row mu built as one integer
    of up to ((mu + 1) * a + M) * L bits; and its numerator and
    denominator, of up to F * L bits each, printed.  The cap counts all
    three, for every row, in 4096-bit blocks: a steps of M * L / 4096
    blocks rounded up, and, since products, gcd and printing are about
    quadratic in CPython, (bits / _PRINT_BITS)^2 rounded up for the
    unreduced row and for each printed integer, with L read to 1/64 bit
    from the top 128 bits, rounded up (exact up to 128 bits)."""
    shift = max(0, top.bit_length() - 128)
    log64 = (((top >> shift) + (shift > 0)) ** 64).bit_length() + 64 * shift
    a, last = sp.modulus, sp.apery_sorted[-1]

    def squared(n: int) -> int:  # blocks of an n * L-bit integer's quadratic work
        return (-(-n * log64 // (64 * _PRINT_BITS))) ** 2

    steps = a * -(-last * log64 // (64 * 4096))
    prints = 2 * squared(sp.frobenius)  # numerator, denominator
    unreduced = sum(squared((mu + 1) * a + last) for mu in range(rows))
    charge(
        rows * (steps + prints) + unreduced,
        f"4096-bit blocks of weighted sums over F = {sp.frobenius}",
    )


def weighted_power_sums(sp: PSemigroup, mu_max: int, weight: Fraction | int) -> list[Fraction]:
    """Rows mu = 0..mu_max of the sum over the gaps of weight^n * n^mu
    (0^0 = 1), for a non-zero rational weight, read off the class minima.
    The exponent is checked and the rows are charged before any row is
    summed.  Unlike ``semigroup.gap_power_sums`` no row is checked against
    a second route; ``tests/oracles.py`` walks the gaps for them.

    With z = weight^a, class j's weighted gaps sum to G(j) - G(m_j),
    G(x) = sum over t >= 0 of weight^(x + t*a) * (x + t*a)^mu, a rational
    function of z, so

        W_mu = sum_e C(mu, e) a^e S_e(z) (sum_(j<a) weight^j j^(mu-e)
                                          - sum_j weight^(m_j) m_j^(mu-e))

    with S_e(z) = sum_t t^e z^t: 1/(1 - z) at e = 0, z A_e(z)/(1 - z)^(e+1)
    with A_e the Eulerian polynomial beyond (Komatsu and Zhang's weighted
    Sylvester sums).  The sums over the minima share the denominator
    den^M, M the largest minimum, and are one integer Horner pass over the
    a sorted minima for every row.  With weight num/den, u = num^a and
    v = den^a, z = u/v and S_e(z) = v * N_e / (v - u)^(e+1), N_0 = 1 and
    N_e = sum_m <e, m> u^(m+1) v^(e-1-m), so row mu is one integer over
    (v - u)^(mu+1) * den^M.  At z = 1 (weight 1, or -1 with a even)
    weight^(j + t*a) = weight^j, and each weighted row is the direct sums
    of the classes weighed by weight^j."""
    from fractions import Fraction

    check_power(mu_max)
    num, den = Fraction(weight).as_integer_ratio()
    if num == 0:
        raise PreconditionError("weight must be non-zero")
    rows = mu_max + 1
    _charge_weighted(sp, rows, max(abs(num), den))
    a = sp.modulus
    u, v = num**a, den**a
    if u == v:
        return list(map(Fraction, class_power_sums(sp, rows, num)))
    last = sp.apery_sorted[-1]
    lows = _horner(range(a), num, den, rows)  # over den^(a - 1)
    highs = _horner(sp.apery_sorted, num, den, rows)  # over den^last
    scale = den ** (last - a + 1)
    brackets = [scale * low - high for low, high in zip(lows, highs)]
    series = [1] + [
        sum(count * u ** (m + 1) * v ** (e - 1 - m) for m, count in enumerate(eulerian_row(e)))
        for e in range(1, rows)
    ]
    w = v - u
    weighted = []
    for mu in range(rows):
        terms = (
            comb(mu, e) * a**e * series[e] * w ** (mu - e) * brackets[mu - e] for e in range(mu + 1)
        )
        weighted.append(Fraction(v * sum(terms), w ** (mu + 1) * den**last))
    return weighted


def _horner(points: Iterable[int], num: int, den: int, rows: int) -> list[int]:
    """Rows d < rows of the sum of num^x * den^(last - x) * x^d over the
    ascending ``points``, last the largest, by Horner's rule: each step
    multiplies the running sums by den^(x - prev) and the shared num^x by
    num^(x - prev)."""
    sums, num_power, prev = [0] * rows, 1, 0
    for x in points:
        den_step = den ** (x - prev)
        num_power *= num ** (x - prev)
        sums = [s * den_step + num_power * x**d for d, s in enumerate(sums)]
        prev = x
    return sums
