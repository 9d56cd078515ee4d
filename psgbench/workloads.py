"""The benchmark's three workloads, as lists of ``psg`` invocations.

``ladder`` is the fixed instance ladder and ignores the seed.  ``mid-sweep``
and ``high-p`` draw their generator sets from the seed.  The p range of each
drawn invocation is fitted to a budget over F (computed by the benchmark's
own route in oracle.py), so that every seed asks for about the same work and
memory and the figures of different seeds stay comparable: ``table`` ranges
to a memory budget (it holds the workload's peak memory), the others to a
cost model.  Against plain fixed-width p windows drawn in the same bands,
the fitting cut the seed-to-seed IQR/median of one pass's wall time from
0.67 to 0.24 on high-p, and from 0.38 to 0.26 over mid-sweep's drawn
invocations (seeds 301-310, interleaved, 2-vCPU x86 VM).

Cost model, in units of one table entry filled during a build (about
0.2 us on a 2-core x86 VM, Python 3.11): a build costs F * (k + 2) (k count
stages plus the scans for minima, gaps and members); pseudo-Frobenius adds
F^2 / 5900 (one F-bit shift per member); each O(F) Python scan adds F.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd

from oracle import Instance, instances

DEFAULT_TIMEOUT_S = 120.0
# The 10^4 rung's classify cannot finish today: pseudo-Frobenius there is
# O(F^2/64) with F = 6.8e6.  It keeps its place in the ladder with a short
# timeout, so a later route that finishes in time turns it green.
LADDER_CLASSIFY_TIMEOUT_S = 5.0

# Per-invocation budgets: work in cost-model units, memory in summed F
# over the instances an invocation keeps cached.
MID_BUDGET = 2_000_000
MID_MEMORY = 440_000
HIGH_BUDGET = 3_500_000
HIGH_MEMORY = 800_000
# On high-p the table's peak RSS also grows with the last instance's F, by
# about 600 bytes per unit of F (max-RSS over seeds 11-16 against that F),
# some 18 units of memory_size; the fit counts it once per range.
HIGH_TOP_PER_F = 18
# Each fitted invocation's time still varies by about 5% between draws
# (the cost model's error); high-p sums several draws of each command so
# that this variation shrinks in its wall_s.
HIGH_DRAWS = 3
MID_P_MAX = 60
# Every drawn mid-sweep range ends at an F in this window, so that the
# cost model's error (it underrates the superlinear parts) is about the
# same on every seed.
MID_F_TOP = (18_000, 24_000)
# The weighted power sum with weight 1/2 has denominator 2^F; past
# F ~ 14300 it has more than 4300 decimal digits, which cli.fraction_str
# cannot print (Python's int->str limit).  The sums call is the same on
# every seed (F = 15334), so that known crash stays visible on each; its
# cost depends on the gap layout in ways no simple model follows.
SUMS = ("sums", "--gens", "151,157,163", "--p", "20", "--mu", "3", "--weight", "1/2")


@dataclass(frozen=True)
class KnownDefect:
    """A failure the program has today, excused only in its known form: the
    exit code (None: killed at the timeout) and, for a crash, the start of
    the traceback's last line.  Any other failure of the invocation counts
    against correctness."""

    reason: str
    exit: int | None
    error: str = ""

    def matches(self, outcome) -> bool:
        if outcome.exit != self.exit:
            return False
        if self.exit is None:
            return True
        lines = outcome.stderr.decode(errors="replace").strip().splitlines()
        traceback = b"Traceback (most recent call last)" in outcome.stderr
        return traceback and lines[-1].startswith(self.error)


LADDER_TIMEOUT = KnownDefect("timeout: quadratic-in-F pseudo-Frobenius at F = 6.8e6", None)
SUMS_CRASH = KnownDefect(
    "exit 1: weighted-sum denominator exceeds the 4300-digit int->str limit",
    1,
    "ValueError: Exceeds the limit (4300 digits) for integer string conversion",
)


@dataclass(frozen=True)
class Invocation:
    """One ``psg`` call plus what the checks need to know about it."""

    argv: tuple[str, ...]
    gens: tuple[int, ...]
    p_values: tuple[int, ...]
    timeout: float = DEFAULT_TIMEOUT_S
    known_defect: KnownDefect | None = None

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv[0] != "verify" else f"verify {self.argv[1]}"

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _prange(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}..{hi}"


def _inv(head: list[str], gens, lo: int, hi: int, extra=(), **kw) -> Invocation:
    argv = (*head, "--gens", _csv(gens), "--p", _prange(lo, hi), *extra)
    return Invocation(argv, tuple(gens), tuple(range(lo, hi + 1)), **kw)


def ladder(seed: int) -> list[Invocation]:
    """ROADMAP's instance ladder, one deep invocation per rung."""
    del seed
    big = (10007, 10009, 10037)
    return [
        _inv(["analyze"], (1009, 1013, 1019), 50, 50),
        _inv(["analyze"], (3001, 3011, 3019, 3023), 0, 0),
        _inv(["table"], big, 0, 0, ("--field", "frobenius,genus")),
        _inv(
            ["classify"], big, 0, 0,
            timeout=LADDER_CLASSIFY_TIMEOUT_S,
            known_defect=LADDER_TIMEOUT,
        ),
    ]


def build_cost(inst: Instance) -> int:
    return inst.frobenius * (inst.k + 2)


def pf_cost(inst: Instance) -> int:
    return build_cost(inst) + inst.frobenius ** 2 // 5900 + 2 * inst.frobenius


def scan_cost(inst: Instance) -> int:
    return build_cost(inst) + 3 * inst.frobenius


def memory_size(inst: Instance) -> int:
    """Memory proxy: a cached instance holds its gaps and its members below
    F as tuples of ints, about 34 bytes an entry, and its members again in
    a frozenset, about 30 more."""
    return 2 * inst.frobenius - inst.genus


def _fit_range(gens, lo_min: int, p_max: int, cost, budget: int, f_top=None, max_len: int = 512, top_cost=None):
    """(lo, hi) with lo_min <= lo <= hi <= p_max and at most max_len values
    whose summed cost, plus ``top_cost`` of the instance at hi if given, is
    closest to the budget, and, given ``f_top``, with F at hi inside that
    window.  The first hi within 0.5% wins.  None when no range comes
    within 5%."""
    insts = instances(gens, list(range(lo_min, p_max + 1)))
    prefix = [0]
    for inst in insts:
        prefix.append(prefix[-1] + cost(inst))
    best = None
    for end, inst in enumerate(insts, 1):
        if f_top and not f_top[0] <= inst.frobenius <= f_top[1]:
            continue
        want = budget - (top_cost(inst) if top_cost else 0)
        cut = bisect_left(prefix, prefix[end] - want, max(0, end - max_len), end)
        for lo in (cut - 1, cut):
            if max(0, end - max_len) <= lo < end:
                err = abs(prefix[end] - prefix[lo] - want) / budget
                if best is None or err < best[0]:
                    best = (err, lo + lo_min, end - 1 + lo_min)
        if best and best[0] < 0.005:
            break
    return best[1:] if best and best[0] < 0.05 else None


def _draw_gens(rng: random.Random, a_lo: int, a_hi: int, k: int) -> tuple[int, ...]:
    """k generators from [a, 2a): no element is a combination of others,
    so the set is a minimal generating system."""
    while True:
        a = rng.randint(a_lo, a_hi)
        gens = (a, *sorted(rng.sample(range(a + 1, 2 * a), k - 1)))
        if gcd(*gens) == 1:
            return gens


def _draw_fitted(rng, draw, lo_min, p_max, cost, budget, f_top=None, top_cost=None):
    """Draw generator sets until one has a p range that fits."""
    while True:
        gens = draw(rng)
        if f_top and instances(gens, [0])[0].frobenius > f_top[1]:
            continue
        fit = _fit_range(gens, lo_min, p_max, cost, budget, f_top, top_cost=top_cost)
        if fit:
            return gens, fit


def _draw_gcd_scaling(rng: random.Random) -> tuple[int, ...]:
    """(a1, d*b1, d*b2) with gcd(b1, b2) = 1 and gcd(a1, d) = 1."""
    while True:
        d = rng.choice((2, 3))
        a1 = rng.randint(170, 290)
        rest = sorted(rng.sample(range(a1 // d + 1, 2 * a1 // d), 2))
        if gcd(a1, d) == 1 and gcd(*rest) == 1 and min(rest) >= 2:
            return (a1, *(d * b for b in rest))


def _draw_johnson(rng: random.Random) -> tuple[int, int, tuple[int, ...]]:
    """alpha = sum of two base generators (so it lies in the base's
    semigroup and is not a base generator), beta coprime to alpha."""
    while True:
        base = _draw_gens(rng, 60, 150, 3)
        alpha = sum(rng.sample(base, 2))
        beta = rng.choice((2, 3))
        if gcd(alpha, beta) == 1 and alpha not in [beta * b for b in base]:
            return alpha, beta, base


def mid_sweep(seed: int) -> list[Invocation]:
    """k in {3, 4}, least generator 100..300, p ranges within 0..60: many
    cold builds per invocation, a*p << F.  Each command has a fixed k, and
    its p range is fitted to a cost budget; the table's range is fitted to
    a memory budget instead, so that it holds the workload's peak memory
    on every seed."""
    rng = random.Random(f"mid-sweep/{seed}")

    def fitted(draw, cost, budget=MID_BUDGET):
        return _draw_fitted(rng, draw, 0, MID_P_MAX, cost, budget, MID_F_TOP)

    # Least-generator bands where each k reaches the F window for p <= 60.
    def k3(r):
        return _draw_gens(r, 110, 210, 3)

    def k4(r):
        return _draw_gens(r, 230, 300, 4)

    out = []
    gens, (lo, hi) = fitted(k3, memory_size, MID_MEMORY)
    fields = ("--field", "frobenius,multiplicity,conductor,genus,sylvester_sum")
    out.append(_inv(["table"], gens, lo, hi, fields))
    gens, (lo, hi) = fitted(k4, pf_cost)
    out.append(_inv(["classify"], gens, lo, hi))
    gens, (lo, hi) = fitted(k3, scan_cost)
    out.append(_inv(["verify", "symmetry"], gens, lo, hi))
    gens, (lo, hi) = fitted(k4, pf_cost)
    out.append(_inv(["verify", "pairings"], gens, lo, hi))
    gens, (lo, hi) = fitted(k3, scan_cost)
    out.append(_inv(["verify", "arf-kunz"], gens, lo, hi))
    gens, (lo, hi) = fitted(_draw_gcd_scaling, lambda i: 3 * build_cost(i))
    out.append(_inv(["verify", "gcd-scaling"], gens, lo, hi))
    while True:
        alpha, beta, base = _draw_johnson(rng)
        scaled = (alpha, *(beta * b for b in base))
        fit = _fit_range(scaled, 0, MID_P_MAX, lambda i: 2 * build_cost(i), MID_BUDGET, MID_F_TOP)
        if fit:
            break
    lo, hi = fit
    extra = ("--alpha", str(alpha), "--beta", str(beta), "--gens", _csv(base), "--p", _prange(lo, hi))
    out.append(Invocation(("verify", "johnson", *extra), scaled, tuple(range(lo, hi + 1))))
    out.append(
        Invocation(SUMS, (151, 157, 163), (20,), known_defect=SUMS_CRASH)
    )
    return out


def high_p(seed: int) -> list[Invocation]:
    """Least generator 6..25, p from 1000 up, at most 512 values (the build
    cache's size): a*p >> F and small F.  HIGH_DRAWS tables and classifies,
    in turn.  The tables' ranges are fitted to a memory budget (they hold
    the workload's peak memory), the classifies' to a cost budget."""
    rng = random.Random(f"high-p/{seed}")

    def draw(k):
        return lambda r: _draw_gens(r, 6, 25, k)

    out = []
    for _ in range(HIGH_DRAWS):
        gens, (lo, hi) = _draw_fitted(
            rng, draw(3), 1000, 6000, memory_size, HIGH_MEMORY, top_cost=lambda i: HIGH_TOP_PER_F * i.frobenius
        )
        out.append(_inv(["table"], gens, lo, hi, ("--field", "frobenius,genus")))
        gens, (lo, hi) = _draw_fitted(rng, draw(4), 1000, 6000, lambda i: pf_cost(i) + 200, HIGH_BUDGET)
        out.append(_inv(["classify"], gens, lo, hi))
    return out


WORKLOADS = {"ladder": ladder, "mid-sweep": mid_sweep, "high-p": high_p}
