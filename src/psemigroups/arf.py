"""Closure of a built instance under x + y - z for members x >= y >= z,
plus the structural consequences for class minima and their quotients."""

from __future__ import annotations

from .denumerant import as_generator_set, charge
from .errors import PreconditionError
from .reports import Report, verdicts_report
from .semigroup import PSemigroup, build, build_range


def is_arf(sp: PSemigroup) -> Report:
    """Check x + y - z membership for members x >= y >= z, read off the
    class minima m.  ``passed`` is the closure verdict; the ``witness``
    detail is a failing triple (x, y, z) with x >= y >= z, all members,
    x + y - z outside, and is None exactly when the instance is closed.

    Pairs (y, z) are grouped by their difference t: some triple with that
    difference fails iff some member x at or above the least such y has
    x + t outside.  Difference 0 never fails, and only t below the modulus
    a is scanned: each residue class is closed upward under +a, so a
    failing (x, y, z) with y - z = t >= a gives a failing (x, y, z + a),
    and the first failing t and its witness are those of a scan over
    every t.  The least y is min over classes j of max(m_j, m_(j-t) + t),
    and in class j only its least member x_j >= y can fail, iff x_j + t
    is below m_(j+t), and so a gap.  So the scan costs O(a * t*), t* the
    first failing difference, charged before each t.
    """
    a, m = sp.modulus, sp.apery_by_residue
    for t in range(1, a):
        charge(a * t, f"class steps of the Arf scan to difference {t}")
        y = min(map(max, m, [v + t for v in m[-t:] + m[:-t]]))
        firsts = map(max, m, [y + (j - y) % a for j in range(a)])
        fails = [x for x, bound in zip(firsts, m[t:] + m[:t]) if x + t < bound]
        if fails:
            witness = (min(fails), y, y - t)
            return Report("closure", passed=False, details={"witness": witness})
    return Report("closure", passed=True, details={"witness": None})


def verify_arf_heredity(a: int, b: int, p_max: int) -> Report:
    """If the two-generator instance at p = 0 is closed, every instance up
    to p_max must be closed as well.  Reported as not applicable when the
    base instance is not closed."""
    if p_max < 0:
        raise PreconditionError("p_max must be non-negative")
    gens = as_generator_set((a, b))
    base = is_arf(build(gens, 0))
    if not base.passed:
        note = f"base instance is not closed (witness {base.details['witness']})"
        return verdicts_report("arf-heredity", {}, True, False, note)
    verdicts = {"p=0": base.passed} | {
        f"p={p}": closed for ps, sp in build_range(gens, range(1, p_max + 1))
        for closed in [is_arf(sp).passed] for p in ps
    }
    return verdicts_report("arf-heredity", verdicts, all(verdicts.values()))


def verify_arf_conductor_kunz(sp: PSemigroup) -> Report:
    """For a closed instance the class minima next to the zero class are
    pinned by the conductor c and its residue r modulo a:

        minimum of class 1:    c + 1 if r = 0, else c - r + a + 1
        minimum of class a-1:  c - r + a - 1

    and the matching coordinate quotients are ceil(c/a) and floor(c/a).
    Passes when the instance is closed and all four checks hold; reported
    as not applicable, and not passed, when the instance is not closed.
    """
    closure = is_arf(sp)
    closed = closure.passed
    apery_checks = kunz_checks = None
    if closed:
        a, c = sp.modulus, sp.conductor
        r = c % a
        apery_checks = (
            sp.apery_by_residue[1] == (c + 1 if r == 0 else c - r + a + 1),
            sp.apery_by_residue[a - 1] == c - r + a - 1,
        )
        kunz_checks = (sp.kunz[1] == -(-c // a), sp.kunz[a - 1] == c // a)
    return Report(
        "arf",
        passed=closed and all(apery_checks) and all(kunz_checks),
        applicable=closed,
        note="" if closed else "not applicable: instance is not closed under x + y - z",
        details={
            "is_arf": closed,
            "witness": closure.details["witness"],
            "apery_checks": apery_checks,
            "kunz_checks": kunz_checks,
        },
    )
