"""Exact arithmetic for p-numerical semigroups.

Members are the non-negative integers whose representation count over a
fixed generator list exceeds p; the package computes the class minima
(Apery data), gaps, power sums, pseudo-Frobenius sets, symmetry
classifications, closure properties, and verifies the scaling identities
relating different generator lists.

``symmetry`` (the classification and the layout pattern), ``criteria``
(the symmetry verifiers), ``arf``, ``identities`` and ``exactmath`` (with
the rational power-sum rows) load on first use of one of their names, so
that a command that needs none of them does not import them; ``sets``,
the F-sized sets and their text, loads when ``analyze`` first reads it.
"""

from .denumerant import DenumerantTable, GeneratorSet, as_generator_set, denumerant, horizon_cap
from .errors import CapExceededError, InternalCheckError, PreconditionError
from .reports import Report
from .semigroup import PSemigroup, build, build_range, gap_count, gap_power_sums, gap_sum

# the names that load their module on first use, by module
_LAZY = {
    "symmetry": (
        "SymmetryReport", "classify", "pseudo_frobenius", "PATTERN_FULL_INTERVAL",
        "PATTERN_OTHER", "PATTERN_SINGLETON_PLUS_TAIL", "detect_pattern",
    ),
    "criteria": (
        "verify_almost_symmetric_equivalences", "verify_apery_pairings", "verify_nari",
        "verify_pf_consequences", "verify_symmetry_equivalences",
    ),
    "arf": ("is_arf", "verify_arf_conductor_kunz", "verify_arf_heredity"),
    "identities": (
        "is_minimal_generator_system", "minima_modulo", "verify_gcd_scaling",
        "verify_johnson", "verify_watanabe",
    ),
    "exactmath": (
        "bernoulli", "eulerian", "verify_eulerian_gf", "weighted_power_sums",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([
    "CapExceededError", "DenumerantTable", "GeneratorSet", "InternalCheckError",
    "PSemigroup", "PreconditionError", "Report", "as_generator_set", "build",
    "build_range", "denumerant", "gap_count", "gap_power_sums", "gap_sum", "horizon_cap",
    *_MODULE_OF,
])


def __getattr__(name: str) -> object:
    """Import a module of ``_LAZY`` when one of its names (or the module
    itself) is first asked for.  A function name is read from its module
    on each access, not kept here, so that a wrapper put in the module in
    its place is the one returned."""
    module = _MODULE_OF.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that -X importtime logs it
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    return value if name == module else getattr(value, name)
