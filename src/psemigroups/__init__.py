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
the F-sized sets and their text, loads when ``analyze`` or
``PSemigroup.gaps`` first reads it.
"""

from .denumerant import (
    DenumerantTable,
    GeneratorSet,
    as_generator_set,
    denumerant,
    horizon_cap,
)
from .errors import CapExceededError, InternalCheckError, PreconditionError
from .reports import Report
from .semigroup import (
    PSemigroup,
    build,
    build_range,
    gap_count,
    gap_power_sums,
    gap_sum,
)

__all__ = [
    "CapExceededError",
    "DenumerantTable",
    "GeneratorSet",
    "InternalCheckError",
    "PATTERN_FULL_INTERVAL",
    "PATTERN_OTHER",
    "PATTERN_SINGLETON_PLUS_TAIL",
    "PSemigroup",
    "PreconditionError",
    "Report",
    "SymmetryReport",
    "as_generator_set",
    "bernoulli",
    "build",
    "build_range",
    "classify",
    "denumerant",
    "detect_pattern",
    "eulerian",
    "gap_count",
    "gap_power_sums",
    "gap_sum",
    "horizon_cap",
    "is_arf",
    "is_minimal_generator_system",
    "minima_modulo",
    "power_sum_bernoulli",
    "pseudo_frobenius",
    "verify_arf_conductor_kunz",
    "verify_arf_heredity",
    "verify_almost_symmetric_equivalences",
    "verify_apery_pairings",
    "verify_eulerian_gf",
    "verify_gcd_scaling",
    "verify_johnson",
    "verify_nari",
    "verify_pf_consequences",
    "verify_symmetry_equivalences",
    "verify_watanabe",
]

_LAZY = {
    "SymmetryReport": "symmetry",
    "classify": "symmetry",
    "pseudo_frobenius": "symmetry",
    "PATTERN_FULL_INTERVAL": "symmetry",
    "PATTERN_OTHER": "symmetry",
    "PATTERN_SINGLETON_PLUS_TAIL": "symmetry",
    "detect_pattern": "symmetry",
    "verify_almost_symmetric_equivalences": "criteria",
    "verify_apery_pairings": "criteria",
    "verify_nari": "criteria",
    "verify_pf_consequences": "criteria",
    "verify_symmetry_equivalences": "criteria",
    "is_arf": "arf",
    "verify_arf_conductor_kunz": "arf",
    "verify_arf_heredity": "arf",
    "is_minimal_generator_system": "identities",
    "minima_modulo": "identities",
    "verify_gcd_scaling": "identities",
    "verify_johnson": "identities",
    "verify_watanabe": "identities",
    "bernoulli": "exactmath",
    "eulerian": "exactmath",
    "power_sum_bernoulli": "exactmath",
    "verify_eulerian_gf": "exactmath",
}


def __getattr__(name: str) -> object:
    """Import a module of ``_LAZY`` when one of its names (or the module
    itself) is first asked for.  A function name is read from its module
    on each access, not kept here, so that a wrapper put in the module in
    its place is the one returned."""
    module = _LAZY.get(name, name)
    if module not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that -X importtime logs it
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    return value if name == module else getattr(value, name)
