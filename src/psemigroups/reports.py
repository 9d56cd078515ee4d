"""The one result type every verifier and closure check returns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Report:
    """Outcome of one check.

    ``applicable`` is False when the check's hypotheses do not hold for the
    given instance; that is reported, never treated as a failure.
    ``details`` holds the values particular to the kind of check; the JSON
    row renders them flat beside the four common keys.
    """

    kind: str
    passed: bool
    applicable: bool = True
    note: str = ""
    details: dict[str, Any] = field(default_factory=dict)
