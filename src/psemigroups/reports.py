"""The immutable record base, the one result type every verifier and
closure check returns, and the builder of the verdict rows."""

from __future__ import annotations

from typing import Any


class Record:
    """Immutable value record.

    A subclass names its fields in ``__slots__``; the constructor takes them
    positionally or by keyword, in slot order.  Instances compare, hash and
    print by their field values, and refuse assignment with AttributeError.
    """

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self.__slots__
        if kwargs:
            try:
                args += tuple([kwargs.pop(f) for f in fields[len(args):]])
            except KeyError as missing:
                raise TypeError(f"{type(self).__name__} is missing field {missing}") from None
            if kwargs:
                raise TypeError(
                    f"{type(self).__name__} got unexpected or repeated fields {sorted(kwargs)}"
                )
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, field) for field in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[Any, ...]:
        # copy and pickle rebuild through the constructor, not by assignment
        return type(self), self._values()


class Report(Record):
    """Outcome of one check.

    ``applicable`` is False when the check's hypotheses do not hold for the
    given instance; that is reported, never treated as a failure.
    ``details`` holds the values particular to the kind of check; the JSON
    row renders them flat beside the four common keys.  Each report gets
    its own ``details`` dict unless one is passed.

    ``kind`` names the row's shape, and each shape is built in one place:
    ``closure`` by ``arf.is_arf``, ``series`` by
    ``exactmath.verify_eulerian_gf``, ``verdicts`` by ``verdicts_report``
    below, ``identity`` by one builder in ``identities``, and
    ``arf`` by ``arf.verify_arf_conductor_kunz``.
    """

    __slots__ = ("kind", "passed", "applicable", "note", "details")

    kind: str
    passed: bool
    applicable: bool
    note: str
    details: dict[str, Any]

    def __init__(
        self,
        kind: str,
        passed: bool,
        applicable: bool = True,
        note: str = "",
        details: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(kind, passed, applicable, note, {} if details is None else details)


def verdicts_report(
    identity: str,
    verdicts: dict[str, bool],
    passed: bool,
    applicable: bool = True,
    note: str = "",
) -> Report:
    """The row of a verifier that states its claim as named verdicts: the
    symmetry verifiers and Arf heredity."""
    return Report(
        "verdicts", passed, applicable, note, {"identity": identity, "verdicts": verdicts}
    )
